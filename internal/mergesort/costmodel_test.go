package mergesort_test

import (
	"testing"

	"repro/internal/costmodel"
	. "repro/internal/mergesort"
)

// TestCostModelMirrorsKernel fails when a kernel constant the cost
// model's radix term mirrors drifts from its copy in internal/costmodel:
// the insertion cutoff below which TRadix prices an insertion sort, the
// packed kernel's crossover and widest digit that set its layout, and
// the radix select's digit width and refinement share that set the
// top-K term's passes.
func TestCostModelMirrorsKernel(t *testing.T) {
	for _, c := range []struct {
		name          string
		kernel, model int
	}{
		{"insertion cutoff", SmallRunCutoff, costmodel.RadixCutoff},
		{"packed crossover", PackMinRows, costmodel.RadixPackMinRows},
		{"packed digit bits", PackMaxBits, costmodel.RadixPackMaxBits},
		{"select digit bits", SelectDigitBits, costmodel.SelectDigitBits},
		{"select refine share", SelectRefineShare, costmodel.SelectRefineShare},
	} {
		if c.kernel != c.model {
			t.Errorf("%s: kernel %d, cost model %d", c.name, c.kernel, c.model)
		}
	}
}
