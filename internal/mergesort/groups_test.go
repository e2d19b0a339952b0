package mergesort_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	. "repro/internal/mergesort"
	"repro/internal/mergesort/paper"
	"repro/internal/testutil"
)

// TestSortGroupsMatchesPerGroupSort: SortGroupsContext over runs of
// 1 to 3 × SmallRunCutoff rows, with a maxRows that skips the longest,
// leaves keys and oids exactly as a SortScratchContext call per sorted
// run does — under the radix kernel in every bank and under the paper
// kernel's hook — books one mergesort.sorts per sorted run and one
// mergesort.insertion_sorts per run below SmallRunCutoff under the
// radix kernel, and refuses mismatched keys and oids.
func TestSortGroupsMatchesPerGroupSort(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	groups := []int32{0}
	for groups[len(groups)-1] < 20000 {
		groups = append(groups, groups[len(groups)-1]+int32(1+rng.Intn(3*SmallRunCutoff)))
	}
	n := int(groups[len(groups)-1])
	const maxRows = 2*SmallRunCutoff + 5
	for _, bank := range Banks {
		for _, kernel := range []struct {
			name string
			p    Params
		}{{"radix", Params{}}, {"paper", paperKernel(Params{}, paper.Params{})}} {
			tag := fmt.Sprintf("bank=%d kernel=%s", bank, kernel.name)
			keys, oids := make([]uint64, n), make([]uint32, n)
			for i := range keys {
				keys[i], oids[i] = uint64(rng.Intn(50))<<uint(bank-8), uint32(i)
			}
			wantKeys, wantOids := slices.Clone(keys), slices.Clone(oids)
			sorted, small := 0, 0
			for g := 0; g+1 < len(groups); g++ {
				lo, hi := groups[g], groups[g+1]
				if hi-lo < 2 || hi-lo >= maxRows {
					continue
				}
				sorted++
				if hi-lo < SmallRunCutoff {
					small++
				}
				mustSort(t, bank, wantKeys[lo:hi], wantOids[lo:hi], kernel.p)
			}
			var err error
			bumps := testutil.Bumps(func() {
				err = SortGroupsContext(context.Background(), bank, keys, oids, groups, maxRows, kernel.p, nil)
			}, "mergesort.sorts", "mergesort.insertion_sorts")
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if !slices.Equal(keys, wantKeys) || !slices.Equal(oids, wantOids) {
				t.Fatalf("%s: the batch differs from a sort per group", tag)
			}
			if kernel.p.Sort != nil {
				small = 0
			}
			if bumps[0] != int64(sorted) || bumps[1] != int64(small) {
				t.Errorf("%s: booked %d sorts and %d insertion sorts, want %d and %d", tag, bumps[0], bumps[1], sorted, small)
			}
			if err := SortGroupsContext(context.Background(), bank, keys, oids[1:], groups, maxRows, kernel.p, nil); err == nil {
				t.Errorf("%s: mismatched keys and oids accepted", tag)
			}
		}
	}
}
