package mcsort

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/massage"
	"repro/internal/obs"
	"repro/internal/plan"
)

// TestStableKernelLeavesNoTieRuns pins the stability dividend: under the
// production sort kernel every path a round can take — sequential and
// parallel radix round 0, cooperative big group, batched groups,
// sequential and parallel top-K — hands orderTies runs that are already
// oid-ascending, so mcsort.tie_runs_sorted reads 0 and the pass is a
// verification scan; under the paper kernel the same tied inputs leave
// it runs to sort, which is why the pass stays. Perm is the stable
// reference either way.
func TestStableKernelLeavesNoTieRuns(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	const rows = 1 << 15 // the top-K survivors and the big groups span several chunks
	rng := rand.New(rand.NewSource(61))
	unique := make([]uint64, rows)
	tied99 := make([]uint64, rows)
	zipfed := make([]uint64, rows)
	zipf := rand.NewZipf(rng, 1.2, 1.3, rows/2)
	for i, v := range rng.Perm(rows) {
		unique[i] = uint64(v) << 14 // spread over the 30 bits
		tied99[i] = 5
		if rng.Intn(100) == 0 {
			tied99[i] = uint64(rng.Intn(1 << 30))
		}
		zipfed[i] = zipf.Uint64()
	}
	oneCol := func(keys []uint64) []massage.Input { return []massage.Input{{Codes: keys, Width: 30}} }
	oneRound := plan.Plan{Rounds: []plan.Round{{Width: 30, Bank: 32}}}
	// Two nearly-all-tied leading columns: rounds 1 and 2 meet groups far
	// above the forced ParallelThreshold, sorted cooperatively.
	threeCols := randInputs(rng, []int{3, 5, 11}, []int{2, 3, 700}, rows)
	threeRounds := plan.ColumnAtATime([]int{3, 5, 11})

	cases := []struct {
		name   string
		inputs []massage.Input
		plan   plan.Plan
		tied   bool
	}{
		{"unique/one round", oneCol(unique), oneRound, false},
		{"tied99/one round", oneCol(tied99), oneRound, true},
		{"zipf/one round", oneCol(zipfed), oneRound, true},
		{"three rounds", threeCols, threeRounds, true},
	}
	// Which production paths ran the parallel radix sort: round 0 of a full
	// sort, a cooperative group of a later round (any parallel sort past
	// round 0's one), and the survivor sort of a one-round top-K.
	var round0, coop, topK bool
	coops := obsCoopGroupSorts.Value()
	for _, c := range cases {
		want := refSort(c.inputs, rows)
		// One cut inside the first final group of two or more rows.
		limit := 0
		for i := 1; i < rows && limit == 0; i++ {
			tie := true
			for _, in := range c.inputs {
				tie = tie && in.Codes[want[i]] == in.Codes[want[i-1]]
			}
			if tie {
				limit = i
			}
		}
		limits := []int{0}
		if limit > 0 {
			limits = append(limits, limit)
		}
		for _, limitRows := range limits {
			var paperRuns int64
			for _, paper := range []bool{false, true} {
				for _, w := range []int{1, 2, 3, 8} {
					sp := forcedParams(32)
					sp.PaperKernel = paper
					before, parBefore := obsTieRuns.Value(), obsParallelSorts.Value()
					res, err := execute(c.inputs, c.plan, Options{Workers: w, SortParams: &sp, LimitRows: limitRows})
					if err != nil {
						t.Fatal(err)
					}
					if par := obsParallelSorts.Value() - parBefore; !paper {
						switch {
						case limitRows > 0:
							topK = topK || (par > 0 && len(c.plan.Rounds) == 1)
						case len(c.plan.Rounds) > 1:
							round0, coop = round0 || par > 0, coop || par > 1
						default:
							round0 = round0 || par > 0
						}
					}
					where := fmt.Sprintf("%s limit=%d workers=%d paper=%v", c.name, limitRows, w, paper)
					if !slices.Equal(res.Perm, want[:len(res.Perm)]) {
						t.Fatalf("%s: Perm differs from the stable reference sort", where)
					}
					runs := obsTieRuns.Value() - before
					if paper {
						paperRuns += runs
					} else if runs != 0 {
						t.Fatalf("%s: orderTies sorted %d runs after stable sorts, want 0", where, runs)
					}
				}
			}
			if c.tied && limitRows == 0 && paperRuns == 0 {
				t.Errorf("%s: the paper kernel left orderTies nothing to sort on tied input", c.name)
			}
		}
	}
	// The battery must have taken the parallel radix sort on every path
	// that calls it, or the zeros above prove less than claimed.
	if !round0 || !coop || !topK || obsCoopGroupSorts.Value() == coops {
		t.Fatalf("parallel radix sort not taken on every path: round 0 %v, cooperative group %v, top-K %v (%d cooperative group sorts)",
			round0, coop, topK, obsCoopGroupSorts.Value()-coops)
	}
}
