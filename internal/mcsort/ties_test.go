package mcsort

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/massage"
	"repro/internal/mergesort"
	"repro/internal/mergesort/paper"
	"repro/internal/obs"
	"repro/internal/plan"
)

// TestStableKernelLeavesNoTieRuns pins the tie contract of Result.Perm
// now that no pass of this package orders ties: every path a round can
// take — sequential and parallel radix round 0, cooperative big group,
// batched groups, sequential and parallel top-K — leaves equal keys in
// oid order, so Perm is the stable reference sort, under the production
// kernel by stability and under the paper kernel (plugged in through
// mergesort.Params.Sort) because it orders its own ties. At two workers
// and up the paper kernel's round 0 must be its parallel sort (chunk
// sorts and chunk merge, chunkMerges).
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
	// Two nearly-all-tied leading columns: round 1 meets two groups that
	// share rows = 2·ParallelMinRows, so one of them is sorted
	// cooperatively.
	threeCols := randInputs(rng, []int{3, 5, 11}, []int{2, 3, 700}, rows)
	threeRounds := plan.ColumnAtATime([]int{3, 5, 11})

	cases := []struct {
		name   string
		inputs []massage.Input
		plan   plan.Plan
	}{
		{"unique/one round", oneCol(unique), oneRound},
		{"tied99/one round", oneCol(tied99), oneRound},
		{"zipf/one round", oneCol(zipfed), oneRound},
		{"three rounds", threeCols, threeRounds},
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
			for _, paperK := range []bool{false, true} {
				for _, w := range []int{1, 2, 3, 8} {
					var sp mergesort.Params
					if paperK {
						sp.Sort = paper.Params{}.Sort
					}
					parBefore := obsParallelSorts.Value()
					var res *Result
					var err error
					merges := chunkMerges(func() {
						res, err = execute(c.inputs, c.plan, Options{Workers: w, SortParams: &sp, LimitRows: limitRows})
					})
					if err != nil {
						t.Fatal(err)
					}
					if paperK && limitRows == 0 && w >= 2 && merges == 0 {
						t.Fatalf("%s workers=%d: round 0 did not take the paper kernel's parallel sort", c.name, w)
					}
					if par := obsParallelSorts.Value() - parBefore; !paperK {
						switch {
						case limitRows > 0:
							topK = topK || (par > 0 && len(c.plan.Rounds) == 1)
						case len(c.plan.Rounds) > 1:
							round0, coop = round0 || par > 0, coop || par > 1
						default:
							round0 = round0 || par > 0
						}
					}
					where := fmt.Sprintf("%s limit=%d workers=%d paper=%v", c.name, limitRows, w, paperK)
					if !slices.Equal(res.Perm, want[:len(res.Perm)]) {
						t.Fatalf("%s: Perm differs from the stable reference sort", where)
					}
				}
			}
		}
	}
	// The battery must have taken the parallel radix sort on every path
	// that calls it, or the equalities above prove less than claimed.
	if !round0 || !coop || !topK || obsCoopGroupSorts.Value() == coops {
		t.Fatalf("parallel radix sort not taken on every path: round 0 %v, cooperative group %v, top-K %v (%d cooperative group sorts)",
			round0, coop, topK, obsCoopGroupSorts.Value()-coops)
	}
}
