package mcsort

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/faultinject"
	"repro/internal/massage"
	"repro/internal/mergesort"
	"repro/internal/mergesort/paper"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/testutil"
)

// A sort must be a pure function of its input: the same Perm and Groups
// must come out whatever the worker count, or results would depend on
// GOMAXPROCS and plans could not be compared across runs. Ties make this
// hard — chunking, group scheduling and the paper kernel's merges all
// change which worker sorts which tied run — so the order inside a tied
// group is fixed once, on the final groups (the contract on
// Result.Perm). These tests pin that property through ExecuteContext,
// for every shape round 0 can take and for the rounds after it.

// workerCounts spans the sequential path, the chunked path, an odd
// worker count (uneven chunk bounds), and more workers than a test-sized
// input has chunks.
var workerCounts = []int{1, 2, 3, 4, 8}

// identicalResults fails unless got has exactly want's Perm and Groups.
func identicalResults(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.Perm, want.Perm) {
		t.Fatalf("%s: Perm diverges", name)
	}
	if !slices.Equal(got.Groups, want.Groups) {
		t.Fatalf("%s: Groups diverge", name)
	}
}

// checkDeterministic sorts keys as one bank-bit column under a
// one-round plan at every worker count: Perm must equal the stable
// reference — sorted, oids ascending inside every tied run — and Perm
// and Groups must be identical at every worker count, with every Groups
// run oid-ascending.
func checkDeterministic(t *testing.T, name string, bank int, keys []uint64, p mergesort.Params) {
	t.Helper()
	inputs := []massage.Input{{Codes: keys, Width: bank}}
	onePlan := plan.Plan{Rounds: []plan.Round{{Width: bank, Bank: bank}}}
	want := refSort(inputs, len(keys))
	var base *Result
	for _, w := range workerCounts {
		res, err := execute(inputs, onePlan, Options{Workers: w, SortParams: &p})
		if err != nil {
			t.Fatalf("%s bank %d workers=%d: %v", name, bank, w, err)
		}
		for g := 0; g+1 < len(res.Groups); g++ {
			if run := res.Perm[res.Groups[g]:res.Groups[g+1]]; !slices.IsSorted(run) {
				t.Fatalf("%s bank %d workers=%d: group %d is not oid-ascending", name, bank, w, g)
			}
		}
		if !slices.Equal(res.Perm, want) {
			t.Fatalf("%s bank %d workers=%d: Perm differs from the stable reference sort", name, bank, w)
		}
		if base == nil {
			base = res
		}
		identicalResults(t, fmt.Sprintf("%s bank %d workers=%d", name, bank, w), res, base)
	}
}

// obsParallelSorts counts the sorts mergesort cut into chunks across
// workers: the parallel radix sort under the production kernel.
var obsParallelSorts = obs.NewCounter("mergesort.parallel_sorts")

// adversarialKeys builds the input battery: uniform, tie-heavy low
// cardinality, pre-sorted, reverse-sorted, all-equal, zipf-skewed, and
// 95 % one value. All-equal and 95 % one value are the skews that defeat
// a range partitioner's sampled pivots; by-row chunks must not notice.
func adversarialKeys(n, bank int, seed int64) map[string][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	mask := ^uint64(0)
	if bank < 64 {
		mask = uint64(1)<<uint(bank) - 1
	}
	zipf := rand.NewZipf(rng, 1.2, 1.3, uint64(n/2+1))
	cases := map[string][]uint64{
		"uniform":  make([]uint64, n),
		"lowcard":  make([]uint64, n),
		"sorted":   make([]uint64, n),
		"reverse":  make([]uint64, n),
		"allequal": make([]uint64, n),
		"zipf":     make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		cases["uniform"][i] = rng.Uint64() & mask
		// 17 distinct values: every partition is dominated by ties.
		cases["lowcard"][i] = uint64(rng.Intn(17)) & mask
		cases["sorted"][i] = uint64(i) & mask
		cases["reverse"][i] = uint64(n-i) & mask
		cases["allequal"][i] = 42
		cases["zipf"][i] = zipf.Uint64() & mask
	}
	// Its own generator, so the cases above stay what they were.
	skew := rand.New(rand.NewSource(seed + 1))
	cases["skew95"] = make([]uint64, n)
	for i := range cases["skew95"] {
		cases["skew95"][i] = 7
		if skew.Intn(20) == 0 {
			cases["skew95"][i] = uint64(skew.Intn(1000)) & mask
		}
	}
	return cases
}

// TestParallelFullSortDeterministicAcrossWorkers runs the battery at
// the cut-off, so round 0 is sequential at one worker and the parallel
// radix sort above it, whatever the skew.
func TestParallelFullSortDeterministicAcrossWorkers(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	const n = mergesort.ParallelMinRows
	for _, bank := range []int{16, 32, 64} {
		var p mergesort.Params
		for name, keys := range adversarialKeys(n, bank, 11) {
			before := obsParallelSorts.Value()
			checkDeterministic(t, name, bank, keys, p)
			// Every worker count above one enters the parallel round 0.
			if got := obsParallelSorts.Value() - before; got != int64(len(workerCounts)-1) {
				t.Fatalf("%s bank %d: %d parallel round-0 sorts, want %d", name, bank, got, len(workerCounts)-1)
			}
		}
	}
}

// TestParallelFullSortDefaultThreshold keeps one case at three times
// the cut-off, so round 0 runs the parallel radix sort at every worker
// count above one.
func TestParallelFullSortDefaultThreshold(t *testing.T) {
	n := 3 * mergesort.ParallelMinRows
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(1 << 16))
	}
	par := testutil.Bumps(func() { checkDeterministic(t, "uniform16", 16, keys, mergesort.Params{}) }, "mergesort.parallel_sorts")[0]
	if want := int64(len(workerCounts) - 1); par != want {
		t.Fatalf("%d parallel round-0 sorts, want %d", par, want)
	}
}

// TestWorkersBeyondAByteMatchSequential runs round 0 at worker counts
// past a byte — the server admits 1,024, and a per-worker index kept in
// a uint8 once wrapped silently from 257 workers on. Whatever the worker
// count, the parallel radix sort cuts at most one chunk per 4,096 rows;
// unique and 99 %-tied keys must both match the sequential sort.
func TestWorkersBeyondAByteMatchSequential(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	const rows = 40000
	rng := rand.New(rand.NewSource(53))
	unique := make([]uint64, rows)
	tied := make([]uint64, rows)
	for i, v := range rng.Perm(rows) {
		unique[i] = uint64(v) << 14 // spread over the 30 bits
		tied[i] = 5
		if rng.Intn(100) == 0 {
			tied[i] = uint64(rng.Intn(1 << 30))
		}
	}
	onePlan := plan.Plan{Rounds: []plan.Round{{Width: 30, Bank: 32}}}
	for name, keys := range map[string][]uint64{"unique": unique, "tied99": tied} {
		inputs := []massage.Input{{Codes: keys, Width: 30}}
		base, err := execute(inputs, onePlan, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{256, 257, 300, 1024} {
			var res *Result
			if testutil.Bumps(func() { res, err = execute(inputs, onePlan, Options{Workers: w}) }, "mergesort.parallel_sorts")[0] == 0 {
				t.Fatalf("%s workers=%d: round 0 did not sort in parallel", name, w)
			}
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			identicalResults(t, fmt.Sprintf("%s workers=%d", name, w), res, base)
		}
	}
}

// TestTiedIntermediateRoundsDeterministic runs a three-round plan whose
// first two rounds leave nearly every row tied (2 and then 6 groups,
// over 8192 rows and over twice ParallelMinRows, where round 1's larger
// group holds half the rows and is sorted cooperatively from two
// workers on), so every group the later rounds sort
// arrives in whatever order the previous round's path left it. Only the final
// groups' order is observable, and it must be the stable reference at
// every worker count.
func TestTiedIntermediateRoundsDeterministic(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	for _, rows := range []int{8192, 2 * mergesort.ParallelMinRows} {
		inputs := randInputs(rand.New(rand.NewSource(43)), []int{3, 5, 11}, []int{2, 3, 700}, rows)
		inputs[1].Desc = true
		want := refSort(inputs, rows)
		for _, w := range workerCounts {
			var res *Result
			var err error
			coop := testutil.Bumps(func() { res, err = columnAtATime(inputs, Options{Workers: w}) }, "mcsort.cooperative_group_sorts")[0]
			if err != nil {
				t.Fatalf("rows=%d workers=%d: %v", rows, w, err)
			}
			// Round 1's two groups share 2·ParallelMinRows rows: the
			// larger dominates the round at two workers or more. At one
			// worker a group dominates only when it holds every row.
			if big := rows >= 2*mergesort.ParallelMinRows && w >= 2; (coop > 0) != big {
				t.Fatalf("rows=%d workers=%d: %d cooperative group sorts", rows, w, coop)
			}
			if res.Rounds[0].NGroup != 2 || res.Rounds[1].NGroup != 6 {
				t.Fatalf("rows=%d workers=%d: intermediate rounds left %d and %d groups, want 2 and 6", rows, w, res.Rounds[0].NGroup, res.Rounds[1].NGroup)
			}
			if !slices.Equal(res.Perm, want) {
				t.Fatalf("rows=%d workers=%d: Perm differs from the stable reference sort", rows, w)
			}
		}
	}
}

// TestLimitRowsCutsInsideTiedGroup puts the LimitRows cut in the middle
// of a tied boundary group — the one consumer that slices inside a
// group, so the tie order must be fixed before it: the truncated Perm
// is the full sort's prefix, and Groups the full sort's clipped at the
// cut, at every worker count and for one- and two-round plans.
func TestLimitRowsCutsInsideTiedGroup(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	const rows = 6000
	inputs := randInputs(rand.New(rand.NewSource(47)), []int{9, 13}, []int{5, 3}, rows)
	for planName, p := range execPlans() {
		full, err := execute(inputs, p, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// One row into the second group, and mid-way through a later one.
		for _, limit := range []int{int(full.Groups[1]) + 1, int(full.Groups[7]+full.Groups[8]) / 2} {
			g := sort.Search(len(full.Groups), func(i int) bool { return int(full.Groups[i]) >= limit })
			if int(full.Groups[g]) == limit {
				t.Fatalf("%s: limit %d falls on a group boundary; the test wants it inside a group", planName, limit)
			}
			wantGroups := append(append([]int32(nil), full.Groups[:g]...), int32(limit))
			for _, w := range []int{1, 2, 8} {
				res, err := execute(inputs, p, Options{Workers: w, LimitRows: limit})
				if err != nil {
					t.Fatalf("%s limit=%d workers=%d: %v", planName, limit, w, err)
				}
				if !slices.Equal(res.Perm, full.Perm[:limit]) {
					t.Fatalf("%s limit=%d workers=%d: Perm is not the full sort's prefix", planName, limit, w)
				}
				if !slices.Equal(res.Groups, wantGroups) {
					t.Fatalf("%s limit=%d workers=%d: Groups = %v, want %v", planName, limit, w, res.Groups, wantGroups)
				}
			}
		}
	}
}

// execPlans is the plan battery the whole-sort determinism tests run:
// the plain column-at-a-time plan and two massaged plans — a stitched
// plan (both columns merged into one round) and a borrow plan (the
// round boundary cuts through column 1, lending 3 of its bits to the
// second round).
func execPlans() map[string]plan.Plan {
	return map[string]plan.Plan{
		"column-at-a-time": {Rounds: []plan.Round{{Width: 9, Bank: 16}, {Width: 13, Bank: 16}}},
		"stitched":         {Rounds: []plan.Round{{Width: 22, Bank: 32}}},
		"borrow":           {Rounds: []plan.Round{{Width: 6, Bank: 16}, {Width: 16, Bank: 16}}},
	}
}

// TestExecuteDeterministicAcrossWorkers lifts the property to the whole
// multi-round sort — massaged (stitch+borrow) plans included, not just
// plain column-at-a-time: Perm and Groups must be identical for any
// Workers over every adversarial distribution.
func TestExecuteDeterministicAcrossWorkers(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	const rows = 4096
	for dist, leading := range adversarialKeys(rows, 9, 17) {
		rng := rand.New(rand.NewSource(19))
		inputs := []massage.Input{
			{Codes: make([]uint64, rows), Width: 9},
			{Codes: make([]uint64, rows), Width: 13, Desc: true},
		}
		mask9 := uint64(1)<<9 - 1
		for i := 0; i < rows; i++ {
			inputs[0].Codes[i] = leading[i] & mask9 // adversarial leading column
			inputs[1].Codes[i] = uint64(rng.Intn(4096))
		}
		for planName, p := range execPlans() {
			var baseline *Result
			for _, w := range workerCounts {
				res, err := execute(inputs, p, Options{Workers: w})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", dist, planName, w, err)
				}
				if baseline == nil {
					baseline = res
					continue
				}
				if len(res.Perm) != len(baseline.Perm) || len(res.Groups) != len(baseline.Groups) {
					t.Fatalf("%s/%s workers=%d: shape differs", dist, planName, w)
				}
				for i := range res.Perm {
					if res.Perm[i] != baseline.Perm[i] {
						t.Fatalf("%s/%s workers=%d: Perm diverges at %d", dist, planName, w, i)
					}
				}
				for i := range res.Groups {
					if res.Groups[i] != baseline.Groups[i] {
						t.Fatalf("%s/%s workers=%d: Groups diverge at %d", dist, planName, w, i)
					}
				}
			}
		}
	}
}

// TestExecuteByteSliceInputsMatchMaterialised pins late
// materialisation at the sort layer: the same rows described as
// ByteSlice-backed inputs over a filtered selection (massage.Input.Source)
// must sort to exactly the Perm and Groups of their materialised codes,
// for every plan, every worker count, the full path and both truncated
// ones.
func TestExecuteByteSliceInputsMatchMaterialised(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	const rows, tableRows = 4096, 6000
	rng := rand.New(rand.NewSource(29))
	var sel []uint32
	for i := 0; i < tableRows && len(sel) < rows; i++ {
		if rng.Intn(4) != 0 {
			sel = append(sel, uint32(i))
		}
	}
	if len(sel) != rows {
		t.Fatalf("selected %d rows, want %d", len(sel), rows)
	}
	widths, desc := []int{9, 13}, []bool{false, true}
	for dist, leading := range adversarialKeys(tableRows, 9, 31) {
		mat := make([]massage.Input, len(widths))
		bs := make([]massage.Input, len(widths))
		for c, w := range widths {
			codes := make([]uint64, tableRows)
			for i := range codes {
				codes[i] = uint64(rng.Intn(4096)) & column.Mask(w)
				if c == 0 {
					codes[i] = leading[i] & column.Mask(w) // adversarial leading column
				}
			}
			picked := make([]uint64, rows)
			for i, r := range sel {
				picked[i] = codes[r]
			}
			mat[c] = massage.Input{Codes: picked, Width: w, Desc: desc[c]}
			bs[c] = massage.Input{Width: w, Desc: desc[c], Source: &massage.Source{Column: byteslice.FromColumn(column.FromCodes("c", w, codes)), Rows: sel}}
		}
		for planName, p := range execPlans() {
			for _, o := range []Options{{}, {LimitRows: 100}, {LimitRows: rows / 2}, {LimitGroups: 40}} {
				for _, w := range workerCounts {
					o.Workers = w
					tag := fmt.Sprintf("%s/%s limitRows=%d limitGroups=%d workers=%d", dist, planName, o.LimitRows, o.LimitGroups, w)
					want, err := execute(mat, p, o)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					got, err := execute(bs, p, o)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					identicalResults(t, tag, got, want)
				}
			}
		}
	}
}

// TestExecutePlansAgree pins that all plans over the same inputs produce
// the same Perm and Groups (massaging must not change the sort result),
// at every worker count.
func TestExecutePlansAgree(t *testing.T) {
	const rows = 2048
	rng := rand.New(rand.NewSource(23))
	inputs := []massage.Input{
		{Codes: make([]uint64, rows), Width: 9},
		{Codes: make([]uint64, rows), Width: 13, Desc: true},
	}
	for i := 0; i < rows; i++ {
		inputs[0].Codes[i] = uint64(rng.Intn(32))
		inputs[1].Codes[i] = uint64(rng.Intn(64))
	}
	var baseline *Result
	var baseName string
	for planName, p := range execPlans() {
		for _, w := range workerCounts {
			res, err := execute(inputs, p, Options{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", planName, w, err)
			}
			if baseline == nil {
				baseline, baseName = res, planName
				continue
			}
			for i := range res.Perm {
				if res.Perm[i] != baseline.Perm[i] {
					t.Fatalf("%s vs %s workers=%d: Perm diverges at %d", planName, baseName, w, i)
				}
			}
			if len(res.Groups) != len(baseline.Groups) {
				t.Fatalf("%s vs %s workers=%d: group count differs", planName, baseName, w)
			}
			for i := range res.Groups {
				if res.Groups[i] != baseline.Groups[i] {
					t.Fatalf("%s vs %s workers=%d: Groups diverge at %d", planName, baseName, w, i)
				}
			}
		}
	}
}

func ExampleExecuteContext_deterministic() {
	inputs := []massage.Input{{Codes: []uint64{3, 1, 3, 1}, Width: 2}}
	p := plan.Plan{Rounds: []plan.Round{{Width: 2, Bank: 16}}}
	for _, w := range []int{1, 4} {
		res, _ := execute(inputs, p, Options{Workers: w})
		fmt.Println(res.Perm)
	}
	// Output:
	// [1 3 0 2]
	// [1 3 0 2]
}

// TestExecuteOVCOnOffIdentical lifts the OVC differential to the whole
// multi-round sort under the paper kernel, the one that codes its
// merges: for every key cardinality (all-ties to nearly unique) and
// worker count, disabling offset-value coding must not change a single
// byte of Perm or Groups. The ParallelMinRows-row inputs reach the
// paper kernel's parallel sort — chunk sorts and the chunk merge
// (faultinject.LoserMerge) — at every worker count ≥ 2, in round 0 and,
// all-tied, for the cooperative group of the later round.
func TestExecuteOVCOnOffIdentical(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	for _, tc := range []struct{ rows, card int }{
		{4096, 1}, {4096, 2}, {4096, 16}, {4096, 1024},
		{mergesort.ParallelMinRows, 1}, {mergesort.ParallelMinRows, 16},
	} {
		rows, card := tc.rows, tc.card
		rng := rand.New(rand.NewSource(int64(29 + card)))
		inputs := []massage.Input{
			{Codes: make([]uint64, rows), Width: 9},
			{Codes: make([]uint64, rows), Width: 13, Desc: true},
		}
		for i := 0; i < rows; i++ {
			inputs[0].Codes[i] = uint64(rng.Intn(card)) & (1<<9 - 1)
			inputs[1].Codes[i] = uint64(rng.Intn(card)) & (1<<13 - 1)
		}
		for planName, p := range execPlans() {
			for _, w := range []int{1, 2, 4, 8} {
				label := fmt.Sprintf("rows=%d card=%d %s workers=%d", rows, card, planName, w)
				var on, off *Result
				for _, disable := range []bool{false, true} {
					sp := mergesort.Params{Sort: paper.Params{DisableOVC: disable}.Sort}
					var res *Result
					var err error
					var merges int64
					coop := testutil.Bumps(func() {
						merges = chunkMerges(func() { res, err = execute(inputs, p, Options{Workers: w, SortParams: &sp}) })
					}, "mcsort.cooperative_group_sorts")[0]
					if err != nil {
						t.Fatalf("%s (ovc off %v): %v", label, disable, err)
					}
					if w >= 2 && rows >= mergesort.ParallelMinRows && merges == 0 {
						t.Fatalf("%s (ovc off %v): the paper kernel's chunk merge never ran", label, disable)
					}
					if w >= 2 && rows >= mergesort.ParallelMinRows && card == 1 && len(p.Rounds) > 1 && coop == 0 {
						t.Fatalf("%s (ovc off %v): the all-tied group was not sorted cooperatively", label, disable)
					}
					if disable {
						off = res
					} else {
						on = res
					}
				}
				if len(on.Perm) != len(off.Perm) || len(on.Groups) != len(off.Groups) {
					t.Fatalf("%s: shape differs with OVC off", label)
				}
				for i := range on.Perm {
					if on.Perm[i] != off.Perm[i] {
						t.Fatalf("%s: Perm diverges at %d with OVC off", label, i)
					}
				}
				for i := range on.Groups {
					if on.Groups[i] != off.Groups[i] {
						t.Fatalf("%s: Groups diverge at %d with OVC off", label, i)
					}
				}
			}
		}
	}
}

// chunkMerges runs f and counts the shares of the paper kernel's chunk
// merge (faultinject.LoserMerge), which only its parallel sort reaches.
func chunkMerges(f func()) int64 {
	var n atomic.Int64
	defer faultinject.Set(faultinject.LoserMerge, func() { n.Add(1) })()
	f()
	return n.Load()
}

// TestGroupSortManyTinyGroupsDeterministic runs the later-round shape
// the batch claims exist for — 131,072 four-row groups, ties inside
// most of them — at several pool sizes: keys and permutation must come
// out byte-identical to the inline (workers = 1) loop.
func TestGroupSortManyTinyGroupsDeterministic(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	const nGroups, sz = 131072, 4
	rng := rand.New(rand.NewSource(23))
	keys := make([]uint64, nGroups*sz)
	for i := range keys {
		keys[i] = uint64(rng.Intn(3))
	}
	groups := make([]int32, nGroups+1)
	for g := range groups {
		groups[g] = int32(g * sz)
	}
	var sp mergesort.Params
	var wantK []uint64
	var wantP []uint32
	for _, w := range []int{1, 2, 3, 8} {
		k := append([]uint64(nil), keys...)
		perm := make([]uint32, len(k))
		for i := range perm {
			perm[i] = uint32(len(k) - 1 - i) // descending: no tie arrives in order
		}
		nSort, err := parallelGroupSort(context.Background(), 16, k, perm, groups, w, sp, 1)
		if err != nil || nSort != nGroups {
			t.Fatalf("workers=%d: sorted %d of %d groups, err %v", w, nSort, nGroups, err)
		}
		if w == 1 {
			wantK, wantP = k, perm
			continue
		}
		for i := range k {
			if k[i] != wantK[i] || perm[i] != wantP[i] {
				t.Fatalf("workers=%d: diverges from the inline loop at row %d", w, i)
			}
		}
	}
}

// TestCutGroupBatches pins the batch cutter: the batches cover every
// sortable non-dominant group exactly once, in position order, and each
// holds fewer sortable rows than groupBatchRows plus its largest group;
// groups that dominate the round at the worker count — at least
// ParallelMinRows rows and 1/workers of the round's — are listed apart.
func TestCutGroupBatches(t *testing.T) {
	const coop = mergesort.ParallelMinRows
	rng := rand.New(rand.NewSource(31))
	zipf := rand.NewZipf(rng, 1.3, 2, 3*coop)
	sizes := map[string][]int{
		"singletons":   make([]int, 50000),
		"one-big-less": {coop - 1},
		"one-big":      {coop},
		"dominates":    {3 * coop, coop, 2, coop + 1, 5},
		"zipf":         make([]int, 20000),
		"straddle": {groupBatchRows - 1, 1, 1, 2, groupBatchRows, 1, groupBatchRows + 1,
			groupBatchRows / 2, groupBatchRows/2 - 1, 1, 2, coop, 3},
	}
	for i := range sizes["singletons"] {
		sizes["singletons"][i] = 1
	}
	for i := range sizes["zipf"] {
		sizes["zipf"][i] = 1 + int(zipf.Uint64())
	}
	for name, szs := range sizes {
		groups := []int32{0}
		for _, sz := range szs {
			groups = append(groups, groups[len(groups)-1]+int32(sz))
		}
		rows := int(groups[len(groups)-1])
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("%s workers=%d", name, workers)
			dominant := dominantRows(rows, workers)
			if dominant < coop || dominant*workers < rows {
				t.Fatalf("%s: dominant size %d over %d rows", label, dominant, rows)
			}
			wantSort, wantBig := 0, 0
			for _, sz := range szs {
				if sz >= 2 {
					wantSort++
				}
				if sz >= dominant {
					wantBig++
				}
			}
			batches, big, nSort, err := cutGroupBatches(context.Background(), groups, dominant)
			if err != nil || nSort != wantSort || len(big) != wantBig {
				t.Fatalf("%s: nSort %d (want %d), %d big (want %d), err %v", label, nSort, wantSort, len(big), wantBig, err)
			}
			for _, g := range big {
				if szs[g] < dominant {
					t.Fatalf("%s: group %d of %d rows listed as dominant", label, g, szs[g])
				}
			}
			if batches[0] != 0 {
				t.Fatalf("%s: batches start at group %d", label, batches[0])
			}
			covered := 0
			for b := 1; b < len(batches); b++ {
				if batches[b] <= batches[b-1] {
					t.Fatalf("%s: batch %d is empty or out of order: %v", label, b, batches[b-1:b+1])
				}
				rows, largest := 0, 0
				for g := batches[b-1]; g < batches[b]; g++ {
					if sz := szs[g]; sz >= 2 && sz < dominant {
						covered++
						rows += sz
						largest = max(largest, sz)
					}
				}
				if rows == 0 || rows >= groupBatchRows+largest {
					t.Fatalf("%s: batch %d holds %d sortable rows (largest group %d)", label, b, rows, largest)
				}
			}
			// Adjacent, ascending batches starting at 0 visit a group at
			// most once; together they must reach every sortable one.
			if covered != wantSort-wantBig {
				t.Fatalf("%s: batches cover %d of %d sortable non-dominant groups", label, covered, wantSort-wantBig)
			}
		}
	}
	// At two workers only the 3·coop group holds half the round.
	if got := dominantRows(5*coop+8, 2); got != (5*coop+8)/2 {
		t.Fatalf("dominantRows(5·coop+8, 2) = %d", got)
	}
}
