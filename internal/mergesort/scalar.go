// Package mergesort implements the paper's SIMD-sort: a three-phase
// merge-sort after Balkesen et al. ("merge-sort with sorting-network
// kernel", reference [5] of the paper), one implementation per bank size
// b ∈ {16, 32, 64}.
//
// Phase 1 (in-register sorting) sorts blocks of (64/b)² elements with a
// lane-parallel sorting network and emits sorted runs of 64/b elements.
// Phase 2 (in-cache merging) repeatedly merges adjacent runs with SWAR
// bitonic merge networks until runs reach half the L2 cache. Phase 3
// (out-of-cache merging) merges the in-cache runs with a loser-tree
// multiway merge of fanout F, requiring ⌈log_F(runs)⌉ passes — the pass
// structure the paper's Equation 8 models.
//
// Each sort permutes a parallel []uint32 oid array together with the
// keys, producing the object-identifier permutation the column-store
// needs for subsequent lookups.
package mergesort

// insertionThreshold is the input size below which the sorters fall back
// to a scalar insertion sort: sorting-network setup does not pay off for
// tiny inputs (these correspond to the small tied groups of later rounds,
// whose fixed cost the paper models as C_overhead).
const insertionThreshold = 24

// insertionSort sorts keys (and oids) in place.
func insertionSort(keys []uint64, oids []uint32) {
	for i := 1; i < len(keys); i++ {
		k, o := keys[i], oids[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1], oids[j+1] = keys[j], oids[j]
			j--
		}
		keys[j+1], oids[j+1] = k, o
	}
}
