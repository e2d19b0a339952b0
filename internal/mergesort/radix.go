package mergesort

// Radix sorting — the paper's future work (Section 7): "Code massaging
// would allow a careful choice of the radix size when radix-sorting
// multiple columns." An LSD radix sort's pass count is ⌈w/R⌉ for key
// width w and radix R bits, so the massaged round widths directly
// control how many counting passes each round pays — stitching two
// columns into a round that is a multiple of R wastes no partial pass.
//
// The implementation is a stable LSD counting sort over (key, oid)
// pairs; stability is what makes it usable round-by-round.

import "repro/internal/obs"

// DefaultRadixBits is the radix R used when callers do not override it.
// 8 bits (256 buckets) keeps the counting arrays L1-resident.
const DefaultRadixBits = 8

var (
	obsRadixSorts  = obs.NewCounter("mergesort.radix_sorts")
	obsRadixPasses = obs.NewCounter("mergesort.radix_passes")
)

// RadixSort sorts keys (values < 2^width) with their oids in place,
// using LSD counting passes of radixBits each. It is stable.
func RadixSort(keys []uint64, oids []uint32, width, radixBits int) {
	n := len(keys)
	if n != len(oids) {
		panic("mergesort: keys and oids length mismatch")
	}
	if n < 2 {
		return
	}
	if radixBits < 1 || radixBits > 16 {
		radixBits = DefaultRadixBits
	}
	if width < 1 {
		width = 1
	}
	if width > 64 {
		width = 64
	}
	if n < insertionThreshold {
		insertionSort(keys, oids)
		return
	}
	buckets := 1 << uint(radixBits)
	mask := uint64(buckets - 1)
	bufK := make([]uint64, n)
	bufO := make([]uint32, n)
	srcK, srcO, dstK, dstO := keys, oids, bufK, bufO
	count := make([]int, buckets+1)

	obsRadixSorts.Inc()
	passes := 0
	for shift := 0; shift < width; shift += radixBits {
		for i := range count {
			count[i] = 0
		}
		s := uint(shift)
		for _, k := range srcK {
			count[int((k>>s)&mask)+1]++
		}
		// Skip passes where every key lands in bucket 0 (common for the
		// top passes of narrow-but-padded keys).
		if count[1] == len(srcK) {
			continue
		}
		for i := 1; i <= buckets; i++ {
			count[i] += count[i-1]
		}
		for i, k := range srcK {
			b := int((k >> s) & mask)
			dstK[count[b]] = k
			dstO[count[b]] = srcO[i]
			count[b]++
		}
		srcK, srcO, dstK, dstO = dstK, dstO, srcK, srcO
		passes++
	}
	obsRadixPasses.Add(int64(passes))
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(oids, srcO)
	}
}

// RadixPasses returns the number of counting passes an LSD radix sort
// needs for a w-bit key at radix R — the quantity a radix-aware plan
// search would minimize across rounds.
func RadixPasses(width, radixBits int) int {
	if radixBits < 1 {
		radixBits = DefaultRadixBits
	}
	return (width + radixBits - 1) / radixBits
}
