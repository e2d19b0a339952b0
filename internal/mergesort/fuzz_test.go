package mergesort_test

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	. "repro/internal/mergesort"
	"repro/internal/mergesort/paper"
)

// fuzzMaxElems caps the sort size per fuzz execution so the engine can
// explore many shapes per second.
const fuzzMaxElems = 1 << 12

// keysFromBytes derives a key slice (each value < 2^bank) from raw fuzz
// bytes: consecutive 8-byte words masked to the bank width. Short tails
// are kept (zero-padded) so odd data lengths still contribute an
// element, and low-entropy inputs produce the tie-heavy distributions
// the group-sorting path sees in practice.
func keysFromBytes(data []byte, bank int) []uint64 {
	mask := ^uint64(0)
	if bank < 64 {
		mask = uint64(1)<<uint(bank) - 1
	}
	n := (len(data) + 7) / 8
	if n > fuzzMaxElems {
		n = fuzzMaxElems
	}
	keys := make([]uint64, n)
	var word [8]byte
	for i := 0; i < n; i++ {
		lo := i * 8
		hi := lo + 8
		if hi > len(data) {
			hi = len(data)
		}
		copy(word[:], data[lo:hi])
		for j := hi - lo; j < 8; j++ {
			word[j] = 0
		}
		keys[i] = binary.LittleEndian.Uint64(word[:]) & mask
	}
	return keys
}

// fuzzKernels is the one oracle both fuzz targets drive: the same keys
// go through the production kernel and the paper kernel — on the
// sequential entry point, or from two workers up on the parallel one —
// and each output is held to checkKernelOutput: the sorted keys, oids a
// key-carrying permutation, ascending among equal keys. From
// ParallelMinRows keys on, both kernels must take their parallel sort.
func fuzzKernels(t *testing.T, bank, workers int, keys []uint64) {
	want := slices.Clone(keys)
	slices.Sort(want)
	for i, p := range []Params{{}, paperKernel(Params{}, paper.Params{})} {
		gotK, gotO := slices.Clone(keys), identOids(len(keys))
		if workers < 2 {
			mustSort(t, bank, gotK, gotO, p)
		} else if !sortsInParallel(func() { mustParallelSort(t, bank, gotK, gotO, p, workers) }) && len(keys) >= ParallelMinRows {
			t.Fatalf("bank %d n %d workers %d paper=%v: the parallel sort never ran", bank, len(keys), workers, i == 1)
		}
		checkKernelOutput(t, fmt.Sprintf("bank %d n %d workers %d paper=%v", bank, len(keys), workers, i == 1), keys, want, gotK, gotO)
	}
}

// FuzzMergesortSort drives both kernels with arbitrary keys as wide as
// the bank, on the sequential entry point.
func FuzzMergesortSort(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(1), []byte{1})
	f.Add(uint16(2), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 254})
	f.Add(uint16(0), make([]byte, 517)) // all-zero: one giant tie run
	f.Add(uint16(1), []byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox jumps over the lazy dog"))
	seed := make([]byte, 4096)
	for i := range seed {
		seed[i] = byte(i * 167)
	}
	f.Add(uint16(2), seed) // larger than one in-register block per bank

	f.Fuzz(func(t *testing.T, bankSel uint16, data []byte) {
		bank := Banks[int(bankSel)%len(Banks)]
		fuzzKernels(t, bank, 1, keysFromBytes(data, bank))
	})
}

// FuzzRadixSort is the same oracle entered through the corpus format of
// the old radix target: the first argument is a key width, sorted in
// the narrowest bank that holds it — so the top digits of the bank are
// constant and the production kernel skips their scatters — and the
// second, once a radix size, picks the worker count from
// fuzzRadixWorkers. The keys are repeated past the packed kernel's
// crossover — on the sequential path to PackMinRows rows more than were
// fuzzed, and from two workers on to ParallelMinRows rows, which the
// parallel radix sort cuts into one chunk per worker, up to four, that
// each hold the fuzzed keys — so every key ties far from its copies,
// and banks of at most 32 bits sort packed words.
func FuzzRadixSort(f *testing.F) {
	f.Add(uint16(20), uint16(8), []byte{3, 1, 2})
	f.Add(uint16(64), uint16(11), make([]byte, 300))
	f.Add(uint16(29), uint16(0), []byte{7, 0, 0, 0, 9, 0, 1, 0, 255, 255, 255, 31})
	f.Fuzz(func(t *testing.T, widthRaw, workersRaw uint16, data []byte) {
		width := int(widthRaw)%64 + 1
		workers := fuzzRadixWorkers[int(workersRaw)%len(fuzzRadixWorkers)]
		keys := keysFromBytes(data, width)
		rows := PackMinRows + len(keys)
		if workers > 1 {
			rows = ParallelMinRows
		}
		if len(keys) > 0 {
			for len(keys) < rows {
				keys = append(keys, keys...)
			}
			keys = keys[:rows]
		}
		fuzzKernels(t, bankFor(width), workers, keys)
	})
}

// fuzzRadixWorkers spans the sequential kernel, two and three chunks,
// and more workers than a fuzzed input has chunks.
var fuzzRadixWorkers = []int{1, 2, 3, 8, 300}
