package mergesort

import (
	"encoding/binary"
	"sort"
	"testing"
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

// FuzzMergesortSort drives the three-phase SIMD merge-sort with
// arbitrary keys and checks it against a sort.SliceStable oracle: the
// output keys must match the oracle order exactly, and the oid output
// must be a permutation that maps every slot back to an input element
// carrying that key.
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
		keys := keysFromBytes(data, bank)
		n := len(keys)
		orig := append([]uint64(nil), keys...)
		oids := make([]uint32, n)
		for i := range oids {
			oids[i] = uint32(i)
		}

		mustSort(t, bank, keys, oids, Params{})

		want := append([]uint64(nil), orig...)
		sort.SliceStable(want, func(i, j int) bool { return want[i] < want[j] })

		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			if keys[i] != want[i] {
				t.Fatalf("bank %d n %d: keys[%d] = %d, oracle %d", bank, n, i, keys[i], want[i])
			}
			oid := oids[i]
			if int(oid) >= n {
				t.Fatalf("bank %d n %d: oids[%d] = %d out of range", bank, n, i, oid)
			}
			if seen[oid] {
				t.Fatalf("bank %d n %d: oid %d appears twice — not a permutation", bank, n, oid)
			}
			seen[oid] = true
			if orig[oid] != keys[i] {
				t.Fatalf("bank %d n %d: oids[%d]=%d carries key %d, slot holds %d",
					bank, n, i, oid, orig[oid], keys[i])
			}
		}
	})
}

// FuzzRadixSort applies the same oracle to the stable LSD radix sort,
// which additionally must preserve input order within ties.
func FuzzRadixSort(f *testing.F) {
	f.Add(uint16(20), uint16(8), []byte{3, 1, 2})
	f.Add(uint16(64), uint16(11), make([]byte, 300))
	f.Fuzz(func(t *testing.T, widthRaw, radixRaw uint16, data []byte) {
		width := int(widthRaw)%64 + 1
		radix := int(radixRaw)%16 + 1
		keys := keysFromBytes(data, width)
		n := len(keys)
		orig := append([]uint64(nil), keys...)
		oids := make([]uint32, n)
		for i := range oids {
			oids[i] = uint32(i)
		}

		RadixSort(keys, oids, width, radix)

		type kv struct {
			k   uint64
			oid uint32
		}
		want := make([]kv, n)
		for i := range want {
			want[i] = kv{orig[i], uint32(i)}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].k < want[j].k })
		for i := 0; i < n; i++ {
			if keys[i] != want[i].k {
				t.Fatalf("width %d radix %d n %d: keys[%d] = %d, oracle %d",
					width, radix, n, i, keys[i], want[i].k)
			}
			if oids[i] != want[i].oid {
				t.Fatalf("width %d radix %d n %d: oids[%d] = %d, stable oracle %d",
					width, radix, n, i, oids[i], want[i].oid)
			}
		}
	})
}
