package a

import "math/rand/v2"

// RollV2 draws from math/rand/v2's global source, which cannot be
// seeded at all.
func RollV2() int { return rand.IntN(6) } // want `math/rand/v2\.IntN draws from the auto-seeded global source`

// SeededV2 draws through a pinned-seed PCG generator: clean.
func SeededV2(seed uint64) int {
	r := rand.New(rand.NewPCG(seed, seed))
	return r.IntN(6)
}
