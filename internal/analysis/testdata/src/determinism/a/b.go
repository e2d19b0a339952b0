package a

import "math/rand"

// Roll draws from math/rand's global source, seeded at random per run.
func Roll() int { return rand.Intn(6) } // want `math/rand\.Intn draws from the auto-seeded global source`

// Shuffler hands out the global draw as a function value: still the
// global source.
func Shuffler() func(int, func(int, int)) {
	return rand.Shuffle // want `math/rand\.Shuffle draws from the auto-seeded global source`
}

// Seeded draws through a generator built from a pinned seed: the
// constructors and the generator's methods are clean.
func Seeded(seed int64, n int) []int {
	r := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(6)
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
