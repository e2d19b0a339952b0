// Quickstart: multi-column sorting with and without code massaging.
//
// Two encoded columns — a 12-bit order date and a 17-bit price — are
// sorted lexicographically. With massaging enabled the planner searches
// for at most ρ = 0.1 % of the best plan's estimated time (the paper's
// default, Options.Rho); at this size that ends at column-at-a-time,
// while an unbounded search (Rho < 0) stitches the two into one 29-bit
// key sorted in a single round. The example prints both plans, their
// times, and verifies the permutations agree.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/mcs"
)

func main() {
	const n = 1 << 18
	rng := rand.New(rand.NewSource(42))

	// Synthetic encoded columns: a 12-bit date (2.4k distinct days) and
	// a 17-bit price.
	dates := make([]uint64, n)
	prices := make([]uint64, n)
	for i := range dates {
		dates[i] = uint64(rng.Intn(2406))
		prices[i] = uint64(rng.Intn(1 << 17))
	}
	cols := []mcs.Column{
		{Codes: dates, Width: 12},
		{Codes: prices, Width: 17},
	}

	// Baseline: column-at-a-time (the paper's P0).
	off, err := mcs.Sort(cols, &mcs.Options{Massaging: mcs.Off})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("column-at-a-time: plan %-30s  %8.2f ms\n",
		off.Plan, float64(off.Timings.Total().Microseconds())/1000)

	// With code massaging: the planner searches for a better plan.
	on, err := mcs.Sort(cols, nil) // nil options = massaging on
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("code massaging:   plan %-30s  %8.2f ms (%.2fx)\n",
		on.Plan, float64(on.Timings.Total().Microseconds())/1000,
		float64(off.Timings.Total())/float64(on.Timings.Total()))

	// Both orders must agree on every (date, price) pair.
	for i := range on.Perm {
		a, b := off.Perm[i], on.Perm[i]
		if dates[a] != dates[b] || prices[a] != prices[b] {
			log.Fatalf("order mismatch at position %d", i)
		}
	}
	fmt.Printf("orders agree across %d rows; %d tie groups\n", n, len(on.Groups)-1)
}
