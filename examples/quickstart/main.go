// Quickstart: multi-column sorting with and without code massaging.
//
// Two encoded columns — a 12-bit order date and a 17-bit price — are
// sorted lexicographically, column-at-a-time and then with massaging,
// searched two ways: the library default (Options.Rho = 0), which
// stops after ρ = 0.1 % of the best plan's estimated time (the paper's
// threshold) and at this size ends at column-at-a-time, and the
// clock-free search mcsd runs (Rho -1), which stitches the two columns
// into one 29-bit key sorted in a single round. The example prints all
// three plans and their times, verifies the permutations agree, and
// exits non-zero if the clock-free plan keeps two rounds.
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
	fmt.Printf("%-17s plan %-30s  %8.2f ms\n", "column-at-a-time:",
		off.Plan, float64(off.Timings.Total().Microseconds())/1000)

	// With code massaging: the planner searches for a better plan, under
	// the library's default ρ and without a clock. Every order must agree
	// with the baseline on every (date, price) pair.
	var on *mcs.Result
	for _, search := range []struct {
		label string
		rho   float64
	}{{"massaging, ρ 0.1%", 0}, {"massaging, Rho -1", -1}} {
		if on, err = mcs.Sort(cols, &mcs.Options{Rho: search.rho}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-17s plan %-30s  %8.2f ms (%.2fx)\n", search.label+":",
			on.Plan, float64(on.Timings.Total().Microseconds())/1000,
			float64(off.Timings.Total())/float64(on.Timings.Total()))
		for i := range on.Perm {
			a, b := off.Perm[i], on.Perm[i]
			if dates[a] != dates[b] || prices[a] != prices[b] {
				log.Fatalf("%s: order mismatch at position %d", search.label, i)
			}
		}
	}
	fmt.Printf("orders agree across %d rows; %d tie groups\n", n, len(on.Groups)-1)
	if len(on.Plan.Rounds) > 1 {
		log.Fatalf("the clock-free search kept %d rounds; want the 29-bit key in one", len(on.Plan.Rounds))
	}
}
