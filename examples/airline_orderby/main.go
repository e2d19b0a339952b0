// Airline ORDER BY: the real-workload query Q1 of the paper's Table 5 —
//
//	SELECT OriginAirport, DollarCred, FarePerMile FROM Ticket
//	WHERE OriginStateName = 'Texas'
//	ORDER BY DollarCred, FarePerMile
//
// — run through the full column-store pipeline: ByteSlice filter scan,
// plan search, and the massaged multi-column sort, which reads the sort
// columns straight from their ByteSlices. The 1-bit credibility flag
// and the 17-bit fare stitch into a single 18-bit key, eliminating a
// round.
//
//	go run ./examples/airline_orderby
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/colstore"
)

func main() {
	const n = 200_000
	rng := rand.New(rand.NewSource(7))

	// Build the Ticket relation (Table 4's schema, synthetic rows).
	tbl := colstore.NewTable("ticket", n)
	states := make([]uint64, n)
	cred := make([]uint64, n)
	fares := make([]uint64, n)
	for i := 0; i < n; i++ {
		states[i] = uint64(rng.Intn(52))
		cred[i] = uint64(rng.Intn(2))
		fares[i] = uint64(rng.Intn(1 << 17))
	}
	for _, c := range []*colstore.Column{
		colstore.FromCodes("OriginStateName", 6, states),
		colstore.FromCodes("DollarCred", 1, cred),
		colstore.FromCodes("FarePerMile", 17, fares),
	} {
		if err := tbl.Add(c); err != nil {
			log.Fatal(err)
		}
	}

	const texas = 43 // the state's dictionary code
	q := colstore.Query{
		ID:       "real.q1",
		SortCols: []colstore.SortCol{{Name: "DollarCred"}, {Name: "FarePerMile"}},
		Filters:  []colstore.Filter{{Col: "OriginStateName", Op: colstore.EQ, Const: texas}},
	}

	off, err := colstore.Run(tbl, q, colstore.Options{Massaging: false})
	if err != nil {
		log.Fatal(err)
	}
	on, err := colstore.Run(tbl, q, colstore.Options{Massaging: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("rows after filter: %d of %d\n", on.Rows, n)
	fmt.Printf("without massaging: plan %-28s mcs %8.2f ms\n",
		off.Plan, float64(off.Timing.MCS.Total().Microseconds())/1000)
	fmt.Printf("with massaging:    plan %-28s mcs %8.2f ms (%.2fx)\n",
		on.Plan, float64(on.Timing.MCS.Total().Microseconds())/1000,
		float64(off.Timing.MCS.Total())/float64(on.Timing.MCS.Total()))
	fmt.Printf("breakdown (on): scan %v, plan search %v, aggregate %v\n",
		on.Timing.FilterScan.Round(1e4), on.Timing.PlanSearch.Round(1e4),
		on.Timing.Aggregate.Round(1e4))
	fmt.Printf("first groups (DollarCred, FarePerMile): ")
	for g := 0; g < 3 && g < len(on.GroupKeys); g++ {
		fmt.Printf("%v ", on.GroupKeys[g])
	}
	fmt.Println()
}
