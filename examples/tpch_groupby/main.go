// TPC-H GROUP BY: a Q16-shaped aggregation —
//
//	SELECT p_brand, p_type, p_size, COUNT(*) FROM wide
//	WHERE p_size <> 15
//	GROUP BY p_brand, p_type, p_size
//	ORDER BY cnt DESC
//
// — over a generated WideTable. Because a GROUP BY imposes no column
// order, the planner is free to permute the three columns *and*
// repartition their 19 bits; here it typically stitches all three into
// one 19-bit key and sorts in a single 32-bit-bank round.
//
//	go run ./examples/tpch_groupby
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/colstore"
)

func main() {
	const n = 200_000
	rng := rand.New(rand.NewSource(20))

	tbl := colstore.NewTable("wide", n)
	brand := make([]uint64, n)
	ptype := make([]uint64, n)
	size := make([]uint64, n)
	for i := 0; i < n; i++ {
		brand[i] = uint64(rng.Intn(25))
		ptype[i] = uint64(rng.Intn(150))
		size[i] = uint64(rng.Intn(50))
	}
	for _, c := range []*colstore.Column{
		colstore.FromCodes("p_brand", 5, brand),
		colstore.FromCodes("p_type", 8, ptype),
		colstore.FromCodes("p_size", 6, size),
	} {
		if err := tbl.Add(c); err != nil {
			log.Fatal(err)
		}
	}

	q := colstore.Query{
		ID:   "q16",
		Kind: 1, // GroupBy: the planner may permute the columns
		SortCols: []colstore.SortCol{
			{Name: "p_brand"}, {Name: "p_type"}, {Name: "p_size"},
		},
		Filters:    []colstore.Filter{{Col: "p_size", Op: colstore.NEQ, Const: 15}},
		Agg:        &colstore.Agg{Kind: colstore.Count},
		OrderByAgg: true,
	}

	off, err := colstore.Run(tbl, q, colstore.Options{Massaging: false})
	if err != nil {
		log.Fatal(err)
	}
	on, err := colstore.Run(tbl, q, colstore.Options{Massaging: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("groups: %d (of %d filtered rows)\n", len(on.GroupKeys), on.Rows)
	fmt.Printf("P0:          plan %-38s mcs %7.2f ms\n",
		off.Plan, float64(off.Timing.MCS.Total().Microseconds())/1000)
	fmt.Printf("search pick: plan %-38s mcs %7.2f ms (%.2fx), column order %v\n",
		on.Plan, float64(on.Timing.MCS.Total().Microseconds())/1000,
		float64(off.Timing.MCS.Total())/float64(on.Timing.MCS.Total()),
		on.ColOrder)

	fmt.Println("top groups by count (brand, type, size -> count):")
	for g := 0; g < 5 && g < len(on.GroupKeys); g++ {
		fmt.Printf("  %v -> %d\n", on.GroupKeys[g], on.Aggregates[g])
	}
}
