// Window RANK: a PARTITION BY query in the shape of the paper's
// real-workload Q2 (Table 5) —
//
//	SELECT OriginAirportID, DistanceGroup, Passengers,
//	       RANK() OVER (PARTITION BY OriginAirportID, DistanceGroup
//	                    ORDER BY Passengers)
//	FROM Ticket WHERE ItinGeoType = 1
//
// PARTITION BY leaves the partition columns' order free (like GROUP BY)
// but the window's ORDER BY column must stay the last sort key; the
// planner honors that while massaging the partition columns' bits.
//
//	go run ./examples/window_rank
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/colstore"
)

func main() {
	const n = 150_000
	rng := rand.New(rand.NewSource(11))

	tbl := colstore.NewTable("ticket", n)
	airport := make([]uint64, n)
	distGrp := make([]uint64, n)
	pax := make([]uint64, n)
	geo := make([]uint64, n)
	for i := 0; i < n; i++ {
		airport[i] = uint64(rng.Intn(450))
		distGrp[i] = uint64(rng.Intn(12))
		pax[i] = uint64(rng.Intn(200))
		geo[i] = uint64(rng.Intn(3))
	}
	for _, c := range []*colstore.Column{
		colstore.FromCodes("OriginAirportID", 9, airport),
		colstore.FromCodes("DistanceGroup", 4, distGrp),
		colstore.FromCodes("Passengers", 8, pax),
		colstore.FromCodes("ItinGeoType", 2, geo),
	} {
		if err := tbl.Add(c); err != nil {
			log.Fatal(err)
		}
	}

	q := colstore.Query{
		ID:   "rank",
		Kind: 2, // PartitionBy
		SortCols: []colstore.SortCol{
			{Name: "OriginAirportID"}, {Name: "DistanceGroup"},
		},
		Window:  &colstore.Window{OrderCol: "Passengers"},
		Filters: []colstore.Filter{{Col: "ItinGeoType", Op: colstore.EQ, Const: 1}},
	}

	off, err := colstore.Run(tbl, q, colstore.Options{Massaging: false})
	if err != nil {
		log.Fatal(err)
	}
	on, err := colstore.Run(tbl, q, colstore.Options{Massaging: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ranked %d rows across partitions\n", on.Rows)
	fmt.Printf("P0:          plan %-40s mcs %7.2f ms\n",
		off.Plan, float64(off.Timing.MCS.Total().Microseconds())/1000)
	fmt.Printf("search pick: plan %-40s mcs %7.2f ms (%.2fx)\n",
		on.Plan, float64(on.Timing.MCS.Total().Microseconds())/1000,
		float64(off.Timing.MCS.Total())/float64(on.Timing.MCS.Total()))

	fmt.Println("first rows (airport, distgrp, passengers, rank):")
	for i := 0; i < 6 && i < len(on.RowOids); i++ {
		oid := on.RowOids[i]
		fmt.Printf("  %3d %2d %3d  rank %d\n",
			airport[oid], distGrp[oid], pax[oid], on.Ranks[i])
	}
}
