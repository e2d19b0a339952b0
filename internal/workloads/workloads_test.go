package workloads

import (
	"context"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/engine"
)

func TestAllQueriesExecuteBothModes(t *testing.T) {
	const rows = 8000
	tpch, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: rows, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tpchSkew, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: rows, Skew: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tpcds, err := datagen.TPCDS(datagen.TPCDSConfig{SF: 1, Rows: rows, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ticket, err := datagen.AirlineTicket(datagen.AirlineConfig{Rows: rows, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	market, err := datagen.AirlineMarket(datagen.AirlineConfig{Rows: rows, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	var items []Item
	items = append(items, TPCHQueries(tpch, "")...)
	items = append(items, TPCHQueries(tpchSkew, ".skew")...)
	items = append(items, TPCDSQueries(tpcds)...)
	items = append(items, AirlineQueries(ticket, market)...)

	if len(items) != 9+9+4+5 {
		t.Fatalf("expected 27 queries, have %d", len(items))
	}

	model := costmodel.Builtin()
	for _, item := range items {
		for _, massaging := range []bool{false, true} {
			res, err := engine.RunContext(context.Background(), item.Table, item.Query,
				engine.Options{Massaging: massaging, Model: model, Rho: 0.2})
			if err != nil {
				t.Fatalf("%s (massaging=%v): %v", item.ID, massaging, err)
			}
			if res.Rows == 0 {
				t.Errorf("%s: filter selected zero rows — bad constant for the generated domain", item.ID)
			}
			if item.Query.Window == nil && len(res.GroupKeys) == 0 && res.Rows > 0 {
				t.Errorf("%s: no groups", item.ID)
			}
			if item.Query.Window != nil && len(res.Ranks) != res.Rows {
				t.Errorf("%s: ranks %d != rows %d", item.ID, len(res.Ranks), res.Rows)
			}
		}
	}
}

// TestMassagingPreservesResults runs every query in both modes and
// compares the group aggregates (the fundamental correctness property:
// code massaging must not change query answers).
func TestMassagingPreservesResults(t *testing.T) {
	const rows = 6000
	tpch, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: rows, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.Builtin()
	for _, item := range TPCHQueries(tpch, "") {
		off, err := engine.RunContext(context.Background(), item.Table, item.Query, engine.Options{Massaging: false})
		if err != nil {
			t.Fatalf("%s off: %v", item.ID, err)
		}
		on, err := engine.RunContext(context.Background(), item.Table, item.Query,
			engine.Options{Massaging: true, Model: model, Rho: 0.2})
		if err != nil {
			t.Fatalf("%s on: %v", item.ID, err)
		}
		if len(off.GroupKeys) != len(on.GroupKeys) {
			t.Errorf("%s: group count differs %d vs %d", item.ID, len(off.GroupKeys), len(on.GroupKeys))
			continue
		}
		// Aggregate multiset must match; compare as sorted sums.
		var a, b uint64
		for g := range off.Aggregates {
			a += off.Aggregates[g]
			b += on.Aggregates[g]
		}
		if a != b {
			t.Errorf("%s: aggregate checksum differs", item.ID)
		}
	}
}

func TestRunQ13(t *testing.T) {
	tpch, err := datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: 10000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, massaging := range []bool{false, true} {
		res, err := RunQ13Context(context.Background(), tpch, massaging, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.CCount) == 0 {
			t.Fatal("no derived rows")
		}
		// Output must be ordered by custdist DESC, c_count DESC.
		for i := 1; i < len(res.CustDist); i++ {
			if res.CustDist[i-1] < res.CustDist[i] {
				t.Fatalf("custdist not descending at %d", i)
			}
			if res.CustDist[i-1] == res.CustDist[i] && res.CCount[i-1] < res.CCount[i] {
				t.Fatalf("c_count tie order wrong at %d", i)
			}
		}
		// custdist must sum to the number of distinct customers.
		var sum uint64
		for _, d := range res.CustDist {
			sum += d
		}
		if sum == 0 {
			t.Fatal("empty custdist")
		}
		// The derived MCS input must be tiny relative to the table —
		// the Figure 1 observation that Q13's MCS share is negligible.
		if res.MCSRows > 200 {
			t.Errorf("derived table unexpectedly large: %d", res.MCSRows)
		}
	}
}
