package datagen

import (
	"math/rand"
	"testing"

	"repro/internal/column"
	"repro/internal/table"
	"repro/internal/testutil"
)

func mustCol(t *testing.T, tbl *table.Table, name string) *column.Column {
	t.Helper()
	c, err := testutil.Column(tbl.ByteSlice(name))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestUniformDomainAndDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	col := Uniform(rng, 50000, 17, 1<<13)
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, c := range col.Codes {
		seen[c] = true
	}
	// 50k draws over 8192 values: expect nearly all values hit.
	if len(seen) < 8000 || len(seen) > 8192 {
		t.Errorf("distinct = %d, want ≈ 8192", len(seen))
	}
	// Values must spread over the full 17-bit domain, not just the low
	// 13 bits (the paper's "uniformly distributed on [0, 2^w-1]").
	hi := 0
	for c := range seen {
		if c >= 1<<16 {
			hi++
		}
	}
	if hi < len(seen)/4 {
		t.Errorf("only %d of %d values in the top half of the domain", hi, len(seen))
	}
}

func TestUniformNarrowWidth(t *testing.T) {
	// Footnote 3: when w < 13, use 2^w distinct values.
	rng := rand.New(rand.NewSource(2))
	col := Uniform(rng, 20000, 6, 1<<13)
	seen := map[uint64]bool{}
	for _, c := range col.Codes {
		if c >= 64 {
			t.Fatalf("code %d exceeds 6-bit domain", c)
		}
		seen[c] = true
	}
	if len(seen) != 64 {
		t.Errorf("distinct = %d, want 64", len(seen))
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	col := ZipfColumn(rng, 100000, 16, 1000)
	counts := map[uint64]int{}
	for _, c := range col.Codes {
		counts[c]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	// zipf(≈1) over 1000 values: the hottest value takes a large share,
	// far beyond the uniform 1/1000.
	if max < 100000/20 {
		t.Errorf("hottest value has %d of 100000 rows; not skewed", max)
	}
}

func TestTPCHSchemaAndDependencies(t *testing.T) {
	tbl, err := TPCH(TPCHConfig{SF: 1, Rows: 20000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.N != 20000 {
		t.Fatalf("rows = %d", tbl.N)
	}
	for _, name := range []string{
		"l_returnflag", "l_linestatus", "l_shipdate", "l_orderkey",
		"o_orderdate", "o_totalprice", "o_shippriority", "c_custkey",
		"c_name", "c_acctbal", "c_phone", "n_name", "c_address",
		"c_comment", "p_brand", "p_type", "p_size", "p_partkey",
		"s_name", "s_acctbal", "supp_nation", "cust_nation",
		"c_mktsegment", "l_extendedprice", "l_quantity", "o_year", "l_year",
	} {
		c, err := testutil.Column(tbl.ByteSlice(name))
		if err != nil {
			t.Fatalf("missing column %s", name)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Functional dependency: the same l_orderkey must always carry the
	// same o_orderdate (WideTable = materialized join).
	ok := mustCol(t, tbl, "l_orderkey").Codes
	od := mustCol(t, tbl, "o_orderdate").Codes
	dateOf := map[uint64]uint64{}
	for i := range ok {
		if prev, seen := dateOf[ok[i]]; seen && prev != od[i] {
			t.Fatalf("o_orderdate not functionally dependent on l_orderkey at row %d", i)
		}
		dateOf[ok[i]] = od[i]
	}
	// Key widths reflect the SF-sized domain, not the sampled rows.
	if w := mustCol(t, tbl, "l_orderkey").Width; w != column.WidthFor(1_500_000) {
		t.Errorf("l_orderkey width %d, want %d", w, column.WidthFor(1_500_000))
	}
}

func TestTPCHScaleGrowsWidths(t *testing.T) {
	sf1, err := TPCH(TPCHConfig{SF: 1, Rows: 5000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sf10, err := TPCH(TPCHConfig{SF: 10, Rows: 5000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	w1 := mustCol(t, sf1, "c_custkey").Width
	w10 := mustCol(t, sf10, "c_custkey").Width
	if w10 <= w1 {
		t.Errorf("c_custkey width must grow with SF: %d vs %d", w1, w10)
	}
}

func TestTPCHSkewVariant(t *testing.T) {
	tbl, err := TPCH(TPCHConfig{SF: 1, Rows: 50000, Skew: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	for _, c := range mustCol(t, tbl, "l_shipdate").Codes {
		counts[c]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	if max < 50000/50 {
		t.Errorf("skewed l_shipdate not skewed: max frequency %d", max)
	}
}

func TestTPCDSSchema(t *testing.T) {
	tbl, err := TPCDS(TPCDSConfig{SF: 1, Rows: 10000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"i_item_sk", "i_category", "i_class", "i_brand", "i_manufact_id",
		"s_store_sk", "s_state", "s_company_id", "d_year", "d_moy",
		"d_qoy", "ss_sales_price", "ss_quantity", "ss_net_profit",
	} {
		if _, err := tbl.ByteSlice(name); err != nil {
			t.Errorf("missing column %s", name)
		}
	}
	// d_moy functionally depends on the date dimension draw only
	// through d_year consistency: same item always has same category.
	cat := mustCol(t, tbl, "i_category").Codes
	item := mustCol(t, tbl, "i_item_sk").Codes
	catOf := map[uint64]uint64{}
	for i := range item {
		if prev, seen := catOf[item[i]]; seen && prev != cat[i] {
			t.Fatalf("i_category not dependent on item at row %d", i)
		}
		catOf[item[i]] = cat[i]
	}
}

func TestAirlineSchemas(t *testing.T) {
	ticket, err := AirlineTicket(AirlineConfig{Rows: 5000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	market, err := AirlineMarket(AirlineConfig{Rows: 5000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"ItinID", "Year", "Quarter", "OriginAirportID", "OriginCountry",
		"OriginStateName", "RoundTrip", "DollarCred", "FarePerMile",
		"RPCarrier", "Passengers", "Distance", "DistanceGroup", "ItinGeoType",
	} {
		if _, err := ticket.ByteSlice(name); err != nil {
			t.Errorf("ticket missing %s", name)
		}
	}
	for _, name := range []string{
		"ItinID", "MktID", "Year", "Quarter", "OriginAirportID",
		"DestAirportID", "OpCarrier", "Passengers", "MktFare",
		"MktDistance", "MktDistanceGroup", "MktMilesFlown", "ItinGeoType",
	} {
		if _, err := market.ByteSlice(name); err != nil {
			t.Errorf("market missing %s", name)
		}
	}
}

func TestDistinctValuesUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := distinctValues(rng, 20, 5000)
	if len(vals) != 5000 {
		t.Fatalf("got %d values", len(vals))
	}
	seen := map[uint64]bool{}
	for _, v := range vals {
		if seen[v] {
			t.Fatal("duplicate value")
		}
		if v >= 1<<20 {
			t.Fatalf("value %d outside 20-bit domain", v)
		}
		seen[v] = true
	}
	// Requesting more values than the domain holds must clamp.
	vals = distinctValues(rng, 3, 100)
	if len(vals) != 8 {
		t.Errorf("3-bit domain: got %d values, want 8", len(vals))
	}
}

// TestSparseKeys: the 32-bit permutation takes exactly math/rand's Perm
// draws, so a seed gives the same keys and leaves the stream where
// Perm leaves it; a pool wider than the permutation wraps; and a key
// domain beyond 32 bits is refused, by TPCH too.
func TestSparseKeys(t *testing.T) {
	for _, domain := range []int{1, 2, 7, 1000} {
		got, err := sparseKeys(rand.New(rand.NewSource(11)), domain, 2*domain)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		want := rng.Perm(domain)
		for r, k := range got {
			if int(k) != want[r%domain] {
				t.Fatalf("domain %d: key %d = %d, want %d", domain, r, k, want[r%domain])
			}
		}
		after := rand.New(rand.NewSource(11))
		if _, err := sparseKeys(after, domain, 0); err != nil || after.Int63() != rng.Int63() {
			t.Fatalf("domain %d: the stream after sparseKeys differs from the one after Perm", domain)
		}
	}
	if _, err := sparseKeys(rand.New(rand.NewSource(1)), 1<<32+1, 1); err == nil {
		t.Error("a key domain of 2^32+1 accepted")
	}
	if _, err := TPCH(TPCHConfig{SF: 2864, Rows: 100}); err == nil {
		t.Error("TPCH at SF 2864 (order keys beyond 32 bits) accepted")
	}
}
