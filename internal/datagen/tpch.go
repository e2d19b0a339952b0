package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/table"
)

// TPCHConfig controls the TPC-H-shaped WideTable generator.
type TPCHConfig struct {
	// SF is the scale factor: it sets the *domains* (key cardinalities,
	// as in the TPC-H spec), so encoded widths grow with SF exactly as
	// they would with dbgen data.
	SF int
	// Rows is the number of lineitem-grain WideTable rows to
	// materialize (a sample of the SF's full fact table, so the suite
	// runs at laptop scale; pass 6_000_000×SF for full scale).
	Rows int
	// Skew applies zipf(1) frequencies to foreign-key and attribute
	// draws — the "TPC-H skew" dataset of the paper.
	Skew bool
	Seed int64
}

// TPCH generates a lineitem-grain WideTable carrying every column the
// nine multi-column-sorting TPC-H queries touch. Dimension attributes
// are generated per dimension row and expanded through foreign keys, so
// functional dependencies (o_orderkey → o_orderdate, c_custkey →
// c_name, …) hold exactly as in real data — they are what makes later
// sort rounds cheap or free, so they matter for reproduction fidelity.
// It fails only on a key domain that does not fit 32 bits (an SF above
// 2,863).
func TPCH(cfg TPCHConfig) (*table.Table, error) {
	if cfg.SF < 1 {
		cfg.SF = 1
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 60_000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Domain cardinalities per the TPC-H spec at this SF.
	nOrders := 1_500_000 * cfg.SF
	nCust := 150_000 * cfg.SF
	nParts := 200_000 * cfg.SF
	nSupp := 10_000 * cfg.SF
	const nDates = 2_406 // 1992-01-01 .. 1998-08-02
	const nNations = 25
	const nYears = 7

	// Only a bounded number of dimension rows can be referenced by a
	// Rows-sized sample; generate just the referenced pool but keep the
	// key *codes* spread over the full SF-sized domain so key widths
	// match dbgen's encodings.
	poolOrders := minInt(nOrders, cfg.Rows)
	poolCust := minInt(nCust, maxInt(cfg.Rows/4, 1))
	poolParts := minInt(nParts, cfg.Rows)
	poolSupp := minInt(nSupp, cfg.Rows)

	// Dimension attributes. An order's year is functionally dependent
	// on its date, and a customer's name, phone, address and comment are
	// its row number, so none of those is stored.
	oKey, err := sparseKeys(rng, nOrders, poolOrders)
	if err != nil {
		return nil, err
	}
	oDate := attr(poolOrders, drawFn(rng, nDates, cfg.Skew))
	oPrice := attr(poolOrders, priceDraw(rng, 100, 500_000, cfg.Skew))
	oCust := attr(poolOrders, drawFn(rng, poolCust, cfg.Skew))

	cKey, err := sparseKeys(rng, nCust, poolCust)
	if err != nil {
		return nil, err
	}
	cBal := attr(poolCust, priceDraw(rng, -99_999, 999_999, cfg.Skew))
	cNation := attr(poolCust, drawFn(rng, nNations, cfg.Skew))
	cSegment := attr(poolCust, drawFn(rng, 5, cfg.Skew))

	pKey, err := sparseKeys(rng, nParts, poolParts)
	if err != nil {
		return nil, err
	}
	pBrand := attr(poolParts, drawFn(rng, 25, cfg.Skew))
	pType := attr(poolParts, drawFn(rng, 150, cfg.Skew))
	pSize := attr(poolParts, drawFn(rng, 50, cfg.Skew))

	// No column reads the supplier keys, but their permutation's draws
	// keep their place in the stream.
	if _, err := sparseKeys(rng, nSupp, 0); err != nil {
		return nil, err
	}
	sBal := attr(poolSupp, priceDraw(rng, -99_999, 999_999, cfg.Skew))
	sNation := attr(poolSupp, drawFn(rng, nNations, cfg.Skew))

	// Fact-grain foreign keys: roughly 4 lineitems per order. A
	// lineitem's customer is read through its order's o_custref.
	n := cfg.Rows
	orderRef := make([]uint32, n)
	partRef := make([]uint32, n)
	suppRef := make([]uint32, n)
	drawOrder := drawFn(rng, poolOrders, cfg.Skew)
	drawPart := drawFn(rng, poolParts, cfg.Skew)
	drawSupp := drawFn(rng, poolSupp, cfg.Skew)
	for i := range orderRef {
		if i%4 == 0 {
			orderRef[i] = uint32(drawOrder(i))
		} else {
			orderRef[i] = orderRef[i-1] // cluster lineitems per order
		}
		partRef[i] = uint32(drawPart(i))
		suppRef[i] = uint32(drawSupp(i))
	}
	custRow := func(i int) uint64 { return uint64(oCust[orderRef[i]]) }
	viaCust := func(vals []uint32) func(int) uint64 {
		return func(i int) uint64 { return uint64(vals[oCust[orderRef[i]]]) }
	}

	return addColumns(table.New("tpch_wide", n), []spec{
		// Lineitem-grain columns, drawn row by row as they are added.
		{"l_returnflag", 2, drawFn(rng, 3, cfg.Skew)},
		{"l_linestatus", 1, drawFn(rng, 2, cfg.Skew)},
		{"l_quantity", 6, drawFn(rng, 50, cfg.Skew)},
		{"l_extendedprice", 21, priceDraw(rng, 90_000, 2_000_000, cfg.Skew)},
		{"l_discount", 4, drawFn(rng, 11, cfg.Skew)},
		{"l_tax", 4, drawFn(rng, 9, cfg.Skew)},
		{"l_shipdate", bits(nDates), drawFn(rng, nDates, cfg.Skew)},
		{"l_year", 3, drawFn(rng, nYears, cfg.Skew)},

		{"l_orderkey", bits(nOrders), via(oKey, orderRef)},
		{"o_orderdate", bits(nDates), via(oDate, orderRef)},
		{"o_year", 3, func(i int) uint64 { return uint64(oDate[orderRef[i]] / 366) }},
		{"o_totalprice", 21, via(oPrice, orderRef)},
		{"o_shippriority", 1, func(int) uint64 { return 0 }},

		{"c_custkey", bits(nCust), viaCust(cKey)},
		{"c_name", bits(poolCust), custRow},
		{"c_acctbal", 21, viaCust(cBal)},
		{"c_phone", bits(poolCust), custRow},
		{"n_name", 5, viaCust(cNation)},
		{"c_address", bits(poolCust), custRow},
		{"c_comment", bits(poolCust), custRow},
		{"c_mktsegment", 3, viaCust(cSegment)},
		{"cust_nation", 5, viaCust(cNation)},

		{"p_partkey", bits(nParts), via(pKey, partRef)},
		{"p_brand", 5, via(pBrand, partRef)},
		{"p_type", 8, via(pType, partRef)},
		{"p_size", 6, via(pSize, partRef)},

		{"s_name", bits(poolSupp), func(i int) uint64 { return uint64(suppRef[i]) }},
		{"s_acctbal", 21, via(sBal, suppRef)},
		{"supp_nation", 5, via(sNation, suppRef)},
	})
}

// sparseKeys returns the keys of a dimension's rows 0..pool-1: unique
// codes spread over a domain-sized space, so key-column widths match
// the full-scale domain. Row r's key is entry r (cyclically) of a
// random permutation of min(domain, 2^22) slots, scaled up to the
// domain. The permutation takes math/rand's Perm draws, one Intn(i+1)
// per slot in order, but holds 32-bit entries; a domain whose keys do
// not fit 32 bits is refused.
func sparseKeys(rng *rand.Rand, domain, pool int) ([]uint32, error) {
	if domain < 1 || uint64(domain) > 1<<32 {
		return nil, fmt.Errorf("datagen: key domain %d outside 1..2^32", domain)
	}
	perm := make([]uint32, minInt(domain, 1<<22))
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = uint32(i)
	}
	scale := uint32(domain / len(perm))
	keys := make([]uint32, pool)
	for r := range keys {
		keys[r] = perm[r%len(perm)] * scale
	}
	return keys, nil
}

// priceDraw returns scaled-decimal codes over [lo, hi] (in cents); the
// encoded width is the caller's concern (range-encoded, per Lee et
// al.'s encoding the paper builds on).
func priceDraw(rng *rand.Rand, lo, hi int, skewed bool) func(int) uint64 {
	span := hi - lo + 1
	if skewed {
		z := newZipf(rng, span)
		return func(int) uint64 { return uint64(z.next()) }
	}
	return func(int) uint64 { return uint64(rng.Intn(span)) }
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
