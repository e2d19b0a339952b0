package datagen

import (
	"math/rand"

	"repro/internal/table"
)

// TPCDSConfig controls the TPC-DS-shaped WideTable generator.
type TPCDSConfig struct {
	SF   int
	Rows int
	Seed int64
}

// TPCDS generates a store_sales-grain WideTable carrying the columns of
// the four evaluated queries (Q36, Q53, Q67, Q89 — PARTITION BY window
// queries over item/date/store dimensions, the class the paper selects
// from the twelve eligible TPC-DS queries). It fails only on a key
// domain that does not fit 32 bits.
func TPCDS(cfg TPCDSConfig) (*table.Table, error) {
	if cfg.SF < 1 {
		cfg.SF = 1
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 60_000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	nItems := 18_000 * cfg.SF
	nStores := 12 * cfg.SF
	const nDates = 1_823 // 5 years of d_date_sk referenced by sales
	const nCategories = 10
	const nClasses = 100
	const nBrands = 714
	const nMoy = 12
	const nQoy = 4

	poolItems := minInt(nItems, cfg.Rows)
	iKey, err := sparseKeys(rng, nItems, poolItems)
	if err != nil {
		return nil, err
	}
	iCategory := attr(poolItems, drawFn(rng, nCategories, false))
	iClass := attr(poolItems, drawFn(rng, nClasses, false))
	iBrand := attr(poolItems, drawFn(rng, nBrands, false))
	iManufact := attr(poolItems, drawFn(rng, 1000, false))

	poolStores := maxInt(minInt(nStores*4, cfg.Rows), 4) // a few stores even at SF1
	sKey, err := sparseKeys(rng, maxInt(nStores, 4), poolStores)
	if err != nil {
		return nil, err
	}
	sState := attr(poolStores, drawFn(rng, 9, false))
	sCompany := attr(poolStores, drawFn(rng, 2, false))

	// The date dimension's attributes are functions of the date row.
	n := cfg.Rows
	itemRef := make([]uint32, n)
	storeRef := make([]uint32, n)
	dateRef := make([]uint32, n)
	for i := 0; i < n; i++ {
		itemRef[i] = uint32(rng.Intn(poolItems))
		storeRef[i] = uint32(rng.Intn(poolStores))
		dateRef[i] = uint32(rng.Intn(nDates))
	}

	return addColumns(table.New("tpcds_wide", n), []spec{
		{"i_item_sk", bits(nItems), via(iKey, itemRef)},
		{"i_category", bits(nCategories), via(iCategory, itemRef)},
		{"i_class", bits(nClasses), via(iClass, itemRef)},
		{"i_brand", bits(nBrands), via(iBrand, itemRef)},
		{"i_manufact_id", 10, via(iManufact, itemRef)},

		{"s_store_sk", bits(maxInt(nStores, 4)), via(sKey, storeRef)},
		{"s_state", 4, via(sState, storeRef)},
		{"s_company_id", 1, via(sCompany, storeRef)},

		{"d_year", 3, func(i int) uint64 { return uint64(dateRef[i] / 365) }},
		{"d_moy", 4, func(i int) uint64 { return uint64(dateRef[i] / 30 % nMoy) }},
		{"d_qoy", 2, func(i int) uint64 { return uint64(dateRef[i] / 91 % nQoy) }},

		// Sales-grain columns, drawn row by row as they are added.
		{"ss_sales_price", 20, priceDraw(rng, 0, 300_00, false)},
		{"ss_quantity", 7, drawFn(rng, 100, false)},
		{"ss_net_profit", 21, priceDraw(rng, -10_000_00, 10_000_00, false)},
	})
}
