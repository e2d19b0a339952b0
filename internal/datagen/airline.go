package datagen

import (
	"math/rand"

	"repro/internal/table"
)

// AirlineConfig controls the Airline Origin & Destination Survey
// generators (the paper's real dataset, Tables 4–5). The real 4 GB BTS
// download is not available offline; the generator reproduces the two
// relations' schemas with realistic cardinalities (≈450 US airports,
// ≈20 reporting carriers, quarters, distance groups, dollar-credibility
// flags, scaled-decimal fares), which determine the encoded widths the
// five evaluated queries sort.
type AirlineConfig struct {
	Rows int // rows per relation
	Seed int64
}

const (
	nAirports  = 450
	nCarriers  = 20
	nStates    = 52
	nCountries = 5
	nYears     = 22 // 1993..2014, the survey's span at publication time
	nQuarters  = 4
	nDistGroup = 12
	nGeoTypes  = 3
)

// AirlineTicket generates the Ticket relation of Table 4.
func AirlineTicket(cfg AirlineConfig) (*table.Table, error) {
	if cfg.Rows <= 0 {
		cfg.Rows = 60_000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Rows
	return addColumns(table.New("ticket", n), []spec{
		{"ItinID", bits(n), func(i int) uint64 { return uint64(i) }},
		{"Year", bits(nYears), drawFn(rng, nYears, false)},
		{"Quarter", 2, drawFn(rng, nQuarters, false)},
		{"OriginAirportID", bits(nAirports), drawFn(rng, nAirports, false)},
		{"OriginCountry", bits(nCountries), drawFn(rng, nCountries, false)},
		{"OriginStateName", bits(nStates), drawFn(rng, nStates, false)},
		{"RoundTrip", 1, drawFn(rng, 2, false)},
		{"DollarCred", 1, drawFn(rng, 2, false)},
		// Fare per mile in hundredths of a cent: heavily skewed in reality.
		{"FarePerMile", 17, priceDraw(rng, 0, 100_000, true)},
		{"RPCarrier", bits(nCarriers), drawFn(rng, nCarriers, false)},
		{"Passengers", 8, drawFn(rng, 200, true)},
		{"Distance", 13, drawFn(rng, 6_000, false)},
		{"DistanceGroup", bits(nDistGroup), drawFn(rng, nDistGroup, false)},
		{"ItinGeoType", 2, drawFn(rng, nGeoTypes, false)},
	})
}

// AirlineMarket generates the Market relation of Table 4.
func AirlineMarket(cfg AirlineConfig) (*table.Table, error) {
	if cfg.Rows <= 0 {
		cfg.Rows = 60_000
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	n := cfg.Rows
	return addColumns(table.New("market", n), []spec{
		{"ItinID", bits(n), func(i int) uint64 { return uint64(i) }},
		{"MktID", bits(2 * n), func(i int) uint64 { return uint64(2 * i) }},
		{"Year", bits(nYears), drawFn(rng, nYears, false)},
		{"Quarter", 2, drawFn(rng, nQuarters, false)},
		{"OriginAirportID", bits(nAirports), drawFn(rng, nAirports, false)},
		{"DestAirportID", bits(nAirports), drawFn(rng, nAirports, false)},
		{"OpCarrier", bits(nCarriers), drawFn(rng, nCarriers, false)},
		{"Passengers", 8, drawFn(rng, 200, true)},
		{"MktFare", 20, priceDraw(rng, 0, 800_000, true)},
		{"MktDistance", 13, drawFn(rng, 6_000, false)},
		{"MktDistanceGroup", bits(nDistGroup), drawFn(rng, nDistGroup, false)},
		{"MktMilesFlown", 13, drawFn(rng, 6_000, false)},
		{"ItinGeoType", 2, drawFn(rng, nGeoTypes, false)},
	})
}
