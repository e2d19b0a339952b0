package datagen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/table"
)

// goldenRows is the row count the golden digests are taken at.
const goldenRows = 1 << 15

// tableDigest hashes every column of tbl in name order: its name, width
// and row count, every code (the codes and the width fix every plane
// byte, padding included), and its statistics profile.
func tableDigest(t *testing.T, tbl *table.Table) string {
	t.Helper()
	h := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	h.Write([]byte(tbl.Name))
	put(uint64(tbl.N))
	for _, name := range tbl.Columns() {
		bs, err := tbl.ByteSlice(name)
		if err != nil {
			t.Fatal(err)
		}
		st, err := tbl.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name))
		put(uint64(bs.Width))
		put(uint64(bs.N))
		for i := 0; i < bs.N; i++ {
			put(bs.Lookup(i))
		}
		put(uint64(st.Width))
		for _, d := range st.PrefixDistinct {
			put(math.Float64bits(d))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedTablesGolden pins every generated table byte for byte:
// a change to a generator's draw order, a width or a statistics profile
// changes a digest. The digests were taken when the generators still
// built each column as a code array.
func TestGeneratedTablesGolden(t *testing.T) {
	cases := []struct {
		name string
		gen  func() (*table.Table, error)
		want string
	}{
		{"tpch", func() (*table.Table, error) {
			return TPCH(TPCHConfig{SF: 1, Rows: goldenRows, Seed: 7})
		}, "1b3875f274dbed246f760fd5e5379c532442bda02a6d86889177ff71793c3d17"},
		{"tpch_skew", func() (*table.Table, error) {
			return TPCH(TPCHConfig{SF: 1, Rows: goldenRows, Skew: true, Seed: 8})
		}, "22d2f32554452dcb6ac0b47db9db825fe14358be7056941c498f04a46f8aed62"},
		{"tpcds", func() (*table.Table, error) {
			return TPCDS(TPCDSConfig{SF: 1, Rows: goldenRows, Seed: 9})
		}, "a01cc34531662ef1006e93c94674029e7fd4d1c6116e8bb3d715adedd39f3c95"},
		{"ticket", func() (*table.Table, error) {
			return AirlineTicket(AirlineConfig{Rows: goldenRows, Seed: 10})
		}, "d76b3f4b2a69b2713b47837109fae0438cc0386e7d3949fdc932cf59de25dd9e"},
		{"market", func() (*table.Table, error) {
			return AirlineMarket(AirlineConfig{Rows: goldenRows, Seed: 10})
		}, "cd2f081dc2dc85c104236a1562961a3634c302b3be9d7c8a60fabefe624456db"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tbl, err := c.gen()
			if err != nil {
				t.Fatal(err)
			}
			if got := tableDigest(t, tbl); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}
