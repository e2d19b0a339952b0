// Package shard is the serving-topology layer of mcsd: a WideTable
// range-partitioned across N unmodified mcsd daemons, with a
// coordinator that fans each query out over the retrying client and
// merges the per-shard sorted results back into the single-node answer
// (docs/sharding.md).
//
// Range partitioning — shard i owns the contiguous rows
// [i·n/N, (i+1)·n/N) — is what makes the merge byte-identical to a
// single-node run rather than merely equivalent: the engine
// canonicalizes ties to ascending row oid, a shard's local oids map to
// global oids by adding the range base, and the coordinator's
// run-index-stable merge (shards in range order) therefore reproduces
// ascending-global-oid tie order without shipping any tie-break data.
// Hash partitioning would interleave oids and break that argument.
package shard

import (
	"fmt"

	"repro/internal/table"
)

// Range is a half-open row interval [Lo, Hi) of the full table.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of rows in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Ranges splits n rows into shards contiguous ranges, sizes differing
// by at most one row (shard i gets [i·n/N, (i+1)·n/N)). The same
// formula runs in the coordinator and in `mcsd -shard-index`, so both
// sides derive the identical partitioning from (n, shards) alone —
// nothing about the topology needs to travel on the wire.
func Ranges(n, shards int) []Range {
	if shards < 1 {
		shards = 1
	}
	rs := make([]Range, shards)
	for i := 0; i < shards; i++ {
		rs[i] = Range{Lo: i * n / shards, Hi: (i + 1) * n / shards}
	}
	return rs
}

// Slice materializes one shard's portion of t, the rows of r, with
// t.Slice. Widths are carried, not re-derived, so a shard whose local
// value range happens to be narrower still agrees with its peers (and
// with the coordinator) on every code's bit width — the merge keys
// depend on it.
func Slice(t *table.Table, r Range) (*table.Table, error) {
	if r.Lo < 0 || r.Hi > t.N || r.Lo > r.Hi {
		return nil, fmt.Errorf("shard: range [%d,%d) outside table %q of %d rows", r.Lo, r.Hi, t.Name, t.N)
	}
	return t.Slice(r.Lo, r.Hi), nil
}
