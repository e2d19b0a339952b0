package shard

// FuzzShardMerge fuzzes the coordinator's trust boundary: the per-shard
// group-table run build (gather.buildRun) and the cross-shard merge
// behind it. Raw mode feeds arbitrary decoded bytes straight in — the merge
// must either reject them as errShardInvalid or produce a well-formed
// combined table, never panic or corrupt. Canon mode repairs the fuzz
// input into valid per-shard tables and then requires the full
// differential properties: mergeGroups equals a naive sort-and-combine
// reference, and the packed-64 and wide lexicographic merge paths
// produce the identical flat order.

import (
	"context"
	"errors"
	"slices"
	"sort"
	"testing"

	"repro/internal/column"
)

// decodeSpec derives a mergeSpec from the shape word: 1..3 columns of
// widths 2..8 bits, per-column descending flags, and a rotated (and
// possibly reversed) clause-to-sort-position permutation.
func decodeSpec(shape uint16) mergeSpec {
	m := int(shape)%3 + 1
	sp := mergeSpec{order: make([]int, m), widths: make([]int, m), desc: make([]bool, m)}
	for c := 0; c < m; c++ {
		sp.widths[c] = 2 + int(shape>>(2+uint(c)*3))%7
		sp.desc[c] = shape>>(11+uint(c))&1 == 1
	}
	rot := int(shape>>14) % m
	for i := 0; i < m; i++ {
		sp.order[i] = (i + rot) % m
	}
	if shape>>13&1 == 1 {
		for i, j := 0, m-1; i < j; i, j = i+1, j-1 {
			sp.order[i], sp.order[j] = sp.order[j], sp.order[i]
		}
	}
	return sp
}

// decodeParts slices the fuzz bytes into 1..4 per-shard group tables.
// canon repairs each part into a valid table: codes masked to their
// widths, groups sorted by massaged key, duplicate keys dropped.
func decodeParts(data []byte, sp mergeSpec, canon, withAux bool) []groupsPart {
	m := len(sp.order)
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nParts := int(next())%4 + 1
	parts := make([]groupsPart, nParts)
	for pi := range parts {
		cnt := int(next()) % 8
		p := groupsPart{}
		for g := 0; g < cnt; g++ {
			vec := make([]uint64, m)
			for c := 0; c < m; c++ {
				v := uint64(next())
				if canon {
					v &= column.Mask(sp.widths[c])
				}
				vec[c] = v
			}
			p.keys = append(p.keys, vec)
			p.agg = append(p.agg, uint64(next())%100+1)
			if withAux {
				p.aux = append(p.aux, uint64(next())%1000)
			}
		}
		if canon && len(p.keys) > 0 {
			idx := make([]int, len(p.keys))
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(x, y int) bool {
				return slices.Compare(massagedVec(sp, p.keys[idx[x]]), massagedVec(sp, p.keys[idx[y]])) < 0
			})
			q := groupsPart{}
			for _, i := range idx {
				if len(q.keys) > 0 && slices.Equal(q.keys[len(q.keys)-1], p.keys[i]) {
					continue
				}
				q.keys = append(q.keys, p.keys[i])
				q.agg = append(q.agg, p.agg[i])
				if withAux {
					q.aux = append(q.aux, p.aux[i])
				}
			}
			p = q
		}
		parts[pi] = p
	}
	return parts
}

// referenceMerge is the naive oracle: every group of every part, sorted
// by massaged key, equal clause keys combined by summing.
func referenceMerge(parts []groupsPart, sp mergeSpec, withAux bool) *groupsPart {
	type row struct {
		vec      []uint64
		agg, aux uint64
	}
	var rows []row
	for _, p := range parts {
		for g := range p.keys {
			r := row{vec: p.keys[g], agg: p.agg[g]}
			if withAux {
				r.aux = p.aux[g]
			}
			rows = append(rows, r)
		}
	}
	sort.SliceStable(rows, func(x, y int) bool {
		return slices.Compare(massagedVec(sp, rows[x].vec), massagedVec(sp, rows[y].vec)) < 0
	})
	out := &groupsPart{}
	for _, r := range rows {
		if len(out.keys) > 0 && slices.Equal(out.keys[len(out.keys)-1], r.vec) {
			last := len(out.agg) - 1
			out.agg[last] += r.agg
			if withAux {
				out.aux[last] += r.aux
			}
			continue
		}
		out.keys = append(out.keys, r.vec)
		out.agg = append(out.agg, r.agg)
		if withAux {
			out.aux = append(out.aux, r.aux)
		}
	}
	return out
}

// boundarySpec is sp with its widths stretched so that the key and the
// index of a table of n rows take exactly total bits: the key bits
// spread evenly over the columns, the first column taking the rest.
// Every column is then at least 19 bits wide, so codes that fit sp's
// widths fit these, and keep their order under each column's
// direction.
func boundarySpec(sp mergeSpec, n, total int) mergeSpec {
	m := len(sp.order)
	key := total - sp.forRows(n).idxBits
	widths := make([]int, m)
	for c := range widths {
		widths[c] = key / m
	}
	widths[0] += key % m
	sp.widths = widths
	return sp.forRows(n)
}

func FuzzShardMerge(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(1), []byte{2, 3, 1, 2, 3, 2, 4, 5, 6, 3, 1, 1, 9})
	f.Add(uint16(0x2ffe), []byte("two parts, colliding keys, colliding keys across parts"))
	f.Add(uint16(0xffff), []byte{4, 7, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 7, 7, 7, 7, 7})
	f.Add(uint16(0x1234), []byte{1, 6, 255, 254, 253, 252, 251, 250, 1, 2, 3, 4, 5, 6})

	f.Fuzz(func(t *testing.T, shape uint16, data []byte) {
		sp := decodeSpec(shape)
		withAux := shape>>1&1 == 1
		canon := shape&1 == 1
		parts := decodeParts(data, sp, canon, withAux)
		// Every input runs under its decoded widths and again with the
		// widths stretched so that key and index take 62, 63 or 64 bits:
		// the last packed word, and the first code vector.
		checkGroupMerge(t, parts, sp, canon, withAux)
		checkGroupMerge(t, parts, boundarySpec(sp, groupRows(parts), 62+int(shape>>2)%3), canon, withAux)
	})
}

// checkGroupMerge is one FuzzShardMerge case: the merge of parts under
// sp, at workers 1 and 2 and in every key form the spec fits.
func checkGroupMerge(t *testing.T, parts []groupsPart, sp mergeSpec, canon, withAux bool) {
	t.Helper()
	ctx := context.Background()
	merged, err := mergeGroups(ctx, parts, sp, 2)
	if err != nil {
		if canon {
			t.Fatalf("canonical parts rejected: %v", err)
		}
		if !errors.Is(err, errShardInvalid) {
			t.Fatalf("raw parts rejected with a non-taxonomy error: %v", err)
		}
		return
	}

	// Whatever survived must be a well-formed combined table: strict
	// ascending massaged order, lengths aligned.
	if len(merged.agg) != len(merged.keys) || (merged.aux != nil && len(merged.aux) != len(merged.keys)) {
		t.Fatalf("merged table misaligned: %d keys, %d agg, %d aux", len(merged.keys), len(merged.agg), len(merged.aux))
	}
	var prev []uint64
	for g, vec := range merged.keys {
		cur := massagedVec(sp, vec)
		if g > 0 && slices.Compare(prev, cur) >= 0 {
			t.Fatalf("merged group %d out of order", g)
		}
		prev = cur
	}

	if !canon {
		return
	}
	want := referenceMerge(parts, sp, withAux)
	forms := bothForms(sp, groupRows(parts))
	if forms["packed"].wide {
		delete(forms, "packed")
	}
	flat := make(map[string][]uint32)
	for form, fsp := range forms {
		for _, workers := range []int{1, 2} {
			merged, err := mergeGroups(ctx, parts, fsp, workers)
			if err != nil {
				t.Fatalf("%s keys: canonical parts rejected: %v", form, err)
			}
			if len(merged.keys) != len(want.keys) {
				t.Fatalf("%s keys, workers %d: merged %d groups, reference has %d", form, workers, len(merged.keys), len(want.keys))
			}
			for g := range want.keys {
				if !slices.Equal(merged.keys[g], want.keys[g]) || merged.agg[g] != want.agg[g] {
					t.Fatalf("%s keys, workers %d: group %d = (%v, %d), reference (%v, %d)",
						form, workers, g, merged.keys[g], merged.agg[g], want.keys[g], want.agg[g])
				}
				if withAux && merged.aux[g] != want.aux[g] {
					t.Fatalf("%s keys, workers %d: group %d aux = %d, reference %d", form, workers, g, merged.aux[g], want.aux[g])
				}
			}
		}

		// Path equivalence: the packed and code-vector merges must order
		// the same valid runs identically.
		g := groupGather(parts, fsp)
		runs, err := groupRuns(ctx, g, parts)
		if err != nil {
			t.Fatalf("%s keys: canonical part rejected: %v", form, err)
		}
		if flat[form], err = mergedIndexes(ctx, runs, fsp, 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	if packed, ok := flat["packed"]; ok && !slices.Equal(packed, flat["wide"]) {
		t.Fatalf("flat order diverges: packed %v, wide %v", packed, flat["wide"])
	}
}
