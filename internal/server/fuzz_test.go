package server

import (
	"encoding/json"
	"testing"
)

// FuzzQueryRequest fuzzes the strict JSON request decoder. Properties:
// never panic, accepted requests re-validate and re-encode losslessly,
// carry oids_only only on a window query, and acceptance implies the
// engine form is constructible.
func FuzzQueryRequest(f *testing.F) {
	seeds := []string{
		`{"table":"tpch_wide","kind":"orderby","sort_cols":[{"name":"l_returnflag"},{"name":"l_linestatus","desc":true}]}`,
		`{"table":"tpch_wide","kind":"groupby","sort_cols":[{"name":"p_brand"}],"agg":{"kind":"count"},"order_by_agg":true}`,
		`{"table":"ticket","kind":"partitionby","sort_cols":[{"name":"RPCarrier"}],"window":{"order_col":"FarePerMile","desc":true}}`,
		`{"table":"tpch_wide","kind":"orderby","sort_cols":[{"name":"a"}],"filters":[{"col":"l_shipdate","between":true,"lo":3,"hi":9},{"col":"p_size","op":"neq","const":15}]}`,
		`{"table":"tpch_wide","kind":"orderby","sort_cols":[{"name":"a"}],"workers":8,"max_bytes":1048576,"timeout_ms":500}`,
		`{"table":"t","kind":"sortby","sort_cols":[{"name":"a"}]}`,
		`{"table":"t","kind":"orderby","sort_cols":[],"bogus_field":1}`,
		`{"table":"t","kind":"orderby","sort_cols":[{"name":"a"}]}{"trailing":true}`,
		`{"table":"t","kind":"orderby","sort_cols":[{"name":"a"}],"filters":[{"col":"c","op":"eq","between":true}]}`,
		`not json at all`,
		``,
		`null`,
		`[]`,
		`{"workers":-1}`,
		`{"table":"ticket","kind":"partitionby","sort_cols":[{"name":"RPCarrier"}],"window":{"order_col":"FarePerMile"},"oids_only":true}`,
		`{"table":"tpch_wide","kind":"orderby","sort_cols":[{"name":"l_returnflag"}],"oids_only":true}`,
		`{"table":"tpch_wide","kind":"groupby","sort_cols":[{"name":"p_brand"}],"agg":{"kind":"count"},"oids_only":true}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseQueryRequest(data)
		if err != nil {
			if req != nil {
				t.Fatal("ParseQueryRequest returned both a request and an error")
			}
			return
		}
		// Accepted ⇒ validation is idempotent.
		if err := req.Validate(); err != nil {
			t.Fatalf("accepted request fails re-validation: %v", err)
		}
		// Accepted ⇒ oids_only only on a window query.
		if req.OidsOnly && req.Kind != "partitionby" {
			t.Fatalf("accepted oids_only on kind %q", req.Kind)
		}
		// Accepted ⇒ the engine form is constructible.
		if _, err := req.ToEngineQuery(); err != nil {
			t.Fatalf("accepted request fails engine conversion: %v", err)
		}
		// Accepted ⇒ re-encoding round-trips through the decoder.
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding accepted request: %v", err)
		}
		if _, err := ParseQueryRequest(enc); err != nil {
			t.Fatalf("re-encoded request rejected: %v\nencoding: %s", err, enc)
		}
	})
}
