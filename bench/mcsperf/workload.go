package main

import (
	"math"
	"math/rand"

	"repro/internal/server"
)

// Fixed set-up shared by every workload. Plan choice must not depend
// on the machine, so every search runs with the builtin cost model, no
// wall-clock cutoff (Rho < 0) and a counted plan budget.
const (
	tableRows = 1 << 19
	searchRho = -1
	maxPlans  = 8192
	warmupOps = 5 // run and discarded before the first timed op
	pageRows  = 100
	topkPages = 512 // twice the server's default 256-entry plan cache
)

// path is the call path a workload's caller takes into the system.
type path int

const (
	pathLib   path = iota // engine.RunContext, in process
	pathServe             // client -> HTTP -> server.Server
	pathShard             // client -> HTTP -> shard.Coordinator -> HTTP -> shards
)

// workload is one permanent benchmark workload: a query shape, the
// topology it runs through, and how many closed-loop callers drive it.
type workload struct {
	name    string
	why     string
	skew    bool // zipf-skewed table (tpch_skew) instead of uniform (tpch_wide)
	path    path
	clients int // closed-loop callers; each sends its next query when the previous returns
	workers int // per-query engine workers
	shards  int
	paged   bool // op i asks for page pages[i%topkPages] of the result
	req     server.QueryRequest

	// Ops per second of -seconds: how many timed ops an untraced run
	// issues, and how many traced ops a traced run. Sized on the
	// reference machine so that either phase takes about -seconds there.
	rate, tracedRate float64
}

// opCount turns -seconds into the number of ops a phase issues. A run
// issues a fixed number of ops, not as many as fit a time window, so
// that two commits do the same work on the same inputs and memory,
// which grows with every op a server retains, is read at the same
// point.
func opCount(rate, seconds float64) int {
	return max(int(math.Round(rate*seconds)), 1)
}

func cols(names ...string) []server.SortColReq {
	out := make([]server.SortColReq, len(names))
	for i, n := range names {
		out[i] = server.SortColReq{Name: n}
	}
	return out
}

var workloads = []*workload{
	{
		name: "lib_wide_unique",
		why:  "high-cardinality 5-column, 90-bit, multi-round sort called in process: mergesort round 0, mcsort lookup and group sorts and massage do the work; planner, server, client and shard are bypassed",
		path: pathLib, clients: 1, workers: 2, rate: 6, tracedRate: 1,
		req: server.QueryRequest{
			Table: "tpch_wide", ID: "lib_wide_unique", Kind: "orderby",
			SortCols: []server.SortColReq{
				{Name: "o_totalprice", Desc: true}, {Name: "o_orderdate"},
				{Name: "c_name"}, {Name: "c_custkey"}, {Name: "l_orderkey"},
			},
			Filters: []server.FilterReq{{Col: "l_shipdate", Op: "le", Const: 2300}},
			Agg:     &server.AggReq{Kind: "sum", Col: "l_quantity"},
		},
	},
	{
		name: "lib_ties",
		why:  "18-bit one-round GROUP BY on zipf-skewed data, nearly all rows tied: the same mergesort and mcsort code runs on code compares, tie stretches, the group scan and aggregation",
		skew: true, path: pathLib, clients: 1, workers: 2, rate: 5, tracedRate: 1,
		req: server.QueryRequest{
			Table: "tpch_skew", ID: "lib_ties", Kind: "groupby",
			SortCols: cols("supp_nation", "cust_nation", "l_year", "p_brand"),
			Agg:      &server.AggReq{Kind: "sum", Col: "l_extendedprice"},
		},
	},
	{
		name: "serve_topk_cold",
		why:  "paged top-100 window query over HTTP; 512 plan-cache keys cycle through a 256-entry cache, so every query pays a cold plan search: planner and server job overhead dominate, full merges are bypassed",
		path: pathServe, clients: 2, workers: 1, paged: true, rate: 12, tracedRate: 1.5,
		req: server.QueryRequest{
			Table: "tpch_wide", ID: "serve_topk_cold", Kind: "partitionby",
			SortCols: cols("supp_nation", "cust_nation", "p_brand", "o_orderdate"),
			Window:   &server.WindowReq{OrderCol: "l_extendedprice", Desc: true},
		},
	},
	{
		name: "shard3_window_full",
		why:  "unlimited window query through a coordinator over 3 shards, plan caches warm: fan-out, the slowest shard, the cross-shard merge and two JSON hops of a full result dominate; planner is bypassed",
		path: pathShard, clients: 1, workers: 1, shards: 3, rate: 2, tracedRate: 0.5,
		req: server.QueryRequest{
			Table: "tpch_wide", ID: "shard3_window_full", Kind: "partitionby",
			SortCols: cols("supp_nation", "l_year"),
			Window:   &server.WindowReq{OrderCol: "l_extendedprice", Desc: true},
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pageOrder is the seeded order in which a paged workload visits its
// pages: a permutation, so no page repeats within topkPages ops.
func pageOrder(seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(topkPages)
}

// request is the query op i sends. Only paged workloads vary by op.
func (w *workload) request(i int, pages []int) server.QueryRequest {
	req := w.req
	req.Workers = w.workers
	if w.paged {
		limit := pageRows
		req.Limit = &limit
		req.Offset = pageRows * pages[i%len(pages)]
	}
	return req
}
