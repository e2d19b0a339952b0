package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/byteslice"
	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/massage"
	"repro/internal/mcsort"
	"repro/internal/mergesort"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/table"
)

// The traced run measures every layer from outside: after an op has
// run whole, its stages are replayed one at a time through each
// layer's public entry point, on the inputs the op would have handed
// that layer, with a span around every call. Nothing inside the
// program is instrumented beyond the obs counters it already keeps.

// tracer is the extra state a traced run needs on top of the env.
type tracer struct {
	e    *env
	rec  *recorder
	wire *countingTransport

	// The engine-level replay target: the full table, or shard 0's slice.
	tbl  *table.Table
	opts engine.Options // pinned options; ignored by cold (paged) workloads

	coldSrv  *server.Server   // pathServe: a second server whose plan cache never saw the op
	shardCls []*client.Client // pathShard: one direct client per shard
	pin      []int            // pathShard: the coordinator's column order

	layers map[string][]float64 // per traced op, by metric name
}

// countingTransport counts response body bytes.
type countingTransport struct {
	rt    http.RoundTripper
	bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// counter reads one of the program's obs counters by its registered
// name (NewCounter returns the existing counter).
func counter(name string) int64 { return obs.NewCounter(name).Value() }

func newTracer(ctx context.Context, e *env) (*tracer, error) {
	t := &tracer{e: e, rec: newRecorder(), tbl: e.tbl, opts: e.opts, layers: map[string][]float64{}}
	var err error
	if e.cl != nil {
		t.wire = &countingTransport{rt: e.transport}
		if e.cl, err = e.newClient(e.front.url, t.wire); err != nil {
			return nil, err
		}
	}
	switch e.w.path {
	case pathServe:
		reg, err := registryOf(e.tbl)
		if err != nil {
			return nil, err
		}
		if t.coldSrv, err = server.New(serverConfig(reg, 1)); err != nil {
			return nil, err
		}
	case pathShard:
		res, err := e.coord.Run(ctx, e.w.request(0, e.pages))
		if err != nil {
			return nil, err
		}
		t.pin = res.ColOrder
		t.tbl = e.shardTbls[0]
		if t.opts, err = pinPlan(ctx, t.tbl, e.q, e.w.workers, t.pin); err != nil {
			return nil, err
		}
		if t.shardCls, err = e.shardClients(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// shardClients is one client per shard, talking to it directly.
func (e *env) shardClients() ([]*client.Client, error) {
	var cls []*client.Client
	for _, end := range e.shardEnds {
		cl, err := e.newClient(end.url, e.transport)
		if err != nil {
			return nil, err
		}
		cls = append(cls, cl)
	}
	return cls, nil
}

func (t *tracer) close() error {
	if t.coldSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return t.coldSrv.Shutdown(ctx)
}

func (t *tracer) add(name string, v float64) { t.layers[name] = append(t.layers[name], v) }

// medians reduces every layer metric to its median over the traced ops.
func (t *tracer) medians(into map[string]float64) {
	for name, vs := range t.layers {
		into[name] = median(vs)
	}
}

// firstError is the error of the first op that failed. A traced run
// stops being a measurement once a replay fails, so it is fatal.
func firstError(samples []sample) error {
	for _, s := range samples {
		if s.err != nil {
			return fmt.Errorf("traced op %d: %w", s.op, s.err)
		}
	}
	return nil
}

// layer times one call into a layer as a span. It collects garbage
// first, under a span of its own, so that a call is not charged for
// sweeping up after the replay before it.
func (t *tracer) layer(name string, parent, opID int, fn func() error) (time.Duration, error) {
	gc := t.rec.begin("harness.gc", parent, opID)
	runtime.GC()
	t.rec.end(gc)
	return t.rec.time(name, parent, opID, fn)
}

// runTraced is the traced variant of the timed phase. It first runs ops
// ops whole with tracing off: that gives the untraced latency the
// overhead is measured against and the allocation figures of ops alone.
// Then it runs the next ops ops one at a time with obs on, each
// followed by its replay. Per-layer values are medians over the traced
// ops.
func (e *env) runTraced(ctx context.Context, first, ops int, measured map[string]float64) (st loadStats, spans []span, err error) {
	t, err := newTracer(ctx, e)
	if err != nil {
		return st, nil, err
	}
	defer func() {
		if cerr := t.close(); err == nil {
			err = cerr
		}
	}()

	obs.Disable()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain := runSerial(first, ops, func(i int) sample { return e.timedOp(ctx, i) })
	runtime.ReadMemStats(&after)
	runtime.GC()
	var settled runtime.MemStats
	runtime.ReadMemStats(&settled)

	obs.Enable()
	hits0, miss0 := t.planCacheStats()
	pinHits0, pinMiss0 := t.pinCacheStats()
	traced := runSerial(first+ops, ops, func(i int) sample { return t.replay(ctx, i) })
	hits1, miss1 := t.planCacheStats()
	pinHits1, pinMiss1 := t.pinCacheStats()
	if err := firstError(traced); err != nil {
		return st, nil, err
	}

	plainSt, err := e.summarize(plain)
	if err != nil {
		return st, nil, err
	}
	tracedSt, err := e.summarize(traced)
	if err != nil {
		return st, nil, err
	}
	st = loadStats{
		attempted:  plainSt.attempted + tracedSt.attempted,
		errored:    plainSt.errored + tracedSt.errored,
		mismatched: plainSt.mismatched + tracedSt.mismatched,
	}

	t.medians(measured)
	const mb = 1 << 20
	measured["runtime.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / mb / float64(ops)
	measured["runtime.gc_pause_ms_total"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	measured["runtime.heap_retained_mb"] = (float64(settled.HeapAlloc) - float64(before.HeapAlloc)) / mb
	measured["server.plancache_hit_share"] = share(hits1-hits0, hits1-hits0+miss1-miss0)
	measured["shard.pin_cache_hit_share"] = share(pinHits1-pinHits0, pinHits1-pinHits0+pinMiss1-pinMiss0)
	measured["load.latency_p50_ms"] = tracedSt.p50
	measured["load.latency_tail_ms"] = tracedSt.tail
	measured["load.tail_pct"] = tracedSt.tailPct
	measured["load.samples"] = float64(len(traced))
	if plainSt.p50 > 0 {
		measured["load.trace_overhead_share"] = tracedSt.p50/plainSt.p50 - 1
	}
	measured["load.failed_share"] = share(st.failed(), st.attempted)
	measured["load.verify_mismatches"] = float64(st.mismatched)
	return st, t.rec.spans, nil
}

// runSerial is runLoad with a single caller: the traced run needs ops
// one at a time so that a replay never overlaps another op.
func runSerial(first, ops int, op func(i int) sample) []sample {
	samples := make([]sample, ops)
	for n := range samples {
		samples[n] = op(first + n)
	}
	return samples
}

func (t *tracer) planCacheStats() (hits, misses int64) {
	srvs := t.e.shardSrvs
	if t.e.srv != nil {
		srvs = []*server.Server{t.e.srv}
	}
	for _, s := range srvs {
		h, m, _ := s.PlanCache().Stats()
		hits, misses = hits+h, misses+m
	}
	return hits, misses
}

func (t *tracer) pinCacheStats() (hits, misses int64) {
	if t.e.coord == nil {
		return 0, 0
	}
	hits, misses, _ = t.e.coord.PlanCache().Stats()
	return hits, misses
}

// replay runs op i whole under a root span, then replays its stages.
func (t *tracer) replay(ctx context.Context, i int) sample {
	e, rec := t.e, t.rec
	root := rec.begin("op", -1, i)
	defer func() {
		rec.end(root)
		t.add("load.harness_self_ms", ms(selfTime(rec.spans, root)))
	}()

	// The op itself, as its caller runs it.
	whole := "client.query"
	if e.w.path == pathLib {
		whole = "engine.run"
	}
	ovc0, p3, pme := counter("mergesort.ovc_merges"), counter("mergesort.phase3_merge_passes"), counter("mergesort.parallel_merge_elements")
	retries0 := counter("client.retries")
	var wire0 int64
	if t.wire != nil {
		wire0 = t.wire.bytes.Load()
	}
	var s sample
	if _, err := t.layer(whole, root, i, func() error {
		s = e.timedOp(ctx, i)
		return s.err
	}); err != nil {
		return s
	}
	t.add("mergesort.ovc_merges", float64(counter("mergesort.ovc_merges")-ovc0))
	t.add("mergesort.phase3_merge_passes", float64(counter("mergesort.phase3_merge_passes")-p3))
	t.add("mergesort.parallel_merge_elements", float64(counter("mergesort.parallel_merge_elements")-pme))

	req := e.w.request(i, e.pages)
	engineRun, err := t.replayEngine(ctx, root, i, req)
	if err != nil {
		s.err = err
		return s
	}
	if e.w.path == pathLib {
		return s
	}

	// The server under the client: the cold twin (serve) or shard 0.
	srv, sreq := t.coldSrv, req
	if e.w.path == pathShard {
		srv, sreq = e.shardSrvs[0], t.subRequest(req)
	}
	var qr *server.QueryResult
	serverRun, err := t.layer("server.run", root, i, func() (err error) {
		qr, err = srv.Run(ctx, sreq)
		return err
	})
	if err != nil {
		s.err = err
		return s
	}
	t.add("server.run_ms", ms(serverRun))
	t.add("server.queue_wait_ms", float64(qr.QueueWaitNS)/1e6)
	t.add("server.exec_ms", float64(qr.ExecNS)/1e6)
	t.add("server.self_ms", ms(serverRun-engineRun))

	behindWire := serverRun
	if e.w.path == pathShard {
		if behindWire, err = t.replayShards(ctx, root, i, req); err != nil {
			s.err = err
			return s
		}
	}
	t.add("client.query_ms", ms(s.lat))
	t.add("client.wire_ms", ms(s.lat-behindWire))
	t.add("client.result_mb", float64(t.wire.bytes.Load()-wire0)/1e6)
	t.add("client.retries", float64(counter("client.retries")-retries0))
	return s
}

// subRequest is the sub-query the coordinator sends each shard for an
// unlimited query: the same request with the column order pinned.
func (t *tracer) subRequest(req server.QueryRequest) server.QueryRequest {
	req.ColOrder = t.pin
	return req
}

// replayShards times the coordinator in process and then each shard
// directly, all at once like the coordinator's own fan-out, so that
// the slowest shard is measured under the same contention.
func (t *tracer) replayShards(ctx context.Context, root, i int, req server.QueryRequest) (time.Duration, error) {
	e, rec := t.e, t.rec
	fan0 := counter("shard.fanout_subqueries")
	run, err := t.layer("shard.run", root, i, func() error {
		_, err := e.coord.Run(ctx, req)
		return err
	})
	if err != nil {
		return 0, err
	}
	t.add("shard.fanout_subqueries", float64(counter("shard.fanout_subqueries")-fan0))

	sub := t.subRequest(req)
	fan := rec.begin("shard.subqueries", root, i)
	durs := make([]time.Duration, len(t.shardCls))
	errs := make([]error, len(t.shardCls))
	var wg sync.WaitGroup
	for si, cl := range t.shardCls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			durs[si], errs[si] = rec.time("shard.subquery", fan, i, func() error {
				_, err := cl.Query(ctx, sub)
				return err
			})
		}()
	}
	wg.Wait()
	rec.end(fan)
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	slowest := slices.Max(durs)
	t.add("shard.run_ms", ms(run))
	t.add("shard.subquery_max_ms", ms(slowest))
	t.add("shard.subquery_sum_ms", ms(total(durs)))
	t.add("shard.gather_self_ms", ms(run-slowest))
	return run, nil
}

// replayEngine replays the stages of one engine.RunContext call —
// scan, lookup, plan search, massage, round-0 sort, the whole
// multi-column sort — and then the call itself, and returns the
// call's duration.
func (t *tracer) replayEngine(ctx context.Context, root, i int, req server.QueryRequest) (time.Duration, error) {
	e, tbl, q := t.e, t.tbl, t.e.q
	workers := e.w.workers
	opts := t.opts
	cut := 0
	if req.Limit != nil {
		// A paged op is cold: it runs with the options the server builds,
		// plan search included.
		cut = req.Offset + *req.Limit
		opts = engine.Options{
			Massaging: true, Model: server.BuiltinModel(), Rho: searchRho, MaxPlans: maxPlans,
			Workers: workers, Limit: req.Limit, Offset: req.Offset,
		}
	}

	var scan time.Duration
	if len(q.Filters) > 0 {
		var err error
		if scan, err = t.layer("byteslice.scan", root, i, func() error { return scanFilters(tbl, q) }); err != nil {
			return 0, err
		}
	}
	var inputs []massage.Input
	materialize, err := t.layer("engine.materialize", root, i, func() (err error) {
		inputs, err = engine.MaterializeSortInputsContext(ctx, tbl, q, workers)
		return err
	})
	if err != nil {
		return 0, err
	}
	rows := len(inputs[0].Codes)
	lookup := max(materialize-scan, 0)
	t.add("byteslice.scan_ms", ms(scan))
	t.add("byteslice.lookup_ms", ms(lookup))
	if lookup > 0 {
		t.add("byteslice.lookup_mb_per_s", float64(rows*len(inputs)*8)/1e6/lookup.Seconds())
	}

	var search time.Duration
	var choice planner.Choice
	if opts.PlanOverride != nil {
		choice = *opts.PlanOverride
	} else {
		s, err := t.searchFor(tbl, q, rows, cut)
		if err != nil {
			return 0, err
		}
		costed0 := counter("planner.plans_costed")
		if search, err = t.layer("planner.search", root, i, func() (err error) {
			choice, err = planner.ROGAContext(ctx, s)
			return err
		}); err != nil {
			return 0, err
		}
		t.add("planner.plans_costed", float64(counter("planner.plans_costed")-costed0))
	}
	t.add("planner.search_ms", ms(search))

	ordered := inOrder(inputs, choice.ColOrder)
	var keys0 []uint64
	moved0 := counter("massage.bytes_moved")
	massageRun, err := t.layer("massage.run", root, i, func() error {
		prog, err := massage.Compile(ordered, choice.Plan.Widths())
		if err != nil {
			return err
		}
		if cut > 0 {
			keys0, err = prog.RunRoundParallelContext(ctx, ordered, rows, 0, workers)
			return err
		}
		keys, err := prog.RunParallelContext(ctx, ordered, rows, workers)
		if err == nil {
			keys0 = keys[0]
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	t.add("massage.run_ms", ms(massageRun))
	t.add("massage.bytes_moved", float64(counter("massage.bytes_moved")-moved0))

	// Round 0 on the massaged keys: the bounded-heap top-K for a limited
	// op, the full parallel sort otherwise. Both sort keys0 in place.
	oids := identity(rows)
	bank := choice.Plan.Rounds[0].Bank
	params := mergesort.DefaultParams(bank / 8)
	var round0 time.Duration
	if cut > 0 {
		round0, err = t.layer("mergesort.topk", root, i, func() error {
			_, err := mergesort.TopKContext(ctx, bank, keys0, oids, cut, params, workers)
			return err
		})
		t.add("mergesort.topk_ms", ms(round0))
	} else {
		round0, err = t.layer("mergesort.sort_r0", root, i, func() error {
			return mergesort.ParallelSortWithParamsContext(ctx, bank, keys0, oids, params, workers)
		})
		t.add("mergesort.sort_r0_ms", ms(round0))
		t.add("mergesort.sort_r0_ns_per_row", float64(round0)/float64(max(rows, 1)))
	}
	if err != nil {
		return 0, err
	}

	var mres *mcsort.Result
	execute, err := t.layer("mcsort.execute", root, i, func() (err error) {
		mres, err = mcsort.ExecuteContext(ctx, ordered, choice.Plan, mcsort.Options{Workers: workers, LimitRows: cut})
		return err
	})
	if err != nil {
		return 0, err
	}
	t.add("mcsort.execute_ms", ms(execute))
	t.add("mcsort.massage_ms", ms(mres.Timings.Massage))
	t.add("mcsort.sort_ms", ms(mres.Timings.Sort))
	t.add("mcsort.lookup_ms", ms(mres.Timings.Lookup))
	t.add("mcsort.scan_ms", ms(mres.Timings.Scan))
	t.add("mcsort.self_ms", ms(execute-massageRun-round0))
	t.add("mcsort.group_sorts", float64(laterRoundSorts(mres)))

	var eres *engine.Result
	run, err := t.layer("engine.run", root, i, func() (err error) {
		eres, err = engine.RunContext(ctx, tbl, q, opts)
		return err
	})
	if err != nil {
		return 0, err
	}
	t.add("engine.run_ms", ms(run))
	t.add("engine.aggregate_ms", ms(eres.Timing.Aggregate))
	t.add("engine.postsort_ms", ms(eres.Timing.PostSort))
	t.add("engine.self_ms", ms(run-scan-lookup-search-execute))
	t.add("engine.unattributed_share", 1-float64(eres.Timing.Total())/float64(run))
	t.add("engine.pred_over_meas", eres.CostRatio())
	return run, nil
}

// inOrder is the plan's view of the sort columns: position c holds
// clause column order[c].
func inOrder(inputs []massage.Input, order []int) []massage.Input {
	out := make([]massage.Input, len(inputs))
	for c, src := range order {
		out[c] = inputs[src]
	}
	return out
}

func identity(n int) []uint32 {
	oids := make([]uint32, n)
	for i := range oids {
		oids[i] = uint32(i)
	}
	return oids
}

func total(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}

// laterRoundSorts counts the group sorts of every round after the
// first, which is always one full sort.
func laterRoundSorts(r *mcsort.Result) int {
	n := 0
	for _, round := range r.Rounds[1:] {
		n += round.NSort
	}
	return n
}

// scanFilters evaluates q's filters the way the engine does: one
// ByteSlice scan each, ANDed, then the selected row ids.
func scanFilters(tbl *table.Table, q engine.Query) error {
	var acc *byteslice.BitVector
	for _, f := range q.Filters {
		bs, err := tbl.ByteSlice(f.Col)
		if err != nil {
			return err
		}
		var bv *byteslice.BitVector
		if f.Between {
			bv, err = bs.ScanBetween(f.Lo, f.Hi)
		} else {
			bv, err = bs.Scan(f.Op, f.Const)
		}
		if err != nil {
			return err
		}
		if acc == nil {
			acc = bv
		} else {
			acc.And(bv)
		}
	}
	_ = acc.Rows()
	return nil
}

// searchFor builds the plan search the engine would build for q over
// rows filtered rows, cut at rank cut (0 = unlimited).
func (t *tracer) searchFor(tbl *table.Table, q engine.Query, rows, cut int) (*planner.Search, error) {
	st := costmodel.Stats{N: rows}
	if q.Window != nil {
		st.LimitRows = cut
	} else if !q.OrderByAgg {
		st.LimitGroups = cut
	}
	names := make([]string, 0, len(q.SortCols)+1)
	for _, sc := range q.SortCols {
		names = append(names, sc.Name)
	}
	if q.Window != nil {
		names = append(names, q.Window.OrderCol)
	}
	for _, name := range names {
		cs, err := tbl.Stats(name)
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, cs)
	}
	s := &planner.Search{Model: server.BuiltinModel(), Stats: st, Kind: q.Kind, Rho: searchRho, MaxPlans: maxPlans}
	if q.Window != nil {
		s.FixedTail = 1
	}
	return s, nil
}
