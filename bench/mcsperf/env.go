package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/client"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/table"
)

// env is one workload's running system: the generated table, whatever
// servers the workload's path goes through, and the caller's handle on
// it. Everything in it is built by setup and torn down by close.
type env struct {
	w     *workload
	pages []int
	tbl   *table.Table // the full table
	q     engine.Query

	// pathLib: the pinned engine options every op runs with.
	opts engine.Options

	// pathServe: srv. pathShard: shardSrvs behind coord. front is the
	// HTTP endpoint the caller's client talks to.
	srv       *server.Server
	shardTbls []*table.Table
	shardSrvs []*server.Server
	shardEnds []*endpoint
	coord     *shard.Coordinator
	front     *endpoint
	transport *http.Transport
	cl        *client.Client

	// corrupt, when set, damages op i's result before it is
	// checksummed: the self-tests and -corrupt use it to show that a
	// wrong answer fails the run.
	corrupt func(op int, out *output)

	refs map[string]*reference // the oracle's answers, by column order
}

// endpoint is an in-process HTTP server on a loopback port.
type endpoint struct {
	url  string
	srv  *http.Server
	done chan struct{} // closed when Serve has returned
}

func listen(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	e := &endpoint{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		_ = e.srv.Serve(ln) // always ErrServerClosed: close is the only way out
	}()
	return e, nil
}

func (e *endpoint) close(ctx context.Context) error {
	err := e.srv.Shutdown(ctx)
	<-e.done
	return err
}

func serverConfig(reg *server.Registry, maxConcurrent int) server.Config {
	return server.Config{
		Registry:      reg,
		Model:         server.BuiltinModel(),
		Rho:           searchRho,
		MaxPlans:      maxPlans,
		MaxConcurrent: maxConcurrent,
	}
}

func registryOf(t *table.Table) (*server.Registry, error) {
	reg := server.NewRegistry()
	if err := reg.Register(t); err != nil {
		return nil, err
	}
	return reg, nil
}

// pinPlan runs q once with a full plan search and returns options that
// replay the chosen plan, so later calls pay no search.
func pinPlan(ctx context.Context, t *table.Table, q engine.Query, workers int, fixedOrder []int) (engine.Options, error) {
	opts := engine.Options{
		Massaging:     true,
		Model:         server.BuiltinModel(),
		Rho:           searchRho,
		MaxPlans:      maxPlans,
		Workers:       workers,
		FixedColOrder: fixedOrder,
	}
	res, err := engine.RunContext(ctx, t, q, opts)
	if err != nil {
		return opts, fmt.Errorf("pinning the plan: %w", err)
	}
	opts.PlanOverride = &planner.Choice{ColOrder: res.ColOrder, Plan: res.Plan, Est: res.PredictedMCS}
	return opts, nil
}

// setup builds the workload's system from the seed and runs the
// warm-up ops: everything that happens before the first timed op. On
// error whatever was started is shut down again.
func setup(ctx context.Context, w *workload, rows int, seed int64) (e *env, err error) {
	e = &env{w: w, pages: pageOrder(seed), refs: map[string]*reference{}}
	defer func() {
		if err != nil {
			_ = e.close()
			e = nil
		}
	}()

	e.tbl, err = datagen.TPCH(datagen.TPCHConfig{SF: 1, Rows: rows, Seed: seed, Skew: w.skew})
	if err != nil {
		return e, err
	}
	e.tbl.Name = w.req.Table
	if e.q, err = w.req.ToEngineQuery(); err != nil {
		return e, err
	}
	// Registration builds every column's ByteSlice layout and statistics.
	reg, err := registryOf(e.tbl)
	if err != nil {
		return e, err
	}

	switch w.path {
	case pathLib:
		if e.opts, err = pinPlan(ctx, e.tbl, e.q, w.workers, nil); err != nil {
			return e, err
		}
	case pathServe:
		if e.srv, err = server.New(serverConfig(reg, w.clients)); err != nil {
			return e, err
		}
		if e.front, err = listen(e.srv.Handler()); err != nil {
			return e, err
		}
	case pathShard:
		var urls []string
		for _, r := range shard.Ranges(e.tbl.N, w.shards) {
			if err := ctx.Err(); err != nil {
				return e, err
			}
			st, err := shard.Slice(e.tbl, r)
			if err != nil {
				return e, err
			}
			sreg, err := registryOf(st)
			if err != nil {
				return e, err
			}
			srv, err := server.New(serverConfig(sreg, 1))
			if err != nil {
				return e, err
			}
			e.shardTbls = append(e.shardTbls, st)
			e.shardSrvs = append(e.shardSrvs, srv)
			end, err := listen(srv.Handler())
			if err != nil {
				return e, err
			}
			e.shardEnds = append(e.shardEnds, end)
			urls = append(urls, end.url)
		}
		e.coord, err = shard.New(shard.Config{
			Registry: reg,
			Shards:   urls,
			Model:    server.BuiltinModel(),
			Rho:      searchRho,
			MaxPlans: maxPlans,
			Client:   client.Config{PollInterval: time.Millisecond},
		})
		if err != nil {
			return e, err
		}
		if e.front, err = listen(e.coord.Handler()); err != nil {
			return e, err
		}
	}
	if e.front != nil {
		e.transport = &http.Transport{MaxIdleConnsPerHost: 4}
		if e.cl, err = e.newClient(e.front.url, e.transport); err != nil {
			return e, err
		}
	}

	for i := 0; i < warmupOps; i++ {
		if _, _, err := e.do(ctx, i); err != nil {
			return e, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return e, nil
}

func (e *env) newClient(url string, rt http.RoundTripper) (*client.Client, error) {
	return client.New(client.Config{
		BaseURL:      url,
		HTTPClient:   &http.Client{Transport: rt},
		PollInterval: time.Millisecond,
	})
}

// close shuts every server down and waits for their goroutines.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if e.transport != nil {
		e.transport.CloseIdleConnections()
	}
	if e.front != nil {
		errs = append(errs, e.front.close(ctx))
	}
	if e.coord != nil {
		errs = append(errs, e.coord.Shutdown(ctx))
	}
	if e.srv != nil {
		errs = append(errs, e.srv.Shutdown(ctx))
	}
	for _, end := range e.shardEnds {
		errs = append(errs, end.close(ctx))
	}
	for _, srv := range e.shardSrvs {
		errs = append(errs, srv.Shutdown(ctx))
	}
	return errors.Join(errs...)
}

// do runs op i the way the workload's caller would and returns its
// data and the wall time the caller waited. The clock covers only the
// call; building the request and unpacking the result are outside it.
func (e *env) do(ctx context.Context, i int) (output, time.Duration, error) {
	var out output
	var lat time.Duration
	if e.w.path == pathLib {
		start := time.Now()
		res, err := engine.RunContext(ctx, e.tbl, e.q, e.opts)
		lat = time.Since(start)
		if err != nil {
			return out, lat, err
		}
		out = engineOutput(res)
	} else {
		req := e.w.request(i, e.pages)
		start := time.Now()
		res, err := e.cl.Query(ctx, req)
		lat = time.Since(start)
		if err != nil {
			return out, lat, err
		}
		out = serverOutput(res)
	}
	if e.corrupt != nil {
		e.corrupt(i, &out)
	}
	return out, lat, nil
}

// want is the checksum op i's result must have had, given the column
// order it reported. The oracle runs once per column order: pinned and
// cached plans only ever report one.
func (e *env) want(i int, colOrder []int) (uint64, error) {
	key := fmt.Sprint(colOrder)
	ref := e.refs[key]
	if ref == nil {
		var err error
		if ref, err = buildReference(e.tbl, e.q, colOrder); err != nil {
			return 0, err
		}
		e.refs[key] = ref
	}
	if e.w.paged {
		return ref.pageSum(pageRows*e.pages[i%len(e.pages)], pageRows), nil
	}
	return ref.sum, nil
}
