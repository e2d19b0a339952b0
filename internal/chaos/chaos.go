// Package chaos is the seeded fault-storm scheduler: it drives the
// internal/faultinject registry probabilistically, so instead of one
// hand-placed hook per test, every pipeline site fires panics, delays,
// and forced cancellations at configured rates while concurrent
// clients hammer a live server. The storm invariants the battery
// asserts — no goroutine leaks, typed pipeerr errors only, retried
// queries byte-identical to the fault-free oracle, server healthy
// after the storm — are exactly the single-node robustness the
// distributed roadmap item builds on.
//
// Reproducibility: every draw comes from one splitmix64 generator
// (rand.go) whose whole sequence is pinned by Config.Seed. A
// single-threaded replay is bit-exact; under concurrency the scheduler
// interleaves the draw sequence across goroutines, so individual
// strikes land on different visits run to run, but the strike mix and
// the storm's aggregate behavior are reproduced by re-running with the
// printed seed.
//
// Fault kinds:
//
//   - panic: the hook panics at the site, exercising worker containment
//     (pipeerr.Group) and mcsd's serve-layer containment for the
//     pipeline's sequential caller-goroutine paths;
//   - delay: the hook sleeps up to Config.MaxDelay, exercising queue
//     congestion, deadline expiry mid-execution, and the watchdog;
//   - cancel: the hook force-cancels a random tracked in-flight query
//     (Track), exercising mid-pipeline cancellation under load;
//   - squeeze: a request-level fault (Squeeze) — the harness caps a
//     query's MaxBytes so it degrades workers or is refused with the
//     typed budget error; degraded successes must stay byte-identical.
package chaos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

var (
	obsStrikes  = obs.NewCounter("chaos.strikes")
	obsPanics   = obs.NewCounter("chaos.panics")
	obsDelays   = obs.NewCounter("chaos.delays")
	obsCancels  = obs.NewCounter("chaos.cancels")
	obsSqueezes = obs.NewCounter("chaos.squeezes")
	obsArmed    = obs.NewGauge("chaos.armed_sites")
)

// Kind is one chaos fault kind.
type Kind string

const (
	// KindPanic panics on the goroutine that reached the site.
	KindPanic Kind = "panic"
	// KindDelay sleeps the goroutine that reached the site.
	KindDelay Kind = "delay"
	// KindCancel cancels a random tracked in-flight query.
	KindCancel Kind = "cancel"
	// KindSqueeze is request-level: the harness caps a query's byte
	// budget via Squeeze. It is never armed at a site.
	KindSqueeze Kind = "squeeze"
)

// SiteKinds maps every faultinject site to the kinds Arm may install
// there: every site takes panic, delay and cancel. The faultinject
// consistency test pins this map against the site list, so a new Fire
// site cannot silently escape the storm.
var SiteKinds = map[string][]Kind{
	faultinject.GroupSort:    {KindPanic, KindDelay, KindCancel},
	faultinject.Permute:      {KindPanic, KindDelay, KindCancel},
	faultinject.ChunkSort:    {KindPanic, KindDelay, KindCancel},
	faultinject.LoserMerge:   {KindPanic, KindDelay, KindCancel},
	faultinject.MassageChunk: {KindPanic, KindDelay, KindCancel},
	faultinject.Payload:      {KindPanic, KindDelay, KindCancel},
	faultinject.GroupScan:    {KindPanic, KindDelay, KindCancel},
	faultinject.FilterScan:   {KindPanic, KindDelay, KindCancel},
	faultinject.RowList:      {KindPanic, KindDelay, KindCancel},
	faultinject.Gather:       {KindPanic, KindDelay, KindCancel},
	faultinject.Aggregate:    {KindPanic, KindDelay, KindCancel},
	faultinject.ShardFanout:  {KindPanic, KindDelay, KindCancel},
	faultinject.ShardMerge:   {KindPanic, KindDelay, KindCancel},
}

// Config tunes a Storm. The per-kind probabilities are per site visit:
// a pipeline run visits each armed site once per pass/chunk/batch,
// so even small rates strike often under load.
type Config struct {
	// Seed pins the draw sequence. Print it with every storm so a
	// failure reproduces: a zero seed is replaced by DefaultSeed, never
	// by wall-clock entropy.
	Seed uint64
	// PanicProb, DelayProb, CancelProb are per-visit strike
	// probabilities for the site kinds (0 disables a kind).
	PanicProb  float64
	DelayProb  float64
	CancelProb float64
	// SqueezeProb is the per-request probability Squeeze returns a
	// budget cap (0 disables squeezing).
	SqueezeProb float64
	// MaxDelay bounds a delay strike's sleep (default 2ms — long enough
	// to pile queries into the admission queue, short enough that a
	// storm of them finishes in test time).
	MaxDelay time.Duration
	// Sites restricts arming to the named sites (nil = every
	// faultinject site).
	Sites []string
}

// DefaultSeed replaces a zero Config.Seed, keeping "no seed given"
// runs reproducible too.
const DefaultSeed = 0x6d6373646368616f // "mcsdchao"

// Storm drives one armed fault storm.
type Storm struct {
	cfg Config
	rng *Rand

	mu       sync.Mutex
	armed    bool
	restores []func()
	nextID   uint64
	inflight map[uint64]func()
}

// New builds a storm from cfg, applying defaults. Nothing fires until
// Arm.
func New(cfg Config) *Storm {
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	if cfg.Sites == nil {
		cfg.Sites = faultinject.Sites
	}
	return &Storm{
		cfg:      cfg,
		rng:      NewRand(cfg.Seed),
		inflight: make(map[uint64]func()),
	}
}

// Seed returns the effective seed; harnesses print it so any failure
// is reproducible.
func (s *Storm) Seed() uint64 { return s.cfg.Seed }

// Rand exposes the storm's generator so the harness draws request-level
// faults (squeezes, client cancels) from the same seeded sequence.
func (s *Storm) Rand() *Rand { return s.rng }

// Arm installs one probabilistic hook per configured site via
// faultinject.SetProb and returns a disarm func restoring them all.
// Arming an armed storm is a no-op returning a no-op disarm.
func (s *Storm) Arm() (disarm func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.armed {
		return func() {}
	}
	s.armed = true
	n := 0
	for _, site := range s.cfg.Sites {
		kinds, probs, total := s.siteMix(site)
		if total <= 0 {
			continue
		}
		site := site
		s.restores = append(s.restores, faultinject.SetProb(site, total, s.rng, func() {
			s.strike(site, kinds, probs, total)
		}))
		n++
	}
	obsArmed.Set(int64(n))
	return s.disarm
}

// disarm restores every installed hook and forgets tracked queries.
func (s *Storm) disarm() {
	s.mu.Lock()
	restores := s.restores
	s.restores = nil
	s.armed = false
	s.inflight = make(map[uint64]func())
	s.mu.Unlock()
	for _, r := range restores {
		r()
	}
	obsArmed.Set(0)
}

// siteMix resolves the kinds armed at site with their probabilities.
func (s *Storm) siteMix(site string) (kinds []Kind, probs []float64, total float64) {
	for _, k := range SiteKinds[site] {
		var p float64
		switch k {
		case KindPanic:
			p = s.cfg.PanicProb
		case KindDelay:
			p = s.cfg.DelayProb
		case KindCancel:
			p = s.cfg.CancelProb
		}
		if p > 0 {
			kinds = append(kinds, k)
			probs = append(probs, p)
			total += p
		}
	}
	return kinds, probs, total
}

// strike runs once SetProb decided the site fires: pick the kind
// weighted by its share of the site's total probability and execute it
// on the calling goroutine — exactly where the site's own code would
// have failed.
func (s *Storm) strike(site string, kinds []Kind, probs []float64, total float64) {
	obsStrikes.Inc()
	u := s.rng.Float64() * total
	kind := kinds[len(kinds)-1]
	for i, p := range probs {
		if u < p {
			kind = kinds[i]
			break
		}
		u -= p
	}
	switch kind {
	case KindPanic:
		obsPanics.Inc()
		panic(fmt.Sprintf("chaos: injected panic at %s", site))
	case KindDelay:
		obsDelays.Inc()
		time.Sleep(time.Duration(s.rng.Float64() * float64(s.cfg.MaxDelay)))
	case KindCancel:
		obsCancels.Inc()
		s.cancelRandom()
	}
}

// Track registers the cancel func of one in-flight query as a target
// for cancel strikes; the returned untrack must run when the query
// finishes. Harnesses track every request they issue, so a cancel
// strike kills a random concurrent query mid-pipeline.
func (s *Storm) Track(cancel func()) (untrack func()) {
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.inflight[id] = cancel
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.inflight, id)
		s.mu.Unlock()
	}
}

// cancelRandom cancels one tracked query chosen by the seeded
// generator (ids are sorted first so the choice does not ride on map
// iteration order). No-op when nothing is tracked.
func (s *Storm) cancelRandom() {
	s.mu.Lock()
	ids := make([]uint64, 0, len(s.inflight))
	for id := range s.inflight {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var cancel func()
	if len(ids) > 0 {
		cancel = s.inflight[ids[s.rng.Intn(len(ids))]]
	}
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Squeeze draws one request-level budget fault: with probability
// SqueezeProb it returns a byte cap to set as the query's MaxBytes —
// log-uniform across [4KiB, 256MiB], so strikes range from "refused
// outright" to "degraded a worker step" — and 0 (no squeeze)
// otherwise.
func (s *Storm) Squeeze() int64 {
	if s.cfg.SqueezeProb <= 0 || s.rng.Float64() >= s.cfg.SqueezeProb {
		return 0
	}
	obsSqueezes.Inc()
	// 4KiB << [0, 16]: sixteen octaves up to 256MiB.
	return int64(4096) << s.rng.Intn(17)
}
