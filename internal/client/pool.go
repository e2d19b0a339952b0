package client

import (
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/chaos"
)

// Pool hands out one Client per endpoint, created on first use and
// memoized. Retry, backoff, and circuit-breaker state live inside each
// Client, so keying Clients by base URL is what keys that state by
// endpoint — the property the sharded coordinator depends on: one sick
// shard trips only its own breaker, and the fan-out keeps reaching the
// healthy shards. (A single Client shared across shards — the natural
// first reach — funnels every shard's consecutive failures into one
// breaker and fails the whole cluster open.)
//
// Each endpoint's backoff-jitter PRNG is seeded from the pool seed
// mixed with the endpoint's address, so two shards' retry schedules
// de-synchronize even under the same pool seed, yet replay identically
// for a logged seed.
type Pool struct {
	cfg Config // template; BaseURL and Seed are filled per endpoint

	mu      sync.Mutex
	clients map[string]*Client
}

// NewPool returns a pool that creates Clients from cfg, overriding
// BaseURL per endpoint. cfg.BaseURL is ignored. A zero cfg.Seed uses
// the deterministic default, exactly as New does.
func NewPool(cfg Config) *Pool {
	return &Pool{cfg: cfg, clients: make(map[string]*Client)}
}

// For returns the Client for baseURL, creating it on first call.
func (p *Pool) For(baseURL string) (*Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.clients[baseURL]; ok {
		return c, nil
	}
	cfg := p.cfg
	cfg.BaseURL = baseURL
	seed := cfg.Seed
	if seed == 0 {
		seed = chaos.DefaultSeed
	}
	cfg.Seed = mixSeed(seed, baseURL)
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	p.clients[baseURL] = c
	return c, nil
}

// Endpoints returns how many distinct endpoints the pool has built
// Clients for.
func (p *Pool) Endpoints() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.clients)
}

// OpenBreakers returns, sorted, the endpoints whose breaker is refusing
// calls right now — the coordinator's readiness signal. An endpoint
// whose cooldown has elapsed is not listed: the next query to it is the
// half-open probe, so traffic has to keep coming for it to recover.
func (p *Pool) OpenBreakers() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var open []string
	for addr, c := range p.clients {
		if c.br.refusing() {
			open = append(open, addr)
		}
	}
	sort.Strings(open)
	return open
}

// mixSeed folds the endpoint address into the pool seed. FNV-1a keeps
// it deterministic across processes; the golden-ratio multiply spreads
// near-identical addresses (":8081" vs ":8082") across the seed space.
func mixSeed(seed uint64, addr string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(addr))
	mixed := seed ^ (h.Sum64() * 0x9E3779B97F4A7C15)
	if mixed == 0 {
		mixed = seed
	}
	return mixed
}
