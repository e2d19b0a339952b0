package main

import (
	"slices"
	"testing"
	"time"
)

// TestCoordinatorArmsShardBreakers pins that a coordinator passes
// -breaker-threshold and -breaker-cooldown to its per-shard clients: a
// zero BreakerThreshold disables the client breaker, and /readyz could
// then never report a shard's breaker open (docs/sharding.md, "Health").
func TestCoordinatorArmsShardBreakers(t *testing.T) {
	o := options{
		shards:           " http://h1:8081, ,http://h2:8081",
		breakerThreshold: 8,
		breakerCooldown:  time.Second,
		clientRetries:    4,
	}
	cfg := coordinatorConfig(o, nil, nil)
	if want := []string{"http://h1:8081", "http://h2:8081"}; !slices.Equal(cfg.Shards, want) {
		t.Errorf("shards = %q, want %q", cfg.Shards, want)
	}
	c := cfg.Client
	if c.BreakerThreshold != o.breakerThreshold || c.BreakerCooldown != o.breakerCooldown || c.MaxRetries != o.clientRetries {
		t.Errorf("client breaker %d/%v, retries %d; want %d/%v, %d",
			c.BreakerThreshold, c.BreakerCooldown, c.MaxRetries, o.breakerThreshold, o.breakerCooldown, o.clientRetries)
	}
}
