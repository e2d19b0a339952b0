package planner

import (
	"testing"

	"repro/internal/costmodel"
)

func TestCalibrateRhoOffline(t *testing.T) {
	m := costmodel.Builtin()
	var samples []*Search
	for seed := int64(0); seed < 3; seed++ {
		st := uniformStats(seed+20, 1<<14, []int{10 + int(seed), 17}, []int{512, 4096})
		samples = append(samples, &Search{Model: m, Stats: st, Kind: OrderBy})
	}
	rho := CalibrateRhoOffline(samples)
	found := false
	for _, r := range RhoLadder {
		if r == rho {
			found = true
		}
	}
	if !found {
		t.Fatalf("rho %v not on the ladder", rho)
	}
	// Empty input falls back to the default.
	if got := CalibrateRhoOffline(nil); got != DefaultRho {
		t.Errorf("empty samples: rho %v, want default", got)
	}
}

func TestROGAOnlineRho(t *testing.T) {
	m := costmodel.Builtin()
	st := uniformStats(30, 1<<14, []int{17, 33}, []int{1 << 13, 1 << 13})
	s := &Search{Model: m, Stats: st, Kind: OrderBy}
	choice, rho := ROGAOnlineRho(s, OnlineRhoOptions{})
	if err := choice.Plan.Validate(50); err != nil {
		t.Fatalf("invalid plan: %v", err)
	}
	if rho < 0.0001 || rho > 0.1 {
		t.Errorf("settled rho %v outside watermarks", rho)
	}
	// The online result can never be worse than the most stringent run.
	sLow := *s
	sLow.Rho = 0.0001
	low := roga(&sLow)
	if choice.Est > low.Est*1.001 {
		t.Errorf("online est %.3g worse than stringent est %.3g", choice.Est, low.Est)
	}
}
