package planner

import (
	"context"
	"time"
)

// Automatic selection of the time threshold ρ (Appendix C of the paper).
// The experiments use ρ = 0.1% by default, but the paper sketches two
// automated approaches, both implemented here. Both are offline tuning
// with no caller context in scope: their searches run under
// context.Background(), so the search's only error — cancellation —
// cannot occur and is dropped.

// RhoLadder is the range of thresholds the offline calibration sweeps,
// from very stringent to the paper's "unacceptable beyond this" bound.
var RhoLadder = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1}

// CalibrateRhoOffline implements the offline approach: run the plan
// search on a collection of sample searches at every ladder value and
// return the smallest ρ at which every search already reaches the best
// estimated cost it would reach at the loosest ρ. Only the cost model
// is invoked — no query is executed — so the process is fast.
func CalibrateRhoOffline(samples []*Search) float64 {
	if len(samples) == 0 {
		return DefaultRho
	}
	type curve struct {
		ests []float64
		best float64
	}
	curves := make([]curve, len(samples))
	for i, s := range samples {
		c := curve{ests: make([]float64, len(RhoLadder))}
		for j, rho := range RhoLadder {
			sCopy := *s
			sCopy.Rho = rho
			choice, _ := ROGAContext(context.Background(), &sCopy)
			c.ests[j] = choice.Est
		}
		c.best = c.ests[len(c.ests)-1]
		curves[i] = c
	}
	// Smallest ladder index at which every sample is within 1% of its
	// loosest-ρ cost (measurement jitter tolerance).
	for j := range RhoLadder {
		all := true
		for _, c := range curves {
			if c.ests[j] > c.best*1.01 {
				all = false
				break
			}
		}
		if all {
			return RhoLadder[j]
		}
	}
	return RhoLadder[len(RhoLadder)-1]
}

// OnlineRhoOptions tunes the online approach: start stringent, double
// the budget while the incumbent keeps improving, stop at the high
// watermark.
type OnlineRhoOptions struct {
	Low  float64 // ρ_low watermark (default 0.0001)
	High float64 // ρ_high watermark (default 0.1)
}

func (o *OnlineRhoOptions) defaults() {
	if o.Low <= 0 {
		o.Low = 0.0001
	}
	if o.High <= 0 {
		o.High = 0.1
	}
}

// ROGAOnlineRho runs ROGA with the online threshold-growing scheme: the
// search runs at ρ = low; whenever the re-run under a doubled ρ improves
// the incumbent plan, the budget doubles again, capped at the high
// watermark. It returns the final choice and the ρ it settled on.
func ROGAOnlineRho(s *Search, opts OnlineRhoOptions) (Choice, float64) {
	opts.defaults()
	rho := opts.Low
	sCopy := *s
	sCopy.Rho = rho
	best, _ := ROGAContext(context.Background(), &sCopy)
	for rho < opts.High {
		next := rho * 2
		if next > opts.High {
			next = opts.High
		}
		sCopy.Rho = next
		start := time.Now()
		cand, _ := ROGAContext(context.Background(), &sCopy)
		_ = start
		improved := cand.Est < best.Est
		rho = next
		if improved {
			best = cand
			continue
		}
		// No improvement at the doubled budget: settle.
		break
	}
	return best, rho
}
