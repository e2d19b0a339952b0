package engine

import "testing"

// TestEstimateCoversThePayloadCarry pins the footprint model's terms
// per row (docs/robustness.md) — 8 B per round key, 8 of lookup
// scratch, 4 of permutation, 4 of group boundaries and 24 of radix
// scratch, and 64 KiB a worker in parallel — and that they cover a
// multi-round carry at its peak: the last lookup holds the round keys,
// the scratch, the permutation, the groups and the payload's 4 B, 20 B
// below the model, while no sort scratch is live.
func TestEstimateCoversThePayloadCarry(t *testing.T) {
	const rows = 1000
	for _, tc := range []struct {
		rounds, workers int
		want            int64
	}{
		{1, 1, 48 * rows},
		{2, 1, 56 * rows},
		{3, 1, 64 * rows},
		{2, 4, 56*rows + 4*64<<10},
	} {
		got := EstimatePipelineBytes(rows, tc.rounds, tc.workers)
		if got != tc.want {
			t.Errorf("%d rounds at %d workers: %d B, want %d", tc.rounds, tc.workers, got, tc.want)
		}
		if carry := int64(rows * (8*tc.rounds + 8 + 4 + 4 + 4)); tc.rounds > 1 && got < carry {
			t.Errorf("%d rounds: %d B do not cover the last lookup's %d B", tc.rounds, got, carry)
		}
	}
}
