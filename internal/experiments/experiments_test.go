package experiments

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/mergesort/paper"
)

// quickCfg keeps experiment tests fast while still exercising every
// driver end to end.
func quickCfg() Config {
	return Config{
		Rows:      1 << 14,
		TableRows: 5000,
		Seed:      7,
		Model:     costmodel.Builtin(),
		Paper:     paper.DefaultModel(),
		Quick:     true,
	}
}

// shapeCfg is large enough for the Section 3 crossovers to manifest.
func shapeCfg() Config {
	return Config{Rows: 1 << 18, Seed: 7, Model: costmodel.Builtin(), Paper: paper.DefaultModel()}
}

func totalOf(t *testing.T, rep *Report, rowLabel string) float64 {
	t.Helper()
	for _, row := range rep.Rows {
		if row[0] == rowLabel {
			cell := row[len(row)-1]
			var total float64
			if _, err := sscanFloat(cell, &total); err != nil {
				t.Fatalf("cannot parse total from %q", cell)
			}
			return total
		}
	}
	t.Fatalf("row %q not found in %s", rowLabel, rep.ID)
	return 0
}

func sscanFloat(s string, out *float64) (int, error) {
	var f float64
	n, err := fmtSscan(s, &f)
	*out = f
	return n, err
}

func fmtSscan(s string, f *float64) (int, error) {
	// The total cell looks like "12.34 (1.1x vs P0)"; parse the prefix.
	end := strings.IndexByte(s, ' ')
	if end < 0 {
		end = len(s)
	}
	var v float64
	var err error
	v, err = parseFloat(s[:end])
	*f = v
	if err != nil {
		return 0, err
	}
	return 1, nil
}

func parseFloat(s string) (float64, error) {
	var v float64
	var frac float64
	var div float64 = 1
	seenDot := false
	for _, c := range s {
		switch {
		case c == '.':
			seenDot = true
		case c >= '0' && c <= '9':
			if seenDot {
				div *= 10
				frac = frac*10 + float64(c-'0')
			} else {
				v = v*10 + float64(c-'0')
			}
		default:
			return 0, errBadFloat
		}
	}
	return v + frac/div, nil
}

var errBadFloat = &parseErr{}

type parseErr struct{}

func (*parseErr) Error() string { return "bad float" }

// crossoverRuns is how many reports of a figure TestFigure3Crossovers
// decides a crossover on.
const crossoverRuns = 5

// medianTotals runs fig crossoverRuns times and returns, for each row
// label, the median of its total over the runs. Each run interleaves
// its plans (measurePlans), so a burst of load beside the test lands
// on both plans of a run or on a run the median drops.
func medianTotals(t *testing.T, fig func(Config) (*Report, error), cfg Config, labels ...string) []float64 {
	t.Helper()
	totals := make([][]float64, len(labels))
	for r := 0; r < crossoverRuns; r++ {
		rep, err := fig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, label := range labels {
			totals[i] = append(totals[i], totalOf(t, rep, label))
		}
	}
	medians := make([]float64, len(labels))
	for i, ts := range totals {
		slices.Sort(ts)
		medians[i] = ts[len(ts)/2]
	}
	return medians
}

// TestFigure3Crossovers asserts the paper's qualitative claims at a
// scale where they manifest: Ex1 stitch wins, Ex2 stitch-all loses, and
// Ex4's three 32-bit rounds beat two 64-bit rounds — each decided on
// the median totals of crossoverRuns reports.
func TestFigure3Crossovers(t *testing.T) {
	if testing.Short() {
		t.Skip("needs 2^18 rows")
	}
	cfg := shapeCfg()

	if m := medianTotals(t, Figure3a, cfg, "P<<17 (stitch)", "P0"); !(m[0] < m[1]) {
		t.Errorf("Ex1: stitching should win: median totals %.2f vs P0 %.2f ms", m[0], m[1])
	}
	if m := medianTotals(t, Figure3b, cfg, "P0", "P<<31 (stitch-all)"); !(m[0] < m[1]) {
		t.Errorf("Ex2: reckless stitch should lose: median totals P0 %.2f vs %.2f ms", m[0], m[1])
	}
	if m := medianTotals(t, Figure3c, cfg, "P32x3 (3x 32/[32])", "P0 (2x 48/[64])"); !(m[0] < m[1]) {
		t.Errorf("Ex4: three 32-bit rounds should win: median totals %.2f vs P0 %.2f ms", m[0], m[1])
	}
}

func TestFigure5CorrectnessDemo(t *testing.T) {
	rep, err := Figure5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("want 2 variants, got %d", len(rep.Rows))
	}
	if rep.Rows[0][2] != "true" {
		t.Errorf("complement+stitch must be correct: %v", rep.Rows[0])
	}
	if rep.Rows[1][2] != "false" {
		t.Errorf("raw stitch must reproduce the Figure 5b bug: %v", rep.Rows[1])
	}
}

// TestAllExperimentsRun executes every driver at quick scale: they must
// produce non-empty, well-formed reports without errors.
func TestAllExperimentsRun(t *testing.T) {
	cfg := quickCfg()
	for _, id := range All {
		id := id
		t.Run(id, func(t *testing.T) {
			start := time.Now()
			rep, err := RunContext(context.Background(), id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Rows) == 0 {
				t.Fatalf("%s produced no rows", id)
			}
			for _, row := range rep.Rows {
				if len(row) > len(rep.Header) {
					t.Errorf("%s: row wider than header: %v", id, row)
				}
				for _, cell := range row {
					if strings.Contains(cell, "ERR") {
						t.Errorf("%s: error row: %v", id, row)
					}
				}
			}
			if out := rep.String(); !strings.Contains(out, rep.Title) {
				t.Errorf("%s: String() missing title", id)
			}
			t.Logf("%s: %d rows in %v", id, len(rep.Rows), time.Since(start))
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := RunContext(context.Background(), "nope", quickCfg()); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFigure4FactorsMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("needs larger rows")
	}
	cfg := Config{Rows: 1 << 16, Seed: 3, Model: costmodel.Builtin(), Paper: paper.DefaultModel()}
	rep, err := Figure4b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Left-shifting bits into round 1 must (weakly) increase the number
	// of round-1 groups: find P<<10 vs P<<1.
	var g10, g1 float64
	for _, row := range rep.Rows {
		if row[0] == "P<<10" {
			g10, _ = parseFloat(row[2])
		}
		if row[0] == "P<<1" {
			g1, _ = parseFloat(row[2])
		}
	}
	if g10 == 0 || g1 == 0 {
		t.Fatalf("missing sweep rows\n%s", rep)
	}
	if g10 < g1 {
		t.Errorf("N_group must grow with left shift: P<<10=%v < P<<1=%v", g10, g1)
	}
}
