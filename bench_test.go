// Top-level benchmark harness: one testing.B benchmark per table and
// figure of the paper's evaluation, each delegating to the experiment
// driver in internal/experiments (the same code cmd/mcsbench runs).
// Reported metrics are the headline quantity of the artefact — e.g. the
// multi-column-sorting speedup for Figure 8 — so `go test -bench=.`
// doubles as a regression check on the reproduction's shape.
//
// Scale: benchmarks run at a reduced, CI-friendly scale (Quick mode).
// Regenerate the full numbers with cmd/mcsbench.
package repro

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/mergesort/paper"
)

var (
	benchModelOnce sync.Once
	benchModel     *costmodel.Model
	benchPaper     *paper.Model
)

// benchConfig calibrates once per process — the production model and
// the paper kernel's term — and returns the shared reduced-scale
// configuration.
func benchConfig(b *testing.B) experiments.Config {
	b.Helper()
	benchModelOnce.Do(func() {
		m, err := experiments.Calibrate(experiments.CalOptions{})
		if err != nil {
			b.Fatalf("calibrate: %v", err)
		}
		pm, err := experiments.CalibratePaper(experiments.CalOptions{})
		if err != nil {
			b.Fatalf("calibrate: %v", err)
		}
		benchModel, benchPaper = m, pm
	})
	return experiments.Config{
		Rows:      1 << 16,
		TableRows: 20_000,
		Seed:      1,
		Model:     benchModel,
		Paper:     benchPaper,
		Quick:     true,
	}
}

// runExperiment executes an experiment b.N times and reports one metric
// extracted from its report.
func runExperiment(b *testing.B, id string, metric func(*experiments.Report) (float64, string)) {
	cfg := benchConfig(b)
	var rep *experiments.Report
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = experiments.RunContext(context.Background(), id, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if metric != nil {
		v, unit := metric(rep)
		b.ReportMetric(v, unit)
	}
}

// parseLeadingFloat reads the numeric prefix of a cell like "3.14x" or
// "12.34 (…)".
func parseLeadingFloat(cell string) float64 {
	end := len(cell)
	for i, c := range cell {
		if (c < '0' || c > '9') && c != '.' {
			end = i
			break
		}
	}
	v, _ := strconv.ParseFloat(cell[:end], 64)
	return v
}

// meanColumn averages a numeric column over all report rows.
func meanColumn(rep *experiments.Report, header string) float64 {
	idx := -1
	for i, h := range rep.Header {
		if h == header {
			idx = i
		}
	}
	if idx < 0 {
		return 0
	}
	var sum float64
	var n int
	for _, row := range rep.Rows {
		if idx < len(row) {
			if v := parseLeadingFloat(strings.TrimSuffix(row[idx], "%")); v > 0 {
				sum += v
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkFigure1 regenerates the motivation breakdown: the mean share
// of query time spent in multi-column sorting without massaging.
func BenchmarkFigure1(b *testing.B) {
	runExperiment(b, "fig1", func(r *experiments.Report) (float64, string) {
		return meanColumn(r, "mcs_share"), "mean_mcs_share_%"
	})
}

// BenchmarkFigure3a/b/c regenerate the Section 3 example crossovers.
func BenchmarkFigure3a(b *testing.B) { runExperiment(b, "fig3a", nil) }
func BenchmarkFigure3b(b *testing.B) { runExperiment(b, "fig3b", nil) }
func BenchmarkFigure3c(b *testing.B) { runExperiment(b, "fig3c", nil) }

// BenchmarkFigure4a regenerates the Ex3 shifted-bits sweep.
func BenchmarkFigure4a(b *testing.B) { runExperiment(b, "fig4a", nil) }

// BenchmarkFigure4b regenerates the per-plan N_sort/N_group factors.
func BenchmarkFigure4b(b *testing.B) { runExperiment(b, "fig4b", nil) }

// BenchmarkFigure5 regenerates the ASC/DESC complement demonstration.
func BenchmarkFigure5(b *testing.B) { runExperiment(b, "fig5", nil) }

// BenchmarkFigure7 regenerates the Q16 plan-space oracle comparison.
func BenchmarkFigure7(b *testing.B) { runExperiment(b, "fig7", nil) }

// BenchmarkTable1 regenerates plan-quality ranks and cost-model MRE.
func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "tab1", func(r *experiments.Report) (float64, string) {
		return meanColumn(r, "mre"), "mean_mre"
	})
}

// BenchmarkTable2 regenerates ROGA's plan-search overhead share.
func BenchmarkTable2(b *testing.B) {
	runExperiment(b, "tab2", func(r *experiments.Report) (float64, string) {
		return meanColumn(r, "search_share"), "mean_search_share_%"
	})
}

// BenchmarkFigure8 regenerates the 27-query multi-column-sorting speedup.
func BenchmarkFigure8(b *testing.B) {
	runExperiment(b, "fig8", func(r *experiments.Report) (float64, string) {
		return meanColumn(r, "speedup"), "mean_mcs_speedup_x"
	})
}

// BenchmarkFigure9 regenerates end-to-end times across scale factors.
func BenchmarkFigure9(b *testing.B) {
	runExperiment(b, "fig9", func(r *experiments.Report) (float64, string) {
		return meanColumn(r, "speedup"), "mean_query_speedup_x"
	})
}

// BenchmarkFigure10 regenerates throughput vs worker count.
func BenchmarkFigure10(b *testing.B) {
	runExperiment(b, "fig10", func(r *experiments.Report) (float64, string) {
		return meanColumn(r, "mtuples_per_s"), "mean_mtuples_per_s"
	})
}

// BenchmarkFigure12 regenerates the rho-sensitivity study.
func BenchmarkFigure12(b *testing.B) { runExperiment(b, "fig12", nil) }
