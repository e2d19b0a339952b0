// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6 plus the Section 3 example figures). Each
// experiment is a function returning a Report — a printable table of the
// same rows/series the paper plots — so cmd/mcsbench and the benchmark
// suite share one implementation.
//
// Scale note: the paper runs N = 2^24 synthetic rows and 1–10 GB TPC
// data on a 10-core Xeon. The substrate here is a software SIMD model,
// so defaults are reduced (Config.Rows, Config.TableRows); the shapes —
// which plan wins, where crossovers fall — are the reproduction target,
// not absolute times. See EXPERIMENTS.md for measured-vs-paper notes.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/mergesort"
	"repro/internal/mergesort/paper"
)

// Config parameterizes all experiments.
type Config struct {
	// Rows is N for synthetic (Section 3) experiments. Default 1<<18.
	Rows int
	// TableRows is the WideTable row count for workload experiments.
	// Default 60_000.
	TableRows int
	// Seed drives all generators.
	Seed int64
	// Model is the calibrated cost model; nil runs Calibrate once per
	// RunContext call that needs a model.
	Model *costmodel.Model
	// Paper is the paper kernel's sort term, plugged into Model by every
	// report that prices plans with the paper kernel (all but radix's);
	// nil runs CalibratePaper once per RunContext call that needs it.
	// Tests that do not measure calibration pass paper.DefaultModel().
	Paper *paper.Model
	// Quick trims plan populations and repetitions for CI-speed runs.
	Quick bool
	// Workers parallelizes the engine passes around the experiments
	// (materialization gathers, query execution). Plan *measurements*
	// stay sequential regardless, so measured times remain comparable
	// to the sequentially calibrated cost model.
	Workers int
	// Limit overrides the topk experiment's K sweep with a single K
	// (0 keeps the default sweep). Other experiments ignore it.
	Limit int

	// ctx carries the cancellation context set by RunContext; nil means
	// context.Background(). Unexported so the zero Config stays valid.
	ctx context.Context
}

// context returns the experiment's cancellation context.
func (c *Config) context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// kernelNote is the line a report carries under its title: which sort
// kernel produced the numbers. Every report but radix's ran the paper's.
const (
	kernelNote      = "sort kernel: paper (three-phase SWAR merge-sort, internal/mergesort/paper through mergesort.Params.Sort)"
	radixKernelNote = "sort kernel: production (stable LSD radix sort, internal/mergesort/radix.go)"
)

// paperKernel is the one place the experiments pick their sort kernel.
// Every mcsort.Options and engine.Options literal in this package sets
// SortParams from it: bank-level parallelism is the phenomenon Figures
// 3–12 and the cost model characterise, and only the paper's kernel
// has it — under the production radix kernel a narrower bank buys
// nothing and fig3b's crossover flips.
func paperKernel() *mergesort.Params {
	return &mergesort.Params{Sort: paper.Params{}.Sort}
}

func (c *Config) defaults() {
	if c.Rows == 0 {
		c.Rows = 1 << 18
	}
	if c.TableRows == 0 {
		c.TableRows = 60_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// calibrated returns Config.Model, calibrating once when it is nil.
func (c *Config) calibrated() (*costmodel.Model, error) {
	if c.Model == nil {
		m, err := Calibrate(CalOptions{})
		if err != nil {
			return nil, err
		}
		c.Model = m
	}
	return c.Model, nil
}

// model is the model the figures price plans with: Config.Model with
// the paper kernel's sort term, Config.Paper, plugged in, as paperKernel
// is plugged into every sort they measure. A nil Paper is calibrated
// once, as a nil Model is.
func (c *Config) model() (*costmodel.Model, error) {
	m, err := c.calibrated()
	if err != nil {
		return nil, err
	}
	if c.Paper == nil {
		if c.Paper, err = CalibratePaper(CalOptions{}); err != nil {
			return nil, err
		}
	}
	pm := *m
	pm.Sort = c.Paper.Sort
	return &pm, nil
}

// Report is a printable experiment result.
type Report struct {
	ID     string
	Title  string
	Kernel string // the kernel line; empty means kernelNote
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var sb strings.Builder
	kernel := r.Kernel
	if kernel == "" {
		kernel = kernelNote
	}
	fmt.Fprintf(&sb, "== %s: %s ==\n%s\n", r.ID, r.Title, kernel)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// ms formats a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e6)
}

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// speedup formats a speedup factor.
func speedup(base, improved time.Duration) string {
	if improved <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(improved))
}

// All lists every experiment id, in presentation order.
var All = []string{
	"fig1", "fig3a", "fig3b", "fig3c", "fig4a", "fig4b", "fig5",
	"fig7", "tab1", "tab2", "fig8", "fig9", "fig10", "fig12", "topk", "radix",
}

// RunContext dispatches an experiment by id. The context is threaded
// through every query execution and sort the experiment performs, so a
// cancelled or deadline-expired context aborts the experiment promptly
// with ctx.Err().
func RunContext(ctx context.Context, id string, cfg Config) (*Report, error) {
	cfg.ctx = ctx
	switch id {
	case "fig1":
		return Figure1(cfg)
	case "fig3a":
		return Figure3a(cfg)
	case "fig3b":
		return Figure3b(cfg)
	case "fig3c":
		return Figure3c(cfg)
	case "fig4a":
		return Figure4a(cfg)
	case "fig4b":
		return Figure4b(cfg)
	case "fig5":
		return Figure5(cfg)
	case "fig7":
		return Figure7(cfg)
	case "tab1":
		return Table1(cfg)
	case "tab2":
		return Table2(cfg)
	case "fig8":
		return Figure8(cfg)
	case "fig9":
		return Figure9(cfg)
	case "fig10":
		return Figure10(cfg)
	case "fig12":
		return Figure12(cfg)
	case "topk":
		return TopK(cfg)
	case "radix":
		return RadixModel(cfg)
	default:
		return nil, fmt.Errorf("unknown experiment %q (have %v)", id, All)
	}
}
