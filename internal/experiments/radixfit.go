package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/byteslice"
	"repro/internal/column"
	"repro/internal/costmodel"
	"repro/internal/massage"
	"repro/internal/mcsort"
	"repro/internal/pipeerr"
	"repro/internal/plan"
)

// RadixModel scores the cost model production plans with — the radix
// sort term, no Model.Sort plugged in — against the production kernel,
// term by term: every plan below runs on the seeded synthetic columns
// of the Section 3 examples with the radix kernel (no Params.Sort hook,
// one worker), read from ByteSlices as the engine's sort reads its
// columns (the model's massage term prices that gather), and each of
// its four predicted subcosts is compared with the mcsort phase it
// prices. MRE is the mean of |pred − meas| / meas
// over the plans, for costmodel.Builtin() and for the run's own
// calibrated model (Config.Model).
func RadixModel(cfg Config) (*Report, error) {
	cfg.defaults()
	calibrated, err := cfg.calibrated()
	if err != nil {
		return nil, err
	}
	models := []*costmodel.Model{costmodel.Builtin(), calibrated}
	cases := []struct {
		widths []int
		plans  [][]int
	}{
		{[]int{10, 17}, [][]int{{10, 17}, {27}, {16, 11}}},             // Ex1
		{[]int{15, 31}, [][]int{{15, 31}, {46}, {23, 23}}},             // Ex2
		{[]int{17, 33}, [][]int{{17, 33}, {18, 32}, {26, 24}, {50}}},   // Ex3
		{[]int{48, 48}, [][]int{{48, 48}, {32, 32, 32}, {16, 48, 32}}}, // Ex4
	}
	if cfg.Quick {
		for i := range cases {
			cases[i].plans = cases[i].plans[:2]
		}
	}
	reps := cfg.reps()
	terms := []string{"T_lookup", "T_massage", "T_sort", "T_scan", "T_mcs"}
	var errSum [2][5]float64
	var errN [5]int
	for _, c := range cases {
		inputs := syntheticInputs(cfg, c.widths)
		cols := make([][]uint64, len(inputs))
		for i, in := range inputs {
			cols[i] = in.Codes
		}
		st := costmodel.CollectStats(cols, c.widths)
		inputs = byteSliceInputs(inputs)
		for _, ws := range c.plans {
			p := plan.FromWidths(ws)
			var best mcsort.Timings
			for r := 0; r < reps; r++ {
				res, err := mcsort.ExecuteContext(cfg.context(), inputs, p, mcsort.Options{})
				if err != nil {
					if pipeerr.IsCtxErr(err) {
						return nil, err
					}
					return nil, fmt.Errorf("radix: plan %v: %w", p, err)
				}
				if r == 0 || res.Timings.Total() < best.Total() {
					best = res.Timings
				}
			}
			meas := [5]time.Duration{best.Lookup, best.Massage, best.Sort, best.Scan, best.Total()}
			for mi, m := range models {
				t := m.Terms(p, st)
				pred := [5]float64{t.Lookup, t.Massage, t.Sort, t.Scan, t.Total()}
				for k := range pred {
					if meas[k] <= 0 {
						continue // one-round plans have no lookup
					}
					errSum[mi][k] += math.Abs(pred[k]-float64(meas[k])) / float64(meas[k])
					if mi == 0 {
						errN[k]++
					}
				}
			}
		}
	}
	rep := &Report{
		ID:     "radix",
		Title:  "Radix cost model: per-term MRE against the production kernel",
		Kernel: radixKernelNote,
		Header: []string{"term", "plans", "mre_builtin", "mre_calibrated"},
	}
	for k, name := range terms {
		if errN[k] == 0 {
			continue
		}
		n := float64(errN[k])
		rep.Rows = append(rep.Rows, []string{name, fmt.Sprint(errN[k]), pct(errSum[0][k] / n), pct(errSum[1][k] / n)})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("N=%d rows per plan, 2^13 distinct values per column (2^w when w<13); each plan's fastest of %d runs", cfg.Rows, reps),
		"T_lookup counts only plans of more than one round")
	return rep, nil
}

// byteSliceInputs stores each input's codes as a ByteSlice and returns
// inputs that read them from it, every row in order.
func byteSliceInputs(inputs []massage.Input) []massage.Input {
	rows := make([]uint32, inputs[0].Len())
	for i := range rows {
		rows[i] = uint32(i)
	}
	out := make([]massage.Input, len(inputs))
	for i, in := range inputs {
		bs := byteslice.FromColumn(column.FromCodes(fmt.Sprintf("c%d", i), in.Width, in.Codes))
		out[i] = massage.Input{Width: in.Width, Desc: in.Desc, Source: &massage.Source{Column: bs, Rows: rows}}
	}
	return out
}
