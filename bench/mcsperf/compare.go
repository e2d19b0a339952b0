package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain implements `mcsperf compare A.json B.json`: for every
// workload, seed and end-to-end metric it prints the two medians, how
// much worse B is, the metric's bound, and a verdict. It exits 1 if
// anything regressed and 2 if the two run sets cannot be compared.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: mcsperf compare A.json B.json")
		return 2
	}
	a, err := readRunSet(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcsperf: %v\n", err)
		return 2
	}
	b, err := readRunSet(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcsperf: %v\n", err)
		return 2
	}
	regressed, err := compare(os.Stdout, a, b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcsperf: %v\n", err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

// Verdicts. A metric whose run-to-run spread is wider than its bound,
// or that has fewer than two runs on a side to take a spread from,
// cannot be called either way: it is unresolved.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges one metric: a and b are its values over the runs of
// each side. worse is how much worse b's median is than a's, as a
// share of a's median (negative when b is better).
func verdict(d metricDef, a, b []float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if d.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case len(a) < 2 || len(b) < 2 || max(spread(a), spread(b)) > d.Bound:
		return worse, verdictUnresolved
	case worse > d.Bound:
		return worse, verdictRegressed
	default:
		return worse, verdictOK
	}
}

// group is the untraced runs of one workload on one seed: the same
// inputs, so their metrics are repeated measurements of one thing.
type group struct {
	workload string
	seed     int64
}

func groups(set runSet) map[group][]run {
	out := map[group][]run{}
	for _, r := range set.Runs {
		if r.Trace == 0 {
			g := group{r.Workload, r.Seed}
			out[g] = append(out[g], r)
		}
	}
	return out
}

// sameWork refuses runs that did not do the same work: another table
// size or op count moves every metric, memory most of all.
func sameWork(g group, runs []run) error {
	for _, r := range runs[1:] {
		if r.Rows != runs[0].Rows || r.Seconds != runs[0].Seconds || r.Attempted != runs[0].Attempted {
			return fmt.Errorf("%s seed %d: runs of %d rows, -seconds %v, %d ops and of %d rows, -seconds %v, %d ops cannot be compared",
				g.workload, g.seed, runs[0].Rows, runs[0].Seconds, runs[0].Attempted, r.Rows, r.Seconds, r.Attempted)
		}
	}
	return nil
}

// compare writes the table and reports whether anything regressed.
// Only untraced runs carry end-to-end metrics. Runs are compared seed
// by seed; a seed one side lacks, or runs of different sizes, are an
// error. Errored ops and wrong answers have no bound: any in B is a
// regression.
func compare(w io.Writer, a, b runSet) (regressed bool, err error) {
	ga, gb := groups(a), groups(b)
	var order []group
	for g := range ga {
		if len(gb[g]) == 0 {
			return false, fmt.Errorf("%s seed %d is only in the first run set", g.workload, g.seed)
		}
		order = append(order, g)
	}
	for g := range gb {
		if len(ga[g]) == 0 {
			return false, fmt.Errorf("%s seed %d is only in the second run set", g.workload, g.seed)
		}
	}
	if len(order) == 0 {
		return false, fmt.Errorf("no untraced runs to compare")
	}
	rank := map[string]int{}
	for i, wl := range workloads {
		rank[wl.name] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].workload != order[j].workload {
			return rank[order[i].workload] < rank[order[j].workload]
		}
		return order[i].seed < order[j].seed
	})

	fmt.Fprintf(w, "%-20s %4s %-17s %5s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "seed", "metric", "runs", "A median", "B median", "worse", "spreadA", "spreadB", "bound", "verdict")
	for _, g := range order {
		ra, rb := ga[g], gb[g]
		if err := sameWork(g, append(append([]run(nil), ra...), rb...)); err != nil {
			return false, err
		}
		runs := fmt.Sprintf("%d/%d", len(ra), len(rb))
		for _, d := range endToEnd {
			va, okA := valuesOf(ra, d.Name)
			vb, okB := valuesOf(rb, d.Name)
			if !okA || !okB {
				fmt.Fprintf(w, "%-20s %4d %-17s %5s %12s %12s %8s %7s %7s %5.0f%%  %s\n",
					g.workload, g.seed, d.Name, runs, "missing", "missing", "", "", "", 100*d.Bound, verdictUnresolved)
				continue
			}
			worse, v := verdict(d, va, vb)
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(w, "%-20s %4d %-17s %5s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				g.workload, g.seed, d.Name, runs, median(va), median(vb), 100*worse, 100*spread(va), 100*spread(vb), 100*d.Bound, v)
		}
		for _, c := range []struct {
			name string
			of   func(run) int
		}{
			{"errored_ops", func(r run) int { return r.Errored }},
			{"verify_mismatches", func(r run) int { return r.VerifyMismatches }},
		} {
			na, nb := count(ra, c.of), count(rb, c.of)
			v := verdictOK
			if nb > 0 {
				v, regressed = verdictRegressed, true
			}
			fmt.Fprintf(w, "%-20s %4d %-17s %5s %12d %12d %8s %7s %7s %6s  %s\n",
				g.workload, g.seed, c.name, runs, na, nb, "", "", "", "0", v)
		}
	}
	return regressed, nil
}

// valuesOf is the metric's value in every run; ok is false if any run
// lacks it.
func valuesOf(runs []run, metric string) (vs []float64, ok bool) {
	for _, r := range runs {
		v, has := r.Metrics[metric]
		if !has {
			return nil, false
		}
		vs = append(vs, v.Value)
	}
	return vs, true
}

func count(runs []run, of func(run) int) int {
	n := 0
	for _, r := range runs {
		n += of(r)
	}
	return n
}
