// Command calibrate measures this machine's cost-model constants
// (Section 4 of the paper, solved from seeded controlled runs) and
// prints or saves them as a JSON profile for reuse by mcsbench, mcsd
// and the library (mcs.LoadModel). The profile holds C_cache, C_mem,
// C_massage and C_scan with their per-key and per-group extensions; the
// production radix kernel's terms (C.Radix*, C.Select, the insertion
// regime C.Small*), which price every served plan; and the paper
// kernel's per-bank terms and OVC discount, which the figures plug in.
// costmodel.Load refuses a profile without positive radix count,
// scatter, word scatter and select constants, such as one saved before
// the model priced the radix kernel or its packed words.
//
//	calibrate                 # print the profile
//	calibrate -o profile.json # save it; later: mcsbench -calibration profile.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		out  = flag.String("o", "", "write the profile to this path")
		ncal = flag.Int("ncal", 0, "calibration array size (default 2^16)")
	)
	flag.Parse()

	fmt.Fprintln(os.Stderr, "calibrating (controlled runs for lookup, massage and scan, radix sorts with the production kernel, and per-bank sorts with the paper's merge-sort kernel)...")
	start := time.Now()
	m, err := experiments.Calibrate(experiments.CalOptions{NCal: *ncal})
	if err != nil {
		fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))

	if *out != "" {
		if err := m.Save(*out); err != nil {
			fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("profile written to %s\n", *out)
		return
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
	fmt.Println()
}
