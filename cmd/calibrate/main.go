// Command calibrate measures this machine's cost-model constants
// (Section 4 of the paper, solved from seeded controlled runs) and
// prints or saves them as one JSON profile of two parts. The part
// production reads (experiments.Calibrate) holds C_cache, C_mem,
// C_massage and C_scan with their per-key and per-group extensions, and
// the production radix kernel's terms (C.Radix*, C.Select, the insertion
// regime C.Small*), which price every served plan; costmodel.Load
// (mcsd -calibration) reads only it, and refuses a profile without
// positive radix count, scatter, word scatter and select constants. The
// paper kernel's part (experiments.CalibratePaper) holds its per-bank
// terms (C.Bank) and OVC discount (C.OVCMergeDiscount), which the
// figures plug in; experiments.LoadProfile (mcsbench -calibration)
// reads both.
//
//	calibrate                 # print the profile
//	calibrate -o profile.json # save it; later: mcsbench -calibration profile.json
package main

import (
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
	opts := experiments.CalOptions{NCal: *ncal}
	m, err := experiments.Calibrate(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
		os.Exit(1)
	}
	pm, err := experiments.CalibratePaper(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))

	data, err := experiments.MarshalProfile(m, pm)
	if err != nil {
		fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("profile written to %s\n", *out)
		return
	}
	os.Stdout.Write(data)
	fmt.Println()
}
