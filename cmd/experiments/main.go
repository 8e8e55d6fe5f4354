// Command experiments regenerates the paper's evaluation figures
// (§6, Figures 2–4) at a chosen scale, printing the tables the paper
// plots and optionally dumping CSV series for external plotting.
//
// Usage:
//
//	experiments -fig 2                 # Figure 2 at CI scale
//	experiments -fig 3 -scale paper    # Figure 3 at the paper's scale
//	experiments -fig 4 -csv fig4.csv
//	experiments -fig all
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"secmr/internal/experiments"
	"secmr/internal/metrics"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "which figure: 2, 3, 4 or all")
		scale    = flag.String("scale", "ci", "experiment scale: ci or paper")
		csvPath  = flag.String("csv", "", "write Figure 2 series as CSV to this file")
		paillier = flag.Int("paillier", 0, "Paillier modulus bits (0 = plain stand-in; figures measure steps, which are scheme independent)")
		seed     = flag.Int64("seed", 1, "seed")
		sample   = flag.Int("sample", 0, "override the sampling period (steps); finer sampling sharpens steps-to-90% at extra cost")
		ksFlag   = flag.String("ks", "", "comma-separated k values for Figure 4 (default scale-dependent)")
	)
	flag.Parse()

	var sc experiments.Scale
	switch *scale {
	case "ci":
		sc = experiments.CI()
	case "paper":
		sc = experiments.Paper()
	default:
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	sc.Seed = *seed
	if *sample > 0 {
		sc.SampleEvery = *sample
	}

	run2 := *fig == "2" || *fig == "all"
	run3 := *fig == "3" || *fig == "all"
	run4 := *fig == "4" || *fig == "all"
	runMsgs := *fig == "msgs" || *fig == "all"
	if !run2 && !run3 && !run4 && !runMsgs {
		fatal(fmt.Errorf("unknown figure %q (want 2, 3, 4, msgs or all)", *fig))
	}

	if run2 {
		fmt.Println("=== Figure 2: recall & precision convergence (scans to 90%/90%) ===")
		rows, err := experiments.Figure2(sc, *paillier)
		if err != nil {
			fatal(err)
		}
		if err := experiments.RenderFigure2(os.Stdout, rows); err != nil {
			fatal(err)
		}
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				fatal(err)
			}
			var series []*metrics.Series
			for _, r := range rows {
				series = append(series, r.Series)
			}
			if err := metrics.WriteCSV(f, series...); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("(series written to %s)\n", *csvPath)
		}
		fmt.Println()
	}

	if run3 {
		fmt.Println("=== Figure 3: scalability — steps to 90% correct deciders ===")
		counts := []int{50, 100, 200, 400, 800}
		if *scale == "paper" {
			counts = []int{250, 500, 1000, 2000, 4000}
		}
		sigs := []float64{0.03, 0.06, 0.12, 0.24}
		pts, err := experiments.Figure3(sc, counts, sigs, *paillier)
		if err != nil {
			fatal(err)
		}
		if err := experiments.RenderFigure3(os.Stdout, pts, counts, sigs); err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	if run4 {
		fmt.Println("=== Figure 4: privacy parameter k vs convergence time (T10I4) ===")
		var ks []int64
		if *ksFlag != "" {
			for _, part := range strings.Split(*ksFlag, ",") {
				v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
				if err != nil {
					fatal(err)
				}
				ks = append(ks, v)
			}
		} else {
			for k := int64(1); k <= int64(sc.Resources)/2; k *= 2 {
				ks = append(ks, k)
			}
		}
		pts, err := experiments.Figure4(sc, ks, *paillier)
		if err != nil {
			fatal(err)
		}
		if err := experiments.RenderFigure4(os.Stdout, pts); err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	if runMsgs {
		fmt.Println("=== Communication locality: messages per resource vs grid size ===")
		counts := []int{50, 100, 200, 400}
		if *scale == "paper" {
			counts = []int{250, 500, 1000, 2000}
		}
		pts, err := experiments.Figure3(sc, counts, []float64{0.24}, *paillier)
		if err != nil {
			fatal(err)
		}
		if err := experiments.RenderMessageComplexity(os.Stdout, pts); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
