// Command secmr-scale measures how the paper's Majority-Rule miner
// scales out: each point builds Figure 3's single-itemset vote
// (experiments.VoteGrid, 25 votes per resource at significance 0.03)
// on n resources through the facade, with AlgorithmPlain, the hash
// partition, the BA overlay and the parallel engine stepped by
// min(GOMAXPROCS, n) workers, and reports resources vs. steps to
// quiescence vs. wall-clock vs. peak RSS. The output is a
// benchjson-compatible JSON array, so `benchjson -diff BENCH_scale.json
// new.json` gates regressions in CI.
//
//	secmr-scale -n 1600,16000,50000,100000 -o BENCH_scale.json
//
// Set GOMAXPROCS to run at another width; the width used is reported
// per point as the "workers" metric.
//
// Every run is checked, not just timed: at quiescence each resource's
// output must equal the grid's ground truth, or the tool exits
// non-zero. Peak RSS is the process high-water mark (VmHWM), so run
// points in ascending size order (the default) — each point's value
// reflects the largest grid run so far.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"secmr"
	"secmr/internal/benchfmt"
	"secmr/internal/experiments"
	"secmr/internal/obs"
)

// result is the shared benchmark-summary schema (internal/benchfmt):
// the emitted file diffs with `benchjson -diff` like every other
// BENCH_*.json artifact.
type result = benchfmt.Result

// The vote every point runs: votes per resource and its significance.
const (
	localVotes   = 25
	significance = 0.03
)

func main() {
	var (
		sizes    = flag.String("n", "1600,16000,50000,100000", "comma-separated resource counts")
		seed     = flag.Int64("seed", 1, "seed (partition, overlay and engine)")
		maxSteps = flag.Int("maxsteps", 100000, "step budget per point")
		out      = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	var results []result
	for _, f := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 3 {
			fmt.Fprintf(os.Stderr, "secmr-scale: bad size %q\n", f)
			os.Exit(2)
		}
		r, err := runPoint(n, *seed, *maxSteps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "secmr-scale:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "n=%d workers=%.0f steps=%.0f wall=%s peak-rss=%.0fMB msgs=%.0f\n",
			n, r.Metrics["workers"], r.Metrics["steps"], time.Duration(r.NsPerOp), r.Metrics["peak-rss-mb"], r.Metrics["messages"])
		results = append(results, r)
	}

	if err := benchfmt.WriteFile(*out, results); err != nil {
		fmt.Fprintln(os.Stderr, "secmr-scale:", err)
		os.Exit(1)
	}
}

// runPoint builds the n-resource vote grid, steps it until every sent
// message is delivered (no faults are set, so none is dropped) and
// verifies every resource's output against the ground truth.
func runPoint(n int, seed int64, maxSteps int) (result, error) {
	g, err := experiments.VoteGrid(secmr.GridConfig{
		Algorithm: secmr.AlgorithmPlain, Resources: n, Seed: seed,
	}, localVotes, significance)
	if err != nil {
		return result{}, err
	}
	defer g.Close()
	start := time.Now()
	var st secmr.GridStats
	for g.Steps() == 0 || st.EngineSent != st.EngineDelivered {
		if g.Steps() == maxSteps {
			return result{}, fmt.Errorf("n=%d: still %d messages pending after %d steps",
				n, st.EngineSent-st.EngineDelivered, maxSteps)
		}
		g.Step(1)
		st = g.Stats()
	}
	wall := time.Since(start)
	truth := g.Truth()
	for i := range n {
		if out := g.Output(i); len(out) != len(truth) || out.IntersectCount(truth) != len(truth) {
			return result{}, fmt.Errorf("n=%d: resource %d outputs %d rules at quiescence, %d of them right, want the %d of the truth",
				n, i, len(out), out.IntersectCount(truth), len(truth))
		}
	}

	return result{
		Package: "secmr/cmd/secmr-scale",
		Name:    fmt.Sprintf("BenchmarkScale/n=%d", n),
		Iters:   1,
		NsPerOp: float64(wall.Nanoseconds()),
		Metrics: map[string]float64{
			"steps":       float64(g.Steps()),
			"peak-rss-mb": obs.ProcStatusMB("VmHWM:"),
			"messages":    float64(st.MessagesSent),
			"workers":     float64(min(runtime.GOMAXPROCS(0), n)),
		},
	}, nil
}
