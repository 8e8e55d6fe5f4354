// Command secmr-scale measures mega-grid scale-out: n flyweight
// majority voters on a Barabási–Albert spanning tree inside the
// simulator, stepped by min(GOMAXPROCS, n) workers, reporting resources
// vs. convergence steps vs. wall-clock vs. peak RSS. The output is a
// benchjson-compatible JSON array, so `benchjson -diff BENCH_scale.json
// new.json` gates regressions in CI.
//
//	secmr-scale -n 1600,16000,100000,1000000 -o BENCH_scale.json
//
// Set GOMAXPROCS to run at another width; the width used is reported
// per point as the "workers" metric.
//
// Every run is checked, not just timed: after quiescence each voter's
// decision must equal the ground-truth global majority, or the tool
// exits non-zero. Peak RSS is the process high-water mark (VmHWM), so
// run points in ascending size order (the default) — each point's
// value reflects the largest grid run so far, which is the number that
// matters for "does a 1M-resource grid fit".
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"secmr/internal/benchfmt"
	"secmr/internal/majority"
	"secmr/internal/sim"
	"secmr/internal/topology"
)

// result is the shared benchmark-summary schema (internal/benchfmt):
// the emitted file diffs with `benchjson -diff` like every other
// BENCH_*.json artifact.
type result = benchfmt.Result

func main() {
	var (
		sizes    = flag.String("n", "1600,16000,100000,1000000", "comma-separated resource counts")
		seed     = flag.Int64("seed", 1, "seed (topology, votes and engine)")
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

// runPoint builds the n-resource grid, runs it to quiescence and
// verifies every voter agrees with the ground truth.
func runPoint(n int, seed int64, maxSteps int) (result, error) {
	rng := rand.New(rand.NewSource(seed))
	delays := topology.DelayRange{Min: 1, Max: 5}
	tree := topology.BarabasiAlbert(n, 2, delays, rng).SpanningTree(0)

	// Votes: ~60% positive against λ = 1/2, so the global majority is
	// true but individual nodes disagree locally.
	nodes := make([]sim.Node, n)
	voters := make([]*majority.Node, n)
	var globalSum, globalCnt int64
	for i := 0; i < n; i++ {
		cnt := int64(20 + rng.Intn(10))
		sum := int64(float64(cnt) * (0.4 + 0.4*rng.Float64()))
		globalSum += sum
		globalCnt += cnt
		v := majority.NewNode(1, 2, sum, cnt)
		voters[i] = v
		nodes[i] = v
	}
	want := 2*globalSum-globalCnt >= 0

	e := sim.NewParallelEngine(tree, nodes, seed)
	start := time.Now()
	steps, ok := e.Quiesce(maxSteps)
	wall := time.Since(start)
	if !ok {
		return result{}, fmt.Errorf("n=%d: still %d messages pending after %d steps", n, e.Pending(), maxSteps)
	}
	agree := 0
	for _, v := range voters {
		if v.Decision() == want {
			agree++
		}
	}
	if agree != n {
		return result{}, fmt.Errorf("n=%d: only %d/%d voters agree with the global majority", n, agree, n)
	}

	return result{
		Package: "secmr/cmd/secmr-scale",
		Name:    fmt.Sprintf("BenchmarkScale/n=%d", n),
		Iters:   1,
		NsPerOp: float64(wall.Nanoseconds()),
		Metrics: map[string]float64{
			"steps":       float64(steps),
			"peak-rss-mb": peakRSSMB(),
			"messages":    float64(e.Stats().Sent),
			"workers":     float64(e.Workers()),
		},
	}, nil
}

// peakRSSMB reads the process peak resident set (VmHWM) from
// /proc/self/status; 0 when unavailable (non-Linux).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
