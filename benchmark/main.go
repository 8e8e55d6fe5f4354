// Command benchmark is the repo's end-to-end and per-layer benchmark for
// the secure miner (facade secmr.Grid) and the mining service (secmrd's
// internal/service). See README.md for the workloads, the metric
// glossary and how layer metrics are expected to move end-to-end ones.
//
//	go run -C benchmark . --workload mine_churn_shamir --seed 1 --seconds 20 --trace 0
//	go run -C benchmark . --workload serve_steady --seed 1 --seconds 20 --trace 1
//	go run -C benchmark . -suite A.json,B.json
//	go run -C benchmark . -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// report collects one run's metrics, notes and reference-check outcome.
type report struct {
	w         *workload
	seed      int64
	traced    bool
	attempted int
	failed    int
	values    map[string]float64
	notes     []string
}

func newReport(w *workload, seed int64, traced bool) *report {
	return &report{w: w, seed: seed, traced: traced, values: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed check (and counts it as attempted).
func (r *report) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	r.note("FAIL "+format, args...)
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable lines and, last, the result object
// holding exactly the metrics of the run's mode.
func (r *report) print() result {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	fmt.Printf("# workload=%s seed=%d trace=%v gomaxprocs=%d numcpu=%d\n",
		r.w.Name, r.seed, r.traced, runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	listed := map[string]bool{}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		listed[d.Name] = true
		v := r.values[d.Name]
		fmt.Printf("%-40s %14.4f %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range r.values {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("%-40s %14.4f (informational)\n", name, r.values[name])
	}
	failFrac := 0.0
	if r.attempted > 0 {
		failFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-40s %14.6f ratio (%d of %d checks)\n", "fail_frac", failFrac, r.failed, r.attempted)
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.Correct = r.failed == 0
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return res
}

// spanDir is where a traced run writes its span log,
// spans_<workload>.jsonl: inside the checkout and named in .gitignore.
const spanDir = ".bench_out"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see README.md)")
		seed    = flag.Int64("seed", 1, "input seed: same seed, same generated inputs")
		seconds = flag.Float64("seconds", 20, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
		suite   = flag.String("suite", "", "run every workload 10 times, seeds seed..seed+9, and write the samples to this file; A.json,B.json runs two suites interleaved")
		compare = flag.Bool("compare", false, "compare two -suite files given as arguments; non-zero exit when they disagree by more than a bound")
	)
	flag.Parse()
	if *seconds <= 0 {
		fatal("-seconds must be positive")
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		os.Exit(compareSuites(flag.Arg(0), flag.Arg(1)))
	case *suite != "":
		if err := runSuite(strings.Split(*suite, ","), *seed, *seconds); err != nil {
			fatal("%v", err)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fatal("unknown workload %q", *name)
	}
	spans := filepath.Join(spanDir, "spans_"+w.Name+".jsonl")
	var rep *report
	var err error
	switch {
	case w.Kind == "mine" && *trace == 0:
		rep, err = runMine(w, *seed, w.steps(*seconds))
	case w.Kind == "mine":
		rep, err = runMineTraced(w, *seed, w.steps(*seconds), spans)
	default:
		rep, err = runServe(w, *seed, *seconds, *trace != 0, spans)
	}
	if err != nil {
		fatal("%v", err)
	}
	if res := rep.print(); !res.Correct {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
