package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// suiteFile is what -suite writes: per workload, per end-to-end metric,
// one value per run.
type suiteFile struct {
	Seconds float64                         `json:"seconds"`
	Seeds   []int64                         `json:"seeds"`
	Samples map[string]map[string][]float64 `json:"samples"`
	Failed  map[string]int                  `json:"failed"`
}

// suiteRuns is the number of runs per workload in a suite, one seed each.
const suiteRuns = 10

// runSuite runs every workload suiteRuns times untraced, each run in its
// own process (peak RSS is a per-process high-water mark), once per path,
// and writes each path's samples. With two paths the suites are
// interleaved run by run (A1 B1 B2 A2 A3 B3 ...), so that a stretch in
// which the machine is slow falls on both alike: on the build VM the same
// work takes up to a quarter longer for minutes at a time.
func runSuite(paths []string, seed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	suites := make([]suiteFile, len(paths))
	for p := range suites {
		suites[p] = suiteFile{Seconds: seconds, Samples: map[string]map[string][]float64{}, Failed: map[string]int{}}
		for i := 0; i < suiteRuns; i++ {
			suites[p].Seeds = append(suites[p].Seeds, seed+int64(i))
		}
	}
	for _, w := range workloads {
		for p := range suites {
			suites[p].Samples[w.Name] = map[string][]float64{}
		}
		for i := 0; i < suiteRuns; i++ {
			for j := range suites {
				p := j
				if i%2 == 1 {
					p = len(suites) - 1 - j // alternate which suite goes first
				}
				out, s := &suites[p], seed+int64(i)
				cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(s, 10),
					"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0")
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				res, perr := lastResult(stdout)
				if perr != nil {
					return fmt.Errorf("%s seed %d: %v (run error: %v)", w.Name, s, perr, err)
				}
				if !res.Correct {
					out.Failed[w.Name]++
				}
				var row []string
				for _, d := range endToEnd {
					v := res.Metrics[d.Name].Value
					out.Samples[w.Name][d.Name] = append(out.Samples[w.Name][d.Name], v)
					row = append(row, fmt.Sprintf("%s=%.4g", d.Name, v))
				}
				fmt.Printf("%s %s seed=%d correct=%v %s\n", paths[p], w.Name, s, res.Correct, strings.Join(row, " "))
			}
		}
	}
	for p, path := range paths {
		data, err := json.MarshalIndent(suites[p], "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// disagree holds one row to the agreement rule: how far the two medians
// are apart as a share of the smaller, and what is wrong with the row, ""
// when nothing is. The rule is the same whichever suite is given first.
func disagree(d metricDef, xa, xb []float64) (differ float64, verdict string) {
	ma, mb := median(xa), median(xb)
	differ = math.Inf(1)
	if ma > 0 && mb > 0 {
		differ = math.Abs(mb-ma) / math.Min(ma, mb)
	} else {
		// No samples, or a metric that read 0: nothing was measured.
		verdict = " EMPTY"
	}
	if d.Name != "setup_s" && (iqrShare(xa) > d.Bound || iqrShare(xb) > d.Bound) {
		verdict += " SPREAD"
	}
	if differ > d.Bound {
		verdict += " DRIFT"
	}
	return differ, verdict
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(stdout []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result object on the last line: %v", err)
	}
	return res, nil
}

// compareSuites prints, per workload and end-to-end metric, both suites'
// medians and spreads, and returns 1 when a spread (setup_s excepted)
// exceeds the metric's bound, when the two medians differ by more than
// the bound in either direction (as a share of the smaller), or when a
// median is empty or not positive.
func compareSuites(pathA, pathB string) int {
	var a, b suiteFile
	for _, f := range []struct {
		path string
		into *suiteFile
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(data, f.into)
		}
		if err != nil {
			fatal("%s: %v", f.path, err)
		}
	}
	bad := 0
	fmt.Printf("%-22s %-14s %12s %8s %12s %8s %8s %6s\n",
		"workload", "metric", "median A", "iqr A", "median B", "iqr B", "differ", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			xa, xb := a.Samples[w.Name][d.Name], b.Samples[w.Name][d.Name]
			ma, mb := median(xa), median(xb)
			sa, sb := iqrShare(xa), iqrShare(xb)
			differ, verdict := disagree(d, xa, xb)
			if verdict != "" {
				bad++
			}
			fmt.Printf("%-22s %-14s %12.4f %7.1f%% %12.4f %7.1f%% %7.1f%% %5.0f%%%s\n",
				w.Name, d.Name, ma, 100*sa, mb, 100*sb, 100*differ, 100*d.Bound, verdict)
		}
		if a.Failed[w.Name]+b.Failed[w.Name] > 0 {
			bad++
			fmt.Printf("%-22s reference check failed in %d runs of A, %d of B\n", w.Name, a.Failed[w.Name], b.Failed[w.Name])
		}
	}
	if bad > 0 {
		fmt.Printf("%d rows outside their bound\n", bad)
		return 1
	}
	fmt.Println("all rows within their bound")
	return 0
}
