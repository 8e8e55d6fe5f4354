package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"secmr"
	"secmr/internal/arm"
)

// tiny shrinks a workload to seconds of work, keeping its shape: same
// crypto family, feed or no feed, same thresholds.
func tiny(name string) *workload {
	w := *findWorkload(name)
	w.PoolTxns = 2000
	switch w.Kind {
	case "mine":
		w.Resources, w.K = 4, 2
		w.Items, w.Patterns, w.SeedTxns = 8, 4, 240
		w.MinFreq, w.MaxRuleItems = 0.3, 2
		if w.Crypto == secmr.CryptoPaillier {
			w.PaillierBits = 256
		}
	}
	return &w
}

func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from defs.go:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from defs.go")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in defs.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, defs.go %q", i, spec.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || d.Bound > 0.25 {
			t.Errorf("metric %+v breaks the contract (duplicate, too long or bound over 0.25)", d)
		}
		seen[d.Name] = true
	}
}

// TestWiringParity is the proof the decorators time the same program:
// the hand-assembled traced grid mines the same per-resource rule sets
// and the same protocol counters as secmr.NewGridWithFeed.
func TestWiringParity(t *testing.T) {
	for _, name := range []string{"mine_churn_shamir", "mine_static_paillier"} {
		w := tiny(name)
		const steps = 30
		in := makeMineInputs(w, 3, steps)
		facade, err := secmr.NewGridWithFeed(in.db, in.feeds, w.gridConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer facade.Close()
		traced, err := assembleTracedGrid(w, makeMineInputs(w, 3, steps), newTracer())
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < steps; s++ {
			facade.Step(1)
			traced.Step()
		}
		for i := 0; i < w.Resources; i++ {
			if a, b := facade.Output(i), traced.Output(i); !reflect.DeepEqual(a, b) {
				t.Errorf("%s resource %d: facade mined %d rules, traced grid %d, sets differ", name, i, len(a), len(b))
			}
		}
		a, b := facade.Stats(), traced.Stats()
		if a.MessagesSent != b.MessagesSent || a.SFEs != b.SFEs || a.Fresh != b.Fresh || a.Gated != b.Gated ||
			a.EngineSent != b.EngineSent || a.EngineDelivered != b.EngineDelivered {
			t.Errorf("%s: facade %+v, traced %+v", name, a, b)
		}
		if a.SFEs == 0 || traced.t.calls[spTick] != int64(steps*w.Resources) {
			t.Errorf("%s: %d SFEs, %d traced ticks: the run did no work or the wrappers missed it", name, a.SFEs, traced.t.calls[spTick])
		}
	}
}

// TestCountsRepeat: on one seed the count metrics of a traced mine run
// repeat exactly; wire bytes too where ciphertext sizes are fixed.
func TestCountsRepeat(t *testing.T) {
	counts := []string{"core.sfe_per_step", "sim.msgs_per_step", "core.rulecipher_msgs_per_step", "core.wire_bytes_per_step"}
	for _, name := range []string{"mine_churn_shamir", "mine_static_paillier"} {
		w := tiny(name)
		var runs [2]*report
		for i := range runs {
			rep, err := runMineTraced(w, 5, 25, "")
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Fatalf("%s: reference check failed: %v", name, rep.notes)
			}
			runs[i] = rep
		}
		for _, c := range counts {
			if c == "core.wire_bytes_per_step" && w.Crypto == secmr.CryptoPaillier {
				continue
			}
			if a, b := runs[0].values[c], runs[1].values[c]; a != b || a == 0 {
				t.Errorf("%s %s: %v then %v", name, c, a, b)
			}
		}
	}
}

// TestSeedChangesInputsOnly: one seed, one input; another seed, another
// sample of the same pool over the same universe.
func TestSeedChangesInputsOnly(t *testing.T) {
	w := tiny("mine_churn_shamir")
	a, b, c := makeMineInputs(w, 1, 10), makeMineInputs(w, 1, 10), makeMineInputs(w, 2, 10)
	if !reflect.DeepEqual(a.db, b.db) || !reflect.DeepEqual(a.feeds, b.feeds) {
		t.Error("same seed, different inputs")
	}
	if reflect.DeepEqual(a.db, c.db) || reflect.DeepEqual(a.feeds, c.feeds) {
		t.Error("different seeds, same inputs")
	}
	if !a.universe.Equal(c.universe) {
		t.Errorf("seeds 1 and 2 disagree on the item universe: %v vs %v", a.universe, c.universe)
	}
	short, long := makeMineInputs(w, 1, 4), a
	for i := range short.feeds {
		if !reflect.DeepEqual(short.feeds[i], long.feeds[i][:len(short.feeds[i])]) {
			t.Errorf("feed %d sized for 4 steps is not a prefix of the one sized for 10", i)
		}
	}
}

// TestMarkerRate: embedded marker items stay at their rate to within one
// transaction over any prefix, the property wave sizing rests on.
func TestMarkerRate(t *testing.T) {
	w := findWorkload("serve_steady")
	s := newSampler(w, 1)
	rate := w.MarkerSeedFreq * w.MinFreq
	counts := make([]int, w.Markers)
	for n := 1; n <= 3000; n++ {
		for _, it := range s.next() {
			if j := int(it) - w.Items; j >= 0 {
				counts[j]++
			}
		}
		for j, c := range counts {
			if math.Abs(float64(c)-rate*float64(n)) > 1 {
				t.Fatalf("marker %d in %d of the first %d transactions, want %.1f", j, c, n, rate*float64(n))
			}
		}
	}
}

func TestUntracedMineRun(t *testing.T) {
	rep, err := runMine(tiny("mine_churn_shamir"), 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("reference check failed: %v", rep.notes)
	}
	for _, d := range endToEnd {
		if rep.values[d.Name] <= 0 {
			t.Errorf("%s = %v", d.Name, rep.values[d.Name])
		}
	}
}

// TestServeRuns drives both serve workloads for two seconds, traced, and
// holds them to their own reference checks.
func TestServeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts two services")
	}
	for _, name := range []string{"serve_steady", "serve_overload"} {
		w := *findWorkload(name)
		w.PoolTxns, w.WaveDeadline = 4000, 20*time.Second
		if w.Markers > 0 {
			w.Markers = 3 // a run lasts as long as its waves
		}
		rep, err := runServe(&w, 1, 2, true, "")
		if err != nil {
			t.Fatal(err)
		}
		if rep.failed != 0 {
			t.Errorf("%s: %d of %d checks failed: %v", name, rep.failed, rep.attempted, rep.notes)
		}
		if rep.values["service.steps_per_s"] <= 0 || rep.values["store.put_calls"] <= 0 {
			t.Errorf("%s: steps_per_s=%v put_calls=%v", name, rep.values["service.steps_per_s"], rep.values["store.put_calls"])
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("median = %v", got)
	}
}

// TestDisagree: the agreement rule does not depend on which suite comes
// first, and a metric that measured nothing fails its row.
func TestDisagree(t *testing.T) {
	d := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25}
	flat := func(v float64) []float64 { return []float64{v, v, v, v} }
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{flat(100), flat(120), ""},
		{flat(100), flat(130), " DRIFT"},
		{flat(130), flat(100), " DRIFT"},
		{flat(100), flat(0), " EMPTY DRIFT"},
		{flat(100), nil, " EMPTY DRIFT"},
		{[]float64{60, 90, 110, 140}, flat(100), " SPREAD"},
	} {
		if _, got := disagree(d, c.a, c.b); got != c.want {
			t.Errorf("disagree(%v, %v) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}

// TestCalibrator: slices are booked per calibEvery of work, and the
// factor is reference time over measured time.
func TestCalibrator(t *testing.T) {
	var none *calibrator // what a run that reports times as measured passes
	none.beside(time.Second)
	if none.factor() != 1 {
		t.Errorf("nil calibrator's factor = %v", none.factor())
	}
	c := newCalibrator()
	if c.factor() != 1 {
		t.Errorf("factor before any slice = %v", c.factor())
	}
	c.beside(calibEvery / 2)
	c.beside(2 * calibEvery)
	if c.slices != 2 || c.owed != calibEvery/2 {
		t.Errorf("after 2.5 periods of work: %d slices, %v owed", c.slices, c.owed)
	}
	if want := float64(calibRef) * 2 / float64(c.spent); c.factor() != want {
		t.Errorf("factor = %v, want %v", c.factor(), want)
	}
}

func TestOutputLogFirstReach(t *testing.T) {
	r := func(items ...arm.Item) arm.Rule { return arm.NewRule(nil, arm.NewItemset(items...), arm.ThresholdFreq) }
	truth := arm.NewRuleSet(r(1), r(2))
	var l outputLog
	l.record([]arm.RuleSet{arm.NewRuleSet(r(1))}, 5, time.Second, 1)
	l.record([]arm.RuleSet{arm.NewRuleSet(r(1), r(2), r(3))}, 10, 2*time.Second, 1)
	l.record([]arm.RuleSet{arm.NewRuleSet(r(1), r(2))}, 15, 3*time.Second, 1)
	if c, ok := l.firstReach(truth, 0.9); !ok || l.step[c] != 15 || l.at[c] != 3*time.Second {
		t.Errorf("firstReach = check %d, %v", c, ok)
	}
}
