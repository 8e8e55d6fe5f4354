package secmr_test

// Benchmark harness: one benchmark per figure of the paper's
// evaluation (§6) plus the ablations DESIGN.md calls out. Each figure
// benchmark runs the same harness cmd/experiments uses and reports the
// paper's headline quantity as a custom benchmark metric, so
// `go test -bench=. -benchmem` regenerates every figure's numbers.
//
// Scales: benchmarks default to a small grid so the whole suite runs
// in minutes. Set SECMR_FULL=1 for the larger CI scale (the paper's
// 2,000-resource scale is available via `cmd/experiments -scale
// paper`).

import (
	"os"
	"runtime"
	"testing"

	"secmr"
	"secmr/internal/experiments"
)

// benchScale picks the experiment scale for figure benchmarks.
func benchScale() experiments.Scale {
	sc := experiments.CI()
	if os.Getenv("SECMR_FULL") == "" {
		sc.Resources = 8
		sc.LocalDB = 150
		sc.K = 3
		sc.ScanBudget = 50
		sc.MaxSteps = 2000
		sc.SampleEvery = 40
		sc.NumItems = 24
		sc.NumPatterns = 10
		sc.GrowthPerStep = 0
	}
	return sc
}

// BenchmarkFigure2ConvergenceRate regenerates Figure 2: recall and
// precision convergence of the three algorithms on T5I2, T10I4 and
// T20I6. The reported metric is the secure algorithm's scans-to-90%
// on T10I4 (the paper: ≈3 scans, vs ≈2 for k-private and ≈1 for
// plain).
func BenchmarkFigure2ConvergenceRate(b *testing.B) {
	sc := benchScale()
	var lastRows []experiments.Figure2Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure2(sc, 0)
		if err != nil {
			b.Fatal(err)
		}
		lastRows = rows
	}
	for _, r := range lastRows {
		if r.Database == "T10I4" {
			switch r.Algorithm {
			case secmr.AlgorithmSecure:
				b.ReportMetric(r.ScansTo90, "secure-scans-to-90%")
			case secmr.AlgorithmKPrivate:
				b.ReportMetric(r.ScansTo90, "kpriv-scans-to-90%")
			case secmr.AlgorithmPlain:
				b.ReportMetric(r.ScansTo90, "plain-scans-to-90%")
			}
		}
	}
	if err := experiments.RenderFigure2(testWriter{b}, lastRows); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFigure3Scalability regenerates Figure 3: steps to 90%
// correct deciders vs the number of resources, single-itemset case.
// The reported metrics expose the locality claim: the step count at
// the largest size divided by the smallest (≈1 means size-independent
// convergence).
func BenchmarkFigure3Scalability(b *testing.B) {
	sc := benchScale()
	sc.LocalDB = 100
	sc.SampleEvery = 10
	counts := []int{8, 32, 128}
	if os.Getenv("SECMR_FULL") != "" {
		counts = []int{50, 100, 200, 400, 800}
	}
	sigs := []float64{0.06, 0.24}
	var pts []experiments.Figure3Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure3(sc, counts, sigs, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	small, large := 0, 0
	for _, p := range pts {
		if p.Significance == 0.24 {
			if p.Resources == counts[0] {
				small = p.StepsTo90
			}
			if p.Resources == counts[len(counts)-1] {
				large = p.StepsTo90
			}
		}
	}
	if small > 0 {
		b.ReportMetric(float64(large)/float64(small), "steps-ratio-largest/smallest")
	}
	if err := experiments.RenderFigure3(testWriter{b}, pts, counts, sigs); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFigure4PrivacyParameter regenerates Figure 4: steps to 90%
// recall vs the privacy parameter k on T10I4. The paper finds the
// dependency logarithmic; the reported metrics give the step counts at
// the sweep's endpoints.
func BenchmarkFigure4PrivacyParameter(b *testing.B) {
	sc := benchScale()
	ks := []int64{1, 2, 4}
	if os.Getenv("SECMR_FULL") != "" {
		ks = []int64{1, 2, 4, 8}
	}
	var pts []experiments.Figure4Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure4(sc, ks, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pts[0].StepsTo90), "steps-at-kmin")
	b.ReportMetric(float64(pts[len(pts)-1].StepsTo90), "steps-at-kmax")
	if err := experiments.RenderFigure4(testWriter{b}, pts); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationMachinery (A1) measures the per-step cost of the
// three protocol stacks at identical scale — the price of the
// malicious-participant machinery.
func BenchmarkAblationMachinery(b *testing.B) {
	for _, alg := range []secmr.Algorithm{secmr.AlgorithmPlain, secmr.AlgorithmKPrivate, secmr.AlgorithmSecure} {
		b.Run(string(alg), func(b *testing.B) {
			db := secmr.GenerateQuestWith(secmr.QuestParams{NumTransactions: 1200, NumItems: 24,
				NumPatterns: 10, AvgTransLen: 5, AvgPatternLen: 2, Seed: 1})
			grid, err := secmr.NewGrid(db, secmr.GridConfig{Algorithm: alg, Resources: 8, K: 3,
				MinFreq: 0.12, MinConf: 0.6, ScanBudget: 50, MaxRuleItems: 3, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			grid.Step(30) // warm-up: candidate lattice exists
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				grid.Step(1)
			}
		})
	}
}

// BenchmarkAblationPaddingDance (A3) measures the cost of Algorithm
// 1's ±E(1) obfuscation sequence: per-step time with the dance on
// versus off.
func BenchmarkAblationPaddingDance(b *testing.B) {
	for _, dance := range []bool{false, true} {
		name := "off"
		if dance {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			db := secmr.GenerateQuestWith(secmr.QuestParams{NumTransactions: 800, NumItems: 20,
				NumPatterns: 8, AvgTransLen: 5, AvgPatternLen: 2, Seed: 2})
			grid, err := secmr.NewGrid(db, secmr.GridConfig{Algorithm: secmr.AlgorithmSecure,
				Resources: 8, K: 3, MinFreq: 0.12, MinConf: 0.6, ScanBudget: 50,
				MaxRuleItems: 3, PaddingDance: dance, Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			grid.Step(20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				grid.Step(1)
			}
		})
	}
}

// BenchmarkAblationMessageComplexity (A4) measures communication
// locality on Figure 3's sweep at one significance: messages per
// resource over a run of a significant vote must stay flat as the grid
// grows (§1's million-resource scalability claim, from the
// communication side).
func BenchmarkAblationMessageComplexity(b *testing.B) {
	sc := benchScale()
	sc.LocalDB = 100
	sc.SampleEvery = 25
	sc.MaxSteps = 1500
	counts := []int{16, 64, 256}
	var pts []experiments.Figure3Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure3(sc, counts, []float64{0.24}, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].MsgsPerResource, "msgs/resource-small")
	b.ReportMetric(pts[len(pts)-1].MsgsPerResource, "msgs/resource-large")
	if err := experiments.RenderMessageComplexity(testWriter{b}, pts); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEndToEndSecureMining is the headline macro-benchmark: full
// secure mining to 90/90 quality on a small grid.
func BenchmarkEndToEndSecureMining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := secmr.GenerateQuestWith(secmr.QuestParams{NumTransactions: 1200, NumItems: 24,
			NumPatterns: 10, AvgTransLen: 5, AvgPatternLen: 2, Seed: 1})
		grid, err := secmr.NewGrid(db, secmr.GridConfig{Algorithm: secmr.AlgorithmSecure, Resources: 8,
			K: 3, MinFreq: 0.12, MinConf: 0.6, ScanBudget: 50, MaxRuleItems: 3, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !grid.RunUntilQuality(0.9, 3000) {
			b.Fatal("no convergence")
		}
	}
}

// BenchmarkGridStepTelemetry measures what telemetry costs a mining
// step: the churn grid (8 Shamir resources, k = 3, GrowthPerStep 10, the
// geometry of BENCHMARK.json's mine_churn_shamir) stepped with
// Telemetry off and on. A Telemetry sink holds the engine at one worker,
// so both run at GOMAXPROCS 1 and differ by the telemetry alone. The
// step count after 20 warm steps is b.N; compare the two ns/op.
func BenchmarkGridStepTelemetry(b *testing.B) {
	const resources, growth, seedTxns, warm = 8, 10, 1200, 20
	for _, bc := range []struct {
		name string
		tel  func() *secmr.Telemetry
	}{
		{"off", func() *secmr.Telemetry { return nil }},
		{"on", secmr.NewTelemetry},
	} {
		b.Run(bc.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			all := secmr.GenerateQuestWith(secmr.QuestParams{NumTransactions: seedTxns + resources*growth*(warm+b.N),
				NumItems: 24, NumPatterns: 10, AvgTransLen: 5, AvgPatternLen: 2, Seed: 7})
			feeds := make([][]secmr.Transaction, resources)
			for i, tx := range all.Tx[seedTxns:] {
				feeds[i%resources] = append(feeds[i%resources], tx)
			}
			grid, err := secmr.NewGridWithFeed(&secmr.Database{Tx: all.Tx[:seedTxns]}, feeds, secmr.GridConfig{
				Algorithm: secmr.AlgorithmSecure, Crypto: secmr.CryptoShamir, Resources: resources, K: 3,
				MinFreq: 0.12, MinConf: 0.6, ScanBudget: 50, MaxRuleItems: 3,
				GrowthPerStep: growth, Seed: 1, Telemetry: bc.tel(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer grid.Close()
			grid.Step(warm)
			b.ResetTimer()
			grid.Step(b.N)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}

// testWriter adapts b.Logf to io.Writer so rendered figure tables land
// in the benchmark log.
type testWriter struct{ b *testing.B }

func (w testWriter) Write(p []byte) (int, error) {
	w.b.Logf("%s", p)
	return len(p), nil
}
