package experiments

import (
	crand "crypto/rand"
	"fmt"
	"io"
	"math/rand"

	"secmr/internal/arm"
	"secmr/internal/core"
	"secmr/internal/homo"
	"secmr/internal/metrics"
	"secmr/internal/paillier"
	"secmr/internal/quest"
	"secmr/internal/sim"
	"secmr/internal/topology"
)

// schemeFor builds the homomorphic scheme the single-itemset runs use:
// the plain stand-in, or Paillier when paillierBits > 0 (the figures
// count protocol steps, which are scheme independent).
func schemeFor(paillierBits int) (homo.Scheme, error) {
	if paillierBits > 0 {
		return paillier.GenerateKey(crand.Reader, paillierBits)
	}
	return homo.NewPlain(96), nil
}

// Figure2Row is one curve of Figure 2: one database × one algorithm.
type Figure2Row struct {
	Database  string
	Algorithm Algorithm
	Series    *metrics.Series
	// ScansTo90 is the x-position where average recall and precision
	// both reached 90% (the paper: "by the time each resource has
	// scanned its part of the database almost three times, the average
	// recall and precision have already reached 90%"). NaN-like -1
	// when never reached.
	ScansTo90 float64
	// FinalRecall/FinalPrecision at the end of the run.
	FinalRecall, FinalPrecision float64
}

// Figure2 reproduces §6.1 (Figure 2): recall and precision convergence
// on T5I2, T10I4 and T20I6 for the three algorithms. Returns one row
// per (database, algorithm).
func Figure2(sc Scale, paillierBits int) ([]Figure2Row, error) {
	var rows []Figure2Row
	for _, preset := range quest.PresetNames() {
		for _, alg := range Algorithms() {
			g, err := newGrid(alg, sc, preset, paillierBits)
			if err != nil {
				return nil, err
			}
			series := convergenceRun(g, sc, fmt.Sprintf("%s/%s", preset, alg), 0.9)
			row := Figure2Row{Database: preset, Algorithm: alg, Series: series, ScansTo90: -1}
			if p, ok := firstReachBoth(series, 0.9); ok {
				row.ScansTo90 = p.Scans
			}
			final := series.Final()
			row.FinalRecall, row.FinalPrecision = final.Recall, final.Precision
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// firstReachBoth finds the first sample where recall AND precision hit
// the threshold.
func firstReachBoth(s *metrics.Series, target float64) (metrics.Point, bool) {
	for _, p := range s.Points {
		if p.Recall >= target && p.Precision >= target {
			return p, true
		}
	}
	return metrics.Point{}, false
}

// RenderFigure2 prints the rows as the paper reports them, with a
// recall sparkline per curve.
func RenderFigure2(w io.Writer, rows []Figure2Row) error {
	if _, err := fmt.Fprintf(w, "%-8s %-14s %14s %14s %14s  %s\n",
		"db", "algorithm", "scans-to-90%", "final recall", "final prec", "recall curve"); err != nil {
		return err
	}
	for _, r := range rows {
		scans := "never"
		if r.ScansTo90 >= 0 {
			scans = fmt.Sprintf("%.2f", r.ScansTo90)
		}
		if _, err := fmt.Fprintf(w, "%-8s %-14s %14s %14.3f %14.3f  %s\n",
			r.Database, r.Algorithm, scans, r.FinalRecall, r.FinalPrecision,
			metrics.RecallSparkline(r.Series)); err != nil {
			return err
		}
	}
	return nil
}

// Figure3Point is one sample of the scalability experiment.
type Figure3Point struct {
	Resources    int
	Significance float64
	StepsTo90    int
	Converged    bool
}

// Figure3 reproduces §6.2 (Figure 3): steps until 90% of resources
// decide a single itemset's status correctly, as a function of the
// number of resources, for several significance levels. Significance
// is (Σsum)/(λ·Σcount) − 1 (the figure's definition); each resource
// holds LocalDB single-item transactions with the positive fraction
// tuned so the global vote lands at the requested significance. The
// experiment uses the secure algorithm in the paper's "special case of
// a single itemset".
func Figure3(sc Scale, resourceCounts []int, significances []float64, paillierBits int) ([]Figure3Point, error) {
	scheme, err := schemeFor(paillierBits)
	if err != nil {
		return nil, err
	}
	var out []Figure3Point
	for _, sig := range significances {
		for _, n := range resourceCounts {
			run := singleItemsetRun(sc, scheme, n, sig)
			out = append(out, Figure3Point{Resources: n, Significance: sig,
				StepsTo90: run.StepsTo90, Converged: run.Converged})
		}
	}
	return out, nil
}

// singleItemsetRun builds the paper's "special case of a single
// itemset" on n secure resources and runs it until 90% of them decide
// the itemset's status correctly (or MaxSteps), counting the messages
// sent. Each resource holds LocalDB single-item transactions, the same
// deterministic vote split around λ·(1+sig), so the global vote lands
// exactly at the requested significance. Figure 3 and
// MessageComplexity share it. The exact per-resource split is why it
// wires core resources itself rather than going through the facade,
// which hash-partitions one global database.
func singleItemsetRun(sc Scale, scheme homo.Scheme, n int, sig float64) MessagePoint {
	const lambda = 0.5
	rng := rand.New(rand.NewSource(sc.Seed))
	p := min(lambda*(1+sig), 1) // positive-vote fraction
	cfg := core.Config{Th: arm.Thresholds{MinFreq: lambda, MinConf: 0.99},
		Universe: arm.NewItemset(1), ScanBudget: sc.ScanBudget,
		CandidateEvery: sc.CandidateEvery, K: sc.K, MaxRuleItems: 1, IntraDelay: true}
	tree := topology.BarabasiAlbert(n, 2, topology.DelayRange{Min: 1, Max: 3}, rng).SpanningTree(0)
	pos := int(p*float64(sc.LocalDB) + 0.5)
	resources := make([]*core.Resource, n)
	nodes := make([]sim.Node, n)
	for i := range resources {
		db := &arm.Database{}
		for j := 0; j < sc.LocalDB; j++ {
			if j < pos {
				db.Append(arm.NewItemset(1))
			} else {
				db.Append(arm.NewItemset(2))
			}
		}
		resources[i] = core.NewResource(i, cfg, scheme, db, nil, nil)
		nodes[i] = resources[i]
	}
	engine := sim.NewParallelEngine(tree, nodes, sc.Seed)
	target := arm.NewRule(nil, arm.NewItemset(1), arm.ThresholdFreq)
	want := sig >= 0 // positive significance ⇒ frequent
	pt := MessagePoint{Resources: n, Significance: sig, StepsTo90: sc.MaxSteps}
	for step := 0; step <= sc.MaxSteps; step += sc.SampleEvery {
		good := 0
		for _, r := range resources {
			if r.Output().Has(target) == want {
				good++
			}
		}
		if float64(good) >= 0.9*float64(n) {
			pt.StepsTo90, pt.Converged = step, true
			break
		}
		engine.Run(sc.SampleEvery)
	}
	var total int64
	for _, r := range resources {
		total += r.Stats().MessagesSent
	}
	pt.MsgsPerResource = float64(total) / float64(n)
	return pt
}

// RenderFigure3 prints the scalability table: rows = resource counts,
// columns = significance levels.
func RenderFigure3(w io.Writer, pts []Figure3Point, resourceCounts []int, sigs []float64) error {
	t := &metrics.Table{XLabel: "resources"}
	for _, s := range sigs {
		t.Columns = append(t.Columns, fmt.Sprintf("sig=%.2f", s))
	}
	byKey := map[string]Figure3Point{}
	for _, p := range pts {
		byKey[fmt.Sprintf("%d/%.3f", p.Resources, p.Significance)] = p
	}
	for _, n := range resourceCounts {
		row := []float64{float64(n)}
		for _, s := range sigs {
			row = append(row, float64(byKey[fmt.Sprintf("%d/%.3f", n, s)].StepsTo90))
		}
		t.Rows = append(t.Rows, row)
	}
	return t.Render(w)
}

// Figure4Point is one sample of the privacy-parameter experiment.
type Figure4Point struct {
	K         int64
	StepsTo90 int
	Scans     float64
	Converged bool
}

// Figure4 reproduces §6.3 (Figure 4): steps to 90% recall on T10I4 as
// a function of the privacy parameter k — the paper finds the
// dependency logarithmic.
func Figure4(sc Scale, ks []int64, paillierBits int) ([]Figure4Point, error) {
	var out []Figure4Point
	for _, k := range ks {
		s := sc
		s.K = k
		g, err := newGrid(AlgSecure, s, "T10I4", paillierBits)
		if err != nil {
			return nil, err
		}
		pt := Figure4Point{K: k, StepsTo90: s.MaxSteps}
		for step := 0; step <= s.MaxSteps; step += s.SampleEvery {
			if rec, _ := g.Quality(); rec >= 0.9 {
				pt.StepsTo90, pt.Converged = step, true
				break
			}
			g.Step(s.SampleEvery)
		}
		pt.Scans = s.scans(pt.StepsTo90)
		out = append(out, pt)
	}
	return out, nil
}

// RenderFigure4 prints the k-sweep.
func RenderFigure4(w io.Writer, pts []Figure4Point) error {
	if _, err := fmt.Fprintf(w, "%-8s %14s %14s %10s\n", "k", "steps-to-90%", "scans", "converged"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%-8d %14d %14.2f %10v\n", p.K, p.StepsTo90, p.Scans, p.Converged); err != nil {
			return err
		}
	}
	return nil
}
