package experiments

import (
	"fmt"
	"io"
	"strings"

	"secmr"
	"secmr/internal/arm"
	"secmr/internal/metrics"
	"secmr/internal/quest"
)

// Figure2Row is one curve of Figure 2: one database × one algorithm.
type Figure2Row struct {
	Database  string
	Algorithm secmr.Algorithm
	Series    *metrics.Series
	// ScansTo90 is the x-position where average recall and precision
	// both reached 90% (the paper: "by the time each resource has
	// scanned its part of the database almost three times, the average
	// recall and precision have already reached 90%"). NaN-like -1
	// when never reached.
	ScansTo90 float64
	// FinalRecall/FinalPrecision are read at the stop sample, the
	// series' last: the first sample where recall and precision both
	// reach 90%, where the run stops, or MaxSteps when none does.
	FinalRecall, FinalPrecision float64
}

// Figure2 reproduces §6.1 (Figure 2): recall and precision convergence
// on T5I2, T10I4 and T20I6 for the three algorithms. Returns one row
// per (database, algorithm).
func Figure2(sc Scale, paillierBits int) ([]Figure2Row, error) {
	var rows []Figure2Row
	for _, preset := range quest.PresetNames() {
		for _, alg := range []secmr.Algorithm{secmr.AlgorithmPlain, secmr.AlgorithmKPrivate, secmr.AlgorithmSecure} {
			g, err := newGrid(alg, sc, preset, paillierBits)
			if err != nil {
				return nil, err
			}
			series := convergenceRun(g, sc, fmt.Sprintf("%s/%s", preset, alg), 0.9)
			row := Figure2Row{Database: preset, Algorithm: alg, Series: series, ScansTo90: -1}
			if p, ok := series.FirstReach(0.9); ok {
				row.ScansTo90 = p.Scans
			}
			final := series.Final()
			row.FinalRecall, row.FinalPrecision = final.Recall, final.Precision
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderFigure2 prints the rows as the paper reports them, with a
// recall sparkline per curve.
func RenderFigure2(w io.Writer, rows []Figure2Row) error {
	if _, err := fmt.Fprintf(w, "%-8s %-14s %14s %14s %14s  %s\n",
		"db", "algorithm", "scans-to-90%", "recall@stop", "prec@stop", "recall curve"); err != nil {
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
	// StepsTo90 is the first sample from which on at least 90% of the
	// resources decide the itemset correctly at every sample to the end
	// of the run; MaxSteps when the last sample falls short.
	StepsTo90 int
	// Converged is the last sample's verdict: at least 90% correct.
	Converged bool
	// MsgsPerResource is the protocol messages sent over the whole run
	// divided by the number of resources.
	MsgsPerResource float64
}

// Figure3 reproduces §6.2 (Figure 3): steps until 90% of resources
// decide a single itemset's status correctly for good, as a function
// of the number of resources, for several significance levels, with
// the messages per resource it took. Significance is
// (Σsum)/(λ·Σcount) − 1 (the figure's definition). The experiment
// uses the secure algorithm in the paper's "special case of a single
// itemset".
func Figure3(sc Scale, resourceCounts []int, significances []float64, paillierBits int) ([]Figure3Point, error) {
	var out []Figure3Point
	for _, sig := range significances {
		for _, n := range resourceCounts {
			pt, err := singleItemsetRun(sc, n, sig, paillierBits)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// VoteGrid builds the paper's "special case of a single itemset" (§6.2)
// through the facade on cfg.Resources resources with localDB votes
// each. The global database holds N = Resources·localDB votes,
// round(p·N) of them the transaction {1} and the rest empty,
// p = λ·(1+sig) with λ = 1/2, so the global vote lands at the requested
// significance and {1} is the only candidate. The positive votes are
// spread evenly in index order (a block of them first would make every
// resource's first scans vote "frequent"), and the facade
// hash-partitions them as §6 does, so each resource's local vote is a
// sample around the global one. cfg supplies the algorithm and the
// protocol knobs; the thresholds, rule cap and growth are the vote's.
func VoteGrid(cfg secmr.GridConfig, localDB int, sig float64) (*secmr.Grid, error) {
	const lambda = 0.5
	total := cfg.Resources * localDB
	pos := int(min(lambda*(1+sig), 1)*float64(total) + 0.5)
	one := arm.NewItemset(1)
	db := &arm.Database{Tx: make([]arm.Transaction, total)}
	for j := range db.Tx {
		if (j+1)*pos/total > j*pos/total {
			db.Tx[j] = one
		}
	}
	cfg.GrowthPerStep = 0
	cfg.MinFreq, cfg.MinConf, cfg.MaxRuleItems = lambda, 0.99, 1
	return secmr.NewGrid(db, cfg)
}

// singleItemsetRun runs Figure 3's vote (VoteGrid) on n secure
// resources for MaxSteps.
func singleItemsetRun(sc Scale, n int, sig float64, paillierBits int) (Figure3Point, error) {
	cfg := gridConfig(secmr.AlgorithmSecure, sc, paillierBits)
	cfg.Resources = n
	g, err := VoteGrid(cfg, sc.LocalDB, sig)
	if err != nil {
		return Figure3Point{}, err
	}
	target := arm.NewRule(nil, arm.NewItemset(1), arm.ThresholdFreq)
	want := g.Truth().Has(target)
	pt := Figure3Point{Resources: n, Significance: sig}
	for step := 0; step <= sc.MaxSteps; step += sc.SampleEvery {
		if step > 0 {
			g.Step(sc.SampleEvery)
		}
		good := 0
		for i := range n {
			if g.Output(i).Has(target) == want {
				good++
			}
		}
		ok := float64(good) >= 0.9*float64(n)
		if ok && !pt.Converged {
			pt.StepsTo90 = step
		}
		pt.Converged = ok
	}
	if !pt.Converged {
		pt.StepsTo90 = sc.MaxSteps
	}
	pt.MsgsPerResource = float64(g.Stats().MessagesSent) / float64(n)
	return pt, nil
}

// RenderFigure3 prints the scalability table: rows = resource counts,
// columns = significance levels, cells = steps to 90%.
func RenderFigure3(w io.Writer, pts []Figure3Point, resourceCounts []int, sigs []float64) error {
	type key struct {
		n int
		s float64
	}
	steps := map[key]int{}
	for _, p := range pts {
		steps[key{p.Resources, p.Significance}] = p.StepsTo90
	}
	var b strings.Builder
	b.WriteString("resources   ")
	for _, s := range sigs {
		fmt.Fprintf(&b, " %14s", fmt.Sprintf("sig=%.2f", s))
	}
	for _, n := range resourceCounts {
		fmt.Fprintf(&b, "\n%-12d", n)
		for _, s := range sigs {
			fmt.Fprintf(&b, " %14d", steps[key{n, s}])
		}
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderMessageComplexity prints the communication-locality table:
// Figure 3's points for one significance level, with the messages
// each resource sent.
func RenderMessageComplexity(w io.Writer, pts []Figure3Point) error {
	if _, err := fmt.Fprintf(w, "%-12s %18s %14s %10s\n",
		"resources", "msgs/resource", "steps-to-90%", "converged"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%-12d %18.1f %14d %10v\n",
			p.Resources, p.MsgsPerResource, p.StepsTo90, p.Converged); err != nil {
			return err
		}
	}
	return nil
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
		g, err := newGrid(secmr.AlgorithmSecure, s, "T10I4", paillierBits)
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
