package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"secmr"
)

// near reports whether two figure values agree to rounding noise.
func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// tiny returns a scale small enough for unit tests.
func tiny() Scale {
	sc := CI()
	sc.Resources = 6
	sc.LocalDB = 120
	sc.MaxSteps = 1200
	sc.SampleEvery = 30
	sc.NumItems = 20
	sc.NumPatterns = 8
	sc.K = 2
	sc.GrowthPerStep = 0
	return sc
}

func TestFigure2ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure-2 sweep")
	}
	rows, err := Figure2(tiny(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 3 databases × 3 algorithms
		t.Fatalf("got %d rows", len(rows))
	}
	// Pinned tiny()-scale results: the harness's wiring (partitioning,
	// overlay, feeds, engine) may change only if these stay put.
	want := []struct {
		db                string
		alg               secmr.Algorithm
		scansTo90, rc, pc float64
	}{
		{"T5I2", secmr.AlgorithmPlain, 12.5, 0.9991708126036484, 0.9950576338422019},
		{"T5I2", secmr.AlgorithmKPrivate, 12.5, 1, 1},
		{"T5I2", secmr.AlgorithmSecure, 12.5, 0.9983416252072969, 0.9934153972903875},
		{"T10I4", secmr.AlgorithmPlain, 12.5, 0.9962089300758215, 0.9962125600886728},
		{"T10I4", secmr.AlgorithmKPrivate, 12.5, 0.9994383600112329, 0.9959534900509022},
		{"T10I4", secmr.AlgorithmSecure, 12.5, 0.9948048301039035, 0.9766188901125319},
		{"T20I6", secmr.AlgorithmPlain, 12.5, 0.9981057018374692, 0.9996527232210065},
		{"T20I6", secmr.AlgorithmKPrivate, 12.5, 0.9990844225547768, 0.9996843490103605},
		{"T20I6", secmr.AlgorithmSecure, 12.5, 0.9993685672791562, 0.998581620136222},
	}
	for i, w := range want {
		r := rows[i]
		if r.Database != w.db || r.Algorithm != w.alg || !near(r.ScansTo90, w.scansTo90) ||
			!near(r.FinalRecall, w.rc) || !near(r.FinalPrecision, w.pc) {
			t.Errorf("row %d = %s/%s scans %v recall %v precision %v, want %s/%s %v %v %v",
				i, r.Database, r.Algorithm, r.ScansTo90, r.FinalRecall, r.FinalPrecision,
				w.db, w.alg, w.scansTo90, w.rc, w.pc)
		}
	}
	perDB := map[string]map[secmr.Algorithm]Figure2Row{}
	for _, r := range rows {
		if perDB[r.Database] == nil {
			perDB[r.Database] = map[secmr.Algorithm]Figure2Row{}
		}
		perDB[r.Database][r.Algorithm] = r
	}
	for db, algs := range perDB {
		plain, secure := algs[secmr.AlgorithmPlain], algs[secmr.AlgorithmSecure]
		if plain.ScansTo90 < 0 {
			t.Errorf("%s: plain never reached 90/90", db)
			continue
		}
		// The paper's headline ordering: the secure algorithm needs
		// more scans than the plain baseline (3 vs 1 in the paper).
		if secure.ScansTo90 >= 0 && secure.ScansTo90 < plain.ScansTo90 {
			t.Errorf("%s: secure (%.2f scans) beat plain (%.2f scans)",
				db, secure.ScansTo90, plain.ScansTo90)
		}
	}
	var buf bytes.Buffer
	if err := RenderFigure2(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "T10I4") {
		t.Fatal("render missing database name")
	}
	// The run stops at the first 90/90 sample, so the header must not
	// call its recall and precision final.
	if !strings.Contains(buf.String(), "recall@stop") || !strings.Contains(buf.String(), "prec@stop") {
		t.Fatalf("render header does not name the stop sample:\n%s", buf.String())
	}
}

// fig3Counts and fig3Sigs are the tiny-scale Figure 3 sweep that
// TestFigure3LocalityShape and TestMessageComplexityLocality both read.
var (
	fig3Counts = []int{16, 64}
	fig3Sigs   = []float64{-0.02, 0.12, 0.24}
	fig3Once   sync.Once
	fig3Pts    []Figure3Point
	fig3Err    error
)

// fig3Scale is tiny() with 100-vote local databases sampled every
// fifth step, the candidate-generation period.
func fig3Scale() Scale {
	sc := tiny()
	sc.LocalDB = 100
	sc.MaxSteps = 2000
	sc.SampleEvery = 5
	return sc
}

// fig3Sweep runs the shared sweep once per test binary.
func fig3Sweep(t *testing.T) []Figure3Point {
	t.Helper()
	if testing.Short() {
		t.Skip("full figure-3 sweep")
	}
	fig3Once.Do(func() { fig3Pts, fig3Err = Figure3(fig3Scale(), fig3Counts, fig3Sigs, 0) })
	if fig3Err != nil {
		t.Fatal(fig3Err)
	}
	return fig3Pts
}

func TestFigure3LocalityShape(t *testing.T) {
	pts := fig3Sweep(t)
	// Pinned tiny()-scale results, as in TestFigure2ShapeHolds.
	want := []Figure3Point{
		{Resources: 16, Significance: -0.02, StepsTo90: 0, Converged: true, MsgsPerResource: 9.125},
		{Resources: 64, Significance: -0.02, StepsTo90: 0, Converged: true, MsgsPerResource: 21.21875},
		{Resources: 16, Significance: 0.12, StepsTo90: 10, Converged: true, MsgsPerResource: 20.125},
		{Resources: 64, Significance: 0.12, StepsTo90: 10, Converged: true, MsgsPerResource: 25.921875},
		{Resources: 16, Significance: 0.24, StepsTo90: 10, Converged: true, MsgsPerResource: 19.3125},
		{Resources: 64, Significance: 0.24, StepsTo90: 10, Converged: true, MsgsPerResource: 21.015625},
	}
	if len(pts) != len(want) {
		t.Fatalf("got %d points, want %d", len(pts), len(want))
	}
	for i, w := range want {
		if p := pts[i]; p.Resources != w.Resources || p.Significance != w.Significance ||
			p.StepsTo90 != w.StepsTo90 || p.Converged != w.Converged || !near(p.MsgsPerResource, w.MsgsPerResource) {
			t.Errorf("point %d = %+v, want %+v", i, p, w)
		}
	}
	// Locality: steps at 64 resources must not explode relative to 16
	// (the paper: a constant beyond some size).
	sc := fig3Scale()
	for i := range fig3Sigs {
		small, large := pts[2*i], pts[2*i+1]
		if large.StepsTo90 > 6*(small.StepsTo90+sc.SampleEvery) {
			t.Errorf("sig=%.2f: steps grew from %d (n=%d) to %d (n=%d); not local",
				small.Significance, small.StepsTo90, small.Resources, large.StepsTo90, large.Resources)
		}
	}
	var buf bytes.Buffer
	if err := RenderFigure3(&buf, pts, fig3Counts, fig3Sigs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "resources") {
		t.Fatal("render missing header")
	}
	// Step counts are integers and print as such.
	if row := fmt.Sprintf("%-12d %14d %14d %14d\n", 64, 0, 10, 10); !strings.Contains(out, row) {
		t.Fatalf("render missing row %q:\n%s", row, out)
	}
}

// TestFigure3NegativeSignificanceSettles pins steps-to-90% as a
// settling time. Below the threshold every resource's default answer
// ("infrequent") is already right at step 0, but at sig = -0.02 on 128
// resources most of them answer "frequent" at steps 5 and 10 before
// the vote settles; a first-hit time would read 0.
func TestFigure3NegativeSignificanceSettles(t *testing.T) {
	sc := tiny()
	sc.LocalDB = 100
	sc.MaxSteps = 200
	sc.SampleEvery = 5
	pts, err := Figure3(sc, []int{128}, []float64{-0.02}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p := pts[0]; p.StepsTo90 != 15 || !p.Converged {
		t.Fatalf("n=128 sig=-0.02: steps-to-90%% %d converged %v, want 15 true", p.StepsTo90, p.Converged)
	}
}

func TestFigure4MonotoneShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure-4 sweep")
	}
	sc := tiny()
	sc.Resources = 10
	sc.MaxSteps = 2500
	ks := []int64{1, 4, 8}
	pts, err := Figure4(sc, ks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(ks) {
		t.Fatalf("got %d points", len(pts))
	}
	want := []Figure4Point{ // pinned, as in TestFigure2ShapeHolds
		{K: 1, StepsTo90: 30, Scans: 12.5, Converged: true},
		{K: 4, StepsTo90: 60, Scans: 25, Converged: true},
		{K: 8, StepsTo90: 60, Scans: 25, Converged: true},
	}
	for i, w := range want {
		if p := pts[i]; p.K != w.K || p.StepsTo90 != w.StepsTo90 || !near(p.Scans, w.Scans) || p.Converged != w.Converged {
			t.Errorf("point %d = %+v, want %+v", i, p, w)
		}
	}
	if !pts[0].Converged {
		t.Fatal("k=1 never converged")
	}
	// Larger k must not converge faster (the paper: increasing,
	// logarithmic).
	if pts[len(pts)-1].StepsTo90 < pts[0].StepsTo90 {
		t.Errorf("k=%d (%d steps) beat k=1 (%d steps)",
			ks[len(ks)-1], pts[len(pts)-1].StepsTo90, pts[0].StepsTo90)
	}
	var buf bytes.Buffer
	if err := RenderFigure4(&buf, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "steps-to-90%") {
		t.Fatal("render missing header")
	}
}

// TestVoteGridTieIsFrequent: at significance 0 exactly half the votes
// are {1}, so Δ = 0, which counts as "≥ λ" for the ground truth and for
// every Majority-Rule resource once the vote is quiescent.
func TestVoteGridTieIsFrequent(t *testing.T) {
	g, err := VoteGrid(secmr.GridConfig{Algorithm: secmr.AlgorithmPlain, Resources: 16, Seed: 3}, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	var st secmr.GridStats
	for g.Steps() == 0 || st.EngineSent != st.EngineDelivered {
		g.Step(1)
		st = g.Stats()
	}
	if len(g.Truth()) != 1 {
		t.Fatalf("truth %v, want the tied rule {} ⇒ {1}", g.Truth())
	}
	for i := range 16 {
		if out := g.Output(i); len(out) != 1 || out.IntersectCount(g.Truth()) != 1 {
			t.Fatalf("resource %d outputs %v at step %d, want the tied rule", i, out, g.Steps())
		}
	}
}

func TestScalesSane(t *testing.T) {
	for _, sc := range []Scale{CI(), Paper()} {
		if sc.Resources <= 0 || sc.LocalDB <= 0 || sc.ScanBudget <= 0 {
			t.Fatalf("%s: bad scale %+v", sc.Name, sc)
		}
		if sc.scans(sc.LocalDB/sc.ScanBudget) != 1.0 {
			t.Fatalf("%s: scans conversion wrong", sc.Name)
		}
	}
	p := Paper()
	if p.Resources != 2000 || p.LocalDB != 10000 || p.K != 10 ||
		p.ScanBudget != 100 || p.CandidateEvery != 5 || p.GrowthPerStep != 20 {
		t.Fatalf("paper scale drifted from §6: %+v", p)
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	sc := tiny()
	if _, err := newGrid(secmr.Algorithm("nope"), sc, "T5I2", 0); err == nil {
		t.Fatal("expected error")
	}
	if _, err := newGrid(secmr.AlgorithmPlain, sc, "T9I9", 0); err == nil {
		t.Fatal("expected preset error")
	}
}

func TestMessageComplexityLocality(t *testing.T) {
	pts := fig3Sweep(t)
	for _, p := range pts {
		if p.MsgsPerResource <= 0 {
			t.Fatalf("n=%d sig=%.2f: no messages recorded", p.Resources, p.Significance)
		}
	}
	// Per-resource communication must not grow with system size
	// (allow 2.5x headroom for topology noise).
	for i := range fig3Sigs {
		small, large := pts[2*i], pts[2*i+1]
		if large.MsgsPerResource > 2.5*small.MsgsPerResource {
			t.Errorf("sig=%.2f: messages/resource grew with size: %.1f -> %.1f",
				small.Significance, small.MsgsPerResource, large.MsgsPerResource)
		}
	}
	var buf bytes.Buffer
	if err := RenderMessageComplexity(&buf, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "msgs/resource") {
		t.Fatal("render header missing")
	}
}
