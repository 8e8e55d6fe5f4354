package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
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
		alg               Algorithm
		scansTo90, rc, pc float64
	}{
		{"T5I2", AlgPlain, 12.5, 0.9991708126036484, 0.9950576338422019},
		{"T5I2", AlgKPrivate, 12.5, 1, 1},
		{"T5I2", AlgSecure, 12.5, 0.9983416252072969, 0.9934153972903875},
		{"T10I4", AlgPlain, 12.5, 0.9962089300758215, 0.9962125600886728},
		{"T10I4", AlgKPrivate, 12.5, 0.9994383600112329, 0.9959534900509022},
		{"T10I4", AlgSecure, 12.5, 0.9948048301039035, 0.9766188901125319},
		{"T20I6", AlgPlain, 12.5, 0.9981057018374692, 0.9996527232210065},
		{"T20I6", AlgKPrivate, 12.5, 0.9990844225547768, 0.9996843490103605},
		{"T20I6", AlgSecure, 12.5, 0.9993685672791562, 0.998581620136222},
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
	perDB := map[string]map[Algorithm]Figure2Row{}
	for _, r := range rows {
		if perDB[r.Database] == nil {
			perDB[r.Database] = map[Algorithm]Figure2Row{}
		}
		perDB[r.Database][r.Algorithm] = r
	}
	for db, algs := range perDB {
		plain, secure := algs[AlgPlain], algs[AlgSecure]
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
}

func TestFigure3LocalityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure-3 sweep")
	}
	sc := tiny()
	sc.LocalDB = 100
	sc.MaxSteps = 2000
	sc.SampleEvery = 10
	counts := []int{8, 32}
	sigs := []float64{0.12, 0.24}
	pts, err := Figure3(sc, counts, sigs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(counts)*len(sigs) {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !p.Converged {
			t.Fatalf("n=%d sig=%.2f never converged", p.Resources, p.Significance)
		}
	}
	// Locality: steps at 64 resources must not explode relative to 8
	// (the paper: a constant beyond some size).
	byKey := map[[2]interface{}]Figure3Point{}
	for _, p := range pts {
		byKey[[2]interface{}{p.Resources, p.Significance}] = p
	}
	for _, s := range sigs {
		small := byKey[[2]interface{}{8, s}].StepsTo90
		large := byKey[[2]interface{}{32, s}].StepsTo90
		if large > 6*(small+sc.SampleEvery) {
			t.Errorf("sig=%.2f: steps grew from %d (n=8) to %d (n=32); not local", s, small, large)
		}
	}
	var buf bytes.Buffer
	if err := RenderFigure3(&buf, pts, counts, sigs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "resources") {
		t.Fatal("render missing header")
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
	if _, err := newGrid(Algorithm("nope"), sc, "T5I2", 0); err == nil {
		t.Fatal("expected error")
	}
	if _, err := newGrid(AlgPlain, sc, "T9I9", 0); err == nil {
		t.Fatal("expected preset error")
	}
}

func TestMessageComplexityLocality(t *testing.T) {
	if testing.Short() {
		t.Skip("message-complexity sweep")
	}
	sc := tiny()
	sc.LocalDB = 100
	sc.MaxSteps = 1500
	sc.SampleEvery = 25
	counts := []int{16, 64}
	pts, err := MessageComplexity(sc, counts, 0.24, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if !p.Converged {
			t.Fatalf("n=%d never converged", p.Resources)
		}
		if p.MsgsPerResource <= 0 {
			t.Fatalf("n=%d: no messages recorded", p.Resources)
		}
	}
	// Per-resource communication must not grow with system size
	// (allow 2.5x headroom for topology noise).
	if pts[1].MsgsPerResource > 2.5*pts[0].MsgsPerResource {
		t.Fatalf("messages/resource grew with size: %.1f -> %.1f",
			pts[0].MsgsPerResource, pts[1].MsgsPerResource)
	}
	var buf bytes.Buffer
	if err := RenderMessageComplexity(&buf, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "msgs/resource") {
		t.Fatal("render header missing")
	}
}
