package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

var unit = DelayRange{Min: 1, Max: 1}

func TestAddEdgeInvariants(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 0, 9) // duplicate, ignored
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if g.Delay(0, 1) != 5 || g.Delay(1, 0) != 5 {
		t.Fatal("delay not symmetric")
	}
	if !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	g.AddEdge(1, 2, 0)
	if g.Delay(1, 2) != 1 {
		t.Fatal("delay floor of 1 not enforced")
	}
	if g.Degree(1) != 2 || g.Degree(2) != 1 {
		t.Fatal("degrees wrong")
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := NewGraph(2)
	mustPanic(t, func() { g.AddEdge(0, 0, 1) })
	mustPanic(t, func() { g.AddEdge(0, 5, 1) })
	mustPanic(t, func() { g.Delay(0, 1) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestRegularTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name      string
		g         *Graph
		edges     int
		maxDegree int
	}{
		{"ring8", Ring(8, unit, rng), 8, 2},
		{"line5", Line(5, unit, rng), 4, 2},
		{"star6", Star(6, unit, rng), 5, 5},
	}
	for _, c := range cases {
		if c.g.NumEdges() != c.edges {
			t.Errorf("%s: edges %d want %d", c.name, c.g.NumEdges(), c.edges)
		}
		if !c.g.IsConnected() {
			t.Errorf("%s: disconnected", c.name)
		}
		maxDeg := 0
		for u := 0; u < c.g.N; u++ {
			maxDeg = max(maxDeg, c.g.Degree(u))
		}
		if maxDeg != c.maxDegree {
			t.Errorf("%s: max degree %d want %d", c.name, maxDeg, c.maxDegree)
		}
	}
}

func TestBarabasiAlbertProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range []int{1, 2, 3} {
		g := BarabasiAlbert(300, m, DelayRange{1, 4}, rng)
		if !g.IsConnected() {
			t.Fatalf("BA(m=%d) disconnected", m)
		}
		// Every non-core node adds exactly m edges.
		wantEdges := (m - 1) + (300-m)*m
		if g.NumEdges() != wantEdges {
			t.Errorf("BA(m=%d): edges %d want %d", m, g.NumEdges(), wantEdges)
		}
		// Scale-free signature: max degree far above the mean.
		maxDeg := 0
		for u := 0; u < g.N; u++ {
			if g.Degree(u) > maxDeg {
				maxDeg = g.Degree(u)
			}
		}
		meanDeg := 2 * float64(g.NumEdges()) / float64(g.N)
		if float64(maxDeg) < 3*meanDeg {
			t.Errorf("BA(m=%d): max degree %d not hub-like (mean %.1f)", m, maxDeg, meanDeg)
		}
		// Delays within range.
		for _, e := range g.Edges() {
			if e.Delay < 1 || e.Delay > 4 {
				t.Fatalf("delay %d out of range", e.Delay)
			}
		}
	}
	mustPanic(t, func() { BarabasiAlbert(3, 0, unit, rng) })
	mustPanic(t, func() { BarabasiAlbert(2, 2, unit, rng) })
}

// TestBarabasiAlbertGolden pins the BA generator's output byte for
// byte: every facade grid, the benchmark's wiring parity and the figure
// goldens run on this overlay, so a change to the rng draw order or the
// edge insertion order must show up here first.
func TestBarabasiAlbertGolden(t *testing.T) {
	const (
		wantEdges = 3997
		wantSHA   = "bbf8274ae713cb1d850a4c3db3296ef7a93717674a4dbe5d26ba346598612758"
	)
	g := BarabasiAlbert(2000, 2, DelayRange{1, 3}, rand.New(rand.NewSource(1)))
	edges := g.Edges()
	h := sha256.New()
	for _, e := range edges {
		fmt.Fprintf(h, "%d %d %d\n", e.U, e.V, e.Delay)
	}
	if len(edges) != wantEdges {
		t.Fatalf("edges = %d, want %d", len(edges), wantEdges)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantSHA {
		t.Fatalf("edge digest = %s, want %s", got, wantSHA)
	}
}

func TestBarabasiAlbertHubBias(t *testing.T) {
	// Preferential attachment must concentrate degree: the top 10% of
	// nodes should hold well over 10% of edge endpoints.
	rng := rand.New(rand.NewSource(3))
	g := BarabasiAlbert(500, 2, unit, rng)
	degs := make([]int, g.N)
	total := 0
	for u := 0; u < g.N; u++ {
		degs[u] = g.Degree(u)
		total += degs[u]
	}
	// Sort descending (insertion into a small top-k is fine at n=500).
	top := 0
	k := g.N / 10
	for i := 0; i < k; i++ {
		best := 0
		for j := 1; j < len(degs); j++ {
			if degs[j] > degs[best] {
				best = j
			}
		}
		top += degs[best]
		degs[best] = -1
	}
	if share := float64(top) / float64(total); share < 0.2 {
		t.Fatalf("top 10%% of nodes hold only %.1f%% of degree; not scale-free", 100*share)
	}
}

func TestWaxmanConnectedAndPlanarish(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := Waxman(150, 0.15, 0.2, DelayRange{1, 3}, rng)
	if !g.IsConnected() {
		t.Fatal("Waxman graph must be stitched connected")
	}
	if g.NumEdges() < g.N-1 {
		t.Fatal("too few edges")
	}
}

func TestSpanningTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := BarabasiAlbert(200, 3, DelayRange{1, 5}, rng)
	tr := g.SpanningTree(0)
	if tr.NumEdges() != g.N-1 {
		t.Fatalf("tree edges %d want %d", tr.NumEdges(), g.N-1)
	}
	if !tr.IsConnected() {
		t.Fatal("tree disconnected")
	}
	// Every tree edge exists in g with the same delay.
	for _, e := range tr.Edges() {
		if !g.HasEdge(e.U, e.V) || g.Delay(e.U, e.V) != e.Delay {
			t.Fatalf("tree edge (%d,%d) not in graph or delay mismatch", e.U, e.V)
		}
	}
	// Disconnected graph panics.
	d := NewGraph(4)
	d.AddEdge(0, 1, 1)
	mustPanic(t, func() { d.SpanningTree(0) })
}

func TestRandomTreeIsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := RandomTree(64, unit, rng)
	if g.NumEdges() != 63 || !g.IsConnected() {
		t.Fatal("RandomTree not a tree")
	}
}

func TestComponents(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	c := components(g)
	if len(c) != 3 {
		t.Fatalf("components = %d want 3", len(c))
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewGraph(0)
	if !g.IsConnected() {
		t.Fatal("empty graph is vacuously connected")
	}
}

func BenchmarkBarabasiAlbert2000(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < b.N; i++ {
		BarabasiAlbert(2000, 2, DelayRange{1, 5}, rng)
	}
}
