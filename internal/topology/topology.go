// Package topology generates the overlay networks the paper's
// simulator runs on. The paper uses the BRITE topology generator with
// the Barabási–Albert model ([4], [5]); we implement the BA
// preferential-attachment process directly, a Waxman generator for
// comparison, a random tree and a line — the four overlays the grid
// offers — plus the ring and star the simulator's tests run on.
//
// The paper assumes "an underlying mechanism maintains a communication
// tree that spans all the resources"; SpanningTree extracts a BFS tree
// from any connected graph, and links carry integer propagation delays
// "as in the real world" (§6).
package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// Graph is an undirected graph over nodes 0..N−1 with per-edge
// propagation delays measured in simulation ticks.
//
// Storage is two parallel ragged arrays: adj[u][i] is u's i-th
// neighbor and dly[u][i] that edge's delay. The historical
// map[[2]int]int delay index cost ~50 bytes/edge of map overhead and a
// hash per lookup; at mega-grid scale (1M nodes, 2M+ edges) the
// parallel-slice form is several times smaller and a Delay/HasEdge
// probe is a short linear scan of one adjacency list — overlay degrees
// are small, and even BA hubs beat the hash until degrees far beyond
// anything the generators produce.
type Graph struct {
	N   int
	adj [][]int // adjacency lists, insertion order
	dly [][]int // dly[u][i] = delay of edge (u, adj[u][i])
	m   int     // edge count
}

// NewGraph returns an empty graph with n nodes.
func NewGraph(n int) *Graph {
	return &Graph{N: n, adj: make([][]int, n), dly: make([][]int, n)}
}

// AddEdge inserts an undirected edge with the given delay (≥1 is
// enforced; delay 0 would let the simulator deliver instantaneously,
// breaking causality). Duplicate edges are ignored.
func (g *Graph) AddEdge(u, v, delay int) {
	if u == v {
		panic("topology: self loop")
	}
	if u < 0 || v < 0 || u >= g.N || v >= g.N {
		panic(fmt.Sprintf("topology: edge (%d,%d) outside [0,%d)", u, v, g.N))
	}
	if g.HasEdge(u, v) {
		return
	}
	if delay < 1 {
		delay = 1
	}
	g.adj[u] = append(g.adj[u], v)
	g.dly[u] = append(g.dly[u], delay)
	g.adj[v] = append(g.adj[v], u)
	g.dly[v] = append(g.dly[v], delay)
	g.m++
}

// HasEdge reports whether (u,v) is present (scans the smaller
// adjacency list).
func (g *Graph) HasEdge(u, v int) bool {
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Delay returns the propagation delay of edge (u,v); panics if absent.
func (g *Graph) Delay(u, v int) int {
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for i, w := range g.adj[a] {
		if w == b {
			return g.dly[a][i]
		}
	}
	panic(fmt.Sprintf("topology: no edge (%d,%d)", u, v))
}

// Neighbors returns u's adjacency list (shared slice; do not mutate).
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// Degree returns deg(u).
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.m }

// Edge is one undirected edge with its delay.
type Edge struct {
	U, V  int
	Delay int
}

// Edges lists all edges (U < V), in adjacency order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.N; u++ {
		for i, v := range g.adj[u] {
			if u < v {
				out = append(out, Edge{U: u, V: v, Delay: g.dly[u][i]})
			}
		}
	}
	return out
}

// IsConnected reports whether the graph is a single component.
func (g *Graph) IsConnected() bool {
	if g.N == 0 {
		return true
	}
	return len(g.bfsOrder(0)) == g.N
}

// bfsOrder returns nodes in BFS order from root alongside recording
// parents; shared by IsConnected and SpanningTree.
func (g *Graph) bfsOrder(root int) []int {
	visited := make([]bool, g.N)
	order := []int{root}
	visited[root] = true
	for i := 0; i < len(order); i++ {
		for _, v := range g.adj[order[i]] {
			if !visited[v] {
				visited[v] = true
				order = append(order, v)
			}
		}
	}
	return order
}

// SpanningTree returns a BFS spanning tree rooted at root, preserving
// edge delays. Panics if the graph is disconnected.
func (g *Graph) SpanningTree(root int) *Graph {
	t := NewGraph(g.N)
	visited := make([]bool, g.N)
	queue := []int{root}
	visited[root] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if !visited[v] {
				visited[v] = true
				t.AddEdge(u, v, g.Delay(u, v))
				queue = append(queue, v)
			}
		}
	}
	if t.NumEdges() != g.N-1 && g.N > 0 {
		panic("topology: SpanningTree on a disconnected graph")
	}
	return t
}

// DelayRange configures random per-link propagation delays.
type DelayRange struct {
	Min, Max int // inclusive bounds, in simulation ticks
}

func (d DelayRange) draw(rng *rand.Rand) int {
	if d.Max <= d.Min {
		return d.Min
	}
	return d.Min + rng.Intn(d.Max-d.Min+1)
}

// BarabasiAlbert grows a graph by preferential attachment: it starts
// from a connected core of m nodes and attaches each new node to m
// existing nodes chosen proportionally to their degree — the model
// BRITE implements and the paper's topologies follow ([4]).
func BarabasiAlbert(n, m int, delays DelayRange, rng *rand.Rand) *Graph {
	if m < 1 {
		panic("topology: BA requires m >= 1")
	}
	if n < m+1 {
		panic("topology: BA requires n > m")
	}
	g := NewGraph(n)
	// repeated holds one entry per edge endpoint, so sampling uniformly
	// from it is degree-proportional sampling.
	repeated := make([]int, 0, 2*((m-1)+(n-m)*m))
	// Core: path over the first m nodes (connected, minimal bias).
	for i := 1; i < m; i++ {
		g.AddEdge(i-1, i, delays.draw(rng))
		repeated = append(repeated, i-1, i)
	}
	if m == 1 {
		repeated = append(repeated, 0)
	}
	targets := make([]int, 0, m) // insertion order, so runs are deterministic
	for u := m; u < n; u++ {
		targets = targets[:0]
		for len(targets) < m {
			var v int
			if len(repeated) == 0 {
				v = rng.Intn(u)
			} else {
				v = repeated[rng.Intn(len(repeated))]
			}
			if v == u {
				continue
			}
			dup := false
			for _, w := range targets {
				if w == v {
					dup = true
					break
				}
			}
			if !dup {
				targets = append(targets, v)
			}
		}
		for _, v := range targets {
			g.AddEdge(u, v, delays.draw(rng))
			repeated = append(repeated, u, v)
		}
	}
	return g
}

// Waxman places nodes uniformly in the unit square and connects u,v
// with probability alpha·exp(−d(u,v)/(beta·√2)); the classic router-
// level model BRITE also offers. Connectivity is guaranteed by
// stitching components along nearest pairs afterwards.
func Waxman(n int, alpha, beta float64, delays DelayRange, rng *rand.Rand) *Graph {
	g := NewGraph(n)
	pos := make([][2]float64, n)
	for i := range pos {
		pos[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	maxD := math.Sqrt2
	dist := func(a, b int) float64 {
		dx := pos[a][0] - pos[b][0]
		dy := pos[a][1] - pos[b][1]
		return math.Hypot(dx, dy)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < alpha*math.Exp(-dist(u, v)/(beta*maxD)) {
				g.AddEdge(u, v, delays.draw(rng))
			}
		}
	}
	// Stitch components: union-find over edges, then connect each
	// component's representative to component 0's nearest node.
	comp := components(g)
	for len(comp) > 1 {
		bestA, bestB, bestD := -1, -1, math.Inf(1)
		for _, a := range comp[0] {
			for _, b := range comp[1] {
				if d := dist(a, b); d < bestD {
					bestA, bestB, bestD = a, b, d
				}
			}
		}
		g.AddEdge(bestA, bestB, delays.draw(rng))
		comp = components(g)
	}
	return g
}

// components returns the connected components as node lists.
func components(g *Graph) [][]int {
	seen := make([]bool, g.N)
	var out [][]int
	for s := 0; s < g.N; s++ {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for i := 0; i < len(comp); i++ {
			for _, v := range g.adj[comp[i]] {
				if !seen[v] {
					seen[v] = true
					comp = append(comp, v)
				}
			}
		}
		out = append(out, comp)
	}
	return out
}

// Ring returns the n-cycle.
func Ring(n int, delays DelayRange, rng *rand.Rand) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, delays.draw(rng))
	}
	return g
}

// Line returns the n-path.
func Line(n int, delays DelayRange, rng *rand.Rand) *Graph {
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i-1, i, delays.draw(rng))
	}
	return g
}

// Star returns a star with node 0 at the center.
func Star(n int, delays DelayRange, rng *rand.Rand) *Graph {
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i, delays.draw(rng))
	}
	return g
}

// RandomTree returns a uniformly random recursive tree: node i attaches
// to a uniform node in [0, i).
func RandomTree(n int, delays DelayRange, rng *rand.Rand) *Graph {
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, rng.Intn(i), delays.draw(rng))
	}
	return g
}
