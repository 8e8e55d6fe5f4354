package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"secmr/internal/faults"
	"secmr/internal/obs"
	"secmr/internal/topology"
)

// chainNode is an order-sensitive test protocol: its digest folds in
// every delivered (from, payload) pair with a non-commutative mix, so
// any difference in delivery order or fault decisions between engines
// shows up as a digest mismatch. It also replies from inside OnMessage
// (every 5th delivery) to exercise sends staged mid-delivery.
type chainNode struct {
	id     int
	digest uint64
	ticks  int
	recvd  int
}

func (n *chainNode) Init(ctx *Context) {
	for _, v := range ctx.Neighbors() {
		ctx.Send(v, int64(n.id)*1000)
	}
}

func (n *chainNode) OnMessage(ctx *Context, from NodeID, payload any) {
	p := payload.(int64)
	n.recvd++
	n.digest = mix64(n.digest*0x100000001b3 ^ uint64(from)<<32 ^ uint64(p))
	if n.recvd%5 == 0 && n.recvd < 40 {
		ctx.Send(from, p+1)
	}
}

func (n *chainNode) OnTick(ctx *Context) {
	n.ticks++
	if n.ticks%3 == 0 && n.ticks <= 12 {
		for _, v := range ctx.Neighbors() {
			ctx.Send(v, int64(n.id)<<16|int64(n.ticks))
		}
	}
}

func chainGraph(t testing.TB) *topology.Graph {
	g := topology.BarabasiAlbert(60, 2, topology.DelayRange{Min: 1, Max: 4}, rand.New(rand.NewSource(11)))
	if !g.IsConnected() {
		t.Fatal("test graph not connected")
	}
	return g
}

func chainNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &chainNode{id: i}
	}
	return nodes
}

// mix64 is the splitmix64 finalizer, chainNode's digest mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// chain returns the chainNode itself, or the one a wrapper embeds.
func (n *chainNode) chain() *chainNode { return n }

func digests(nodes []Node) []uint64 {
	out := make([]uint64, len(nodes))
	for i, n := range nodes {
		out[i] = n.(interface{ chain() *chainNode }).chain().digest
	}
	return out
}

// widths are the worker counts the parity tests hold to the one-worker
// reference: more workers than cores and than a chunk of nodes, too.
var widths = []int{1, 2, 4, 16}

// TestShardedParityWithEngine: a fixed seed at every width must
// reproduce the recorded one-worker per-node digests and message
// counters exactly — with hash-keyed drop and duplicate rolls enabled.
func TestShardedParityWithEngine(t *testing.T) {
	const steps = 80
	for _, w := range widths {
		e := newEngine(chainGraph(t), chainNodes(60), w)
		e.Inject = faults.New(faults.Config{Seed: 42, DropProb: 0.2, DupProb: 0.15})
		e.Run(steps)
		checkDigests(t, fmt.Sprintf("workers=%d", w), digests(e.nodes), goldenHashFaultsDigests)
		if st := e.Stats(); st != goldenHashFaultsStats {
			t.Fatalf("workers=%d: stats %+v, golden %+v", w, st, goldenHashFaultsStats)
		}
	}
}

// TestShardedRepeatDeterminism: two identical parallel runs are
// bit-identical (guards against map-order or scheduling leaks).
func TestShardedRepeatDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := newEngine(chainGraph(t), chainNodes(60), 8)
		e.Inject = faults.New(faults.Config{Seed: 7, DropProb: 0.1, DupProb: 0.1})
		e.Run(60)
		return digests(e.nodes)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d digests differ across identical runs", i)
		}
	}
}

// TestInjectScheduleParityAcrossShards: an injector schedule —
// crash/restart, amnesia crash rebuilt through Recover, partition/heal
// — gives identical digests, engine stats and fault stats at every
// width, the rejoin sends of the rebuilt node included.
func TestInjectScheduleParityAcrossShards(t *testing.T) {
	run := func(w int) ([]uint64, Stats, faults.Stats) {
		e := newEngine(chainGraph(t), chainNodes(60), w)
		inj := faults.New(faults.Config{Seed: 42, Schedule: []faults.Event{
			{At: 3, Crash: []int{3}},
			{At: 5, Crash: []int{7}, Amnesia: true},
			{At: 6, Partition: [][]int{{0, 1, 2, 4, 5, 6}, {10, 11, 12, 13, 14, 15}}},
			{At: 9, Restart: []int{3, 7}},
			{At: 11, Heal: true},
		}})
		e.Inject = inj
		e.Recover = func(id NodeID) Node { return &rejoinChainNode{chainNode{id: id}} }
		e.Run(80)
		return digests(e.nodes), e.Stats(), inj.Stats()
	}
	want, wantStats, wantFaults := run(1)
	if wantFaults.CrashDrops == 0 || wantFaults.CutDrops == 0 || wantFaults.AmnesiaWipes != 1 {
		t.Fatalf("schedule inert: %+v", wantFaults)
	}
	if wantStats.Dropped != wantFaults.CrashDrops+wantFaults.CutDrops {
		t.Fatalf("engine dropped %d, injector counted %d crash + %d cut",
			wantStats.Dropped, wantFaults.CrashDrops, wantFaults.CutDrops)
	}
	for _, w := range widths[1:] {
		got, st, fs := run(w)
		checkDigests(t, fmt.Sprintf("inject schedule, workers=%d", w), got, want)
		if st != wantStats || fs != wantFaults {
			t.Fatalf("workers=%d: stats %+v %+v, one worker %+v %+v", w, st, fs, wantStats, wantFaults)
		}
	}
}

// rejoinChainNode is a chainNode rebuilt after amnesia: it greets its
// neighbours again from OnRejoin, so the rejoin sends' place in the
// barrier order is part of what the parity tests compare.
type rejoinChainNode struct{ chainNode }

func (n *rejoinChainNode) OnRejoin(ctx *Context) { n.Init(ctx) }

// TestInjectProbabilisticRepeatsPerShardCount: the injector's rolls
// are keyed by message identity, so a lossy, jittered run reproduces
// the recorded one-worker reference at every width, and keeps the drop
// accounting exact.
func TestInjectProbabilisticRepeatsPerShardCount(t *testing.T) {
	for _, w := range widths {
		e := newEngine(chainGraph(t), chainNodes(60), w)
		inj := faults.New(goldenInjectConfig())
		e.Inject = inj
		e.Run(80)
		checkDigests(t, fmt.Sprintf("inject, workers=%d", w), digests(e.nodes), goldenInjectDigests)
		st, fs := e.Stats(), inj.Stats()
		if st != goldenInjectStats {
			t.Fatalf("workers=%d: engine stats %+v, golden %+v", w, st, goldenInjectStats)
		}
		if st.Dropped != fs.Dropped+fs.CrashDrops+fs.CutDrops {
			t.Fatalf("workers=%d: engine dropped %d, injector counted %+v", w, st.Dropped, fs)
		}
	}
}

// TestShardedQuiesceAndAddLink exercises the non-Step API surface.
func TestShardedQuiesceAndAddLink(t *testing.T) {
	g := topology.Line(4, topology.DelayRange{Min: 2, Max: 2}, rand.New(rand.NewSource(1)))
	e := newEngine(g, chainNodes(4), 2)
	if _, ok := e.Quiesce(500); !ok {
		t.Fatal("did not quiesce")
	}
	before := e.nodes[0].(*chainNode).recvd
	e.AddLink(0, 3, 1)
	e.Run(10)
	if e.nodes[0].(*chainNode).recvd == before {
		t.Fatal("new link carried no traffic")
	}
}

// TestParallelEngineWidth: NewParallelEngine takes W from GOMAXPROCS,
// capped by the node count, NewEngine stays at one, and an engine-wide
// tracer holds any engine at one.
func TestParallelEngineWidth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	g := chainGraph(t)
	if w := NewParallelEngine(g, chainNodes(60), 1).Workers(); w != 8 {
		t.Fatalf("GOMAXPROCS 8, 60 nodes: %d workers", w)
	}
	line := topology.Line(3, topology.DelayRange{Min: 1, Max: 1}, rand.New(rand.NewSource(1)))
	if w := NewParallelEngine(line, chainNodes(3), 1).Workers(); w != 3 {
		t.Fatalf("GOMAXPROCS 8, 3 nodes: %d workers", w)
	}
	if w := NewEngine(g, chainNodes(60), 1).Workers(); w != 1 {
		t.Fatalf("NewEngine: %d workers", w)
	}
	e := NewParallelEngine(g, chainNodes(60), 1)
	e.SetObs(obs.NewSink())
	if w := e.Workers(); w != 1 {
		t.Fatalf("engine-wide tracer: %d workers", w)
	}
}

// sinkNode sends one message to node 0 on every tick and never replies:
// on a star it is one-way traffic into the hub.
type sinkNode struct{ self NodeID }

func (n *sinkNode) Init(ctx *Context)               { n.self = ctx.Self() }
func (n *sinkNode) OnMessage(*Context, NodeID, any) {}
func (n *sinkNode) OnTick(ctx *Context) {
	if n.self != 0 {
		ctx.Send(0, int64(n.self))
	}
}

// TestFreelistBoundedByInFlight: one-way traffic on a star at several
// workers. Sends draw from the one freelist and every event the hub
// consumes goes back to it, so the free events never outnumber the peak,
// over steps, of the events in flight at a step's start plus the sends
// the step made. Freelists kept per worker drift instead: the hub's side
// only ever receives and the leaves' side only ever sends, so one grows
// by the leaves' traffic every step.
func TestFreelistBoundedByInFlight(t *testing.T) {
	const leaves = 15
	g := topology.Star(leaves+1, topology.DelayRange{Min: 1, Max: 3}, rand.New(rand.NewSource(4)))
	nodes := make([]Node, leaves+1)
	for i := range nodes {
		nodes[i] = &sinkNode{}
	}
	for _, w := range []int{2, 4} {
		e := newEngine(g, nodes, w)
		bound := 0
		for step := 0; step < 300; step++ {
			inFlight, sent := e.Pending(), e.Stats().Sent
			e.Step()
			bound = max(bound, inFlight+int(e.Stats().Sent-sent))
			if free := len(e.pool.free); free > bound {
				t.Fatalf("workers=%d step %d: %d free events, bound %d", w, step, free, bound)
			}
		}
		if e.Stats().Delivered < 300*leaves/2 {
			t.Fatalf("workers=%d: too little traffic (%+v)", w, e.Stats())
		}
	}
}

// bounceNode keeps one message in flight per initial send forever: every
// delivery bounces the already-boxed payload straight back, so a
// warmed engine reaches a steady state with live traffic and zero
// protocol-level allocations — isolating the transport's own alloc
// behaviour.
type bounceNode struct{}

func (bounceNode) Init(ctx *Context) {
	for _, v := range ctx.Neighbors() {
		ctx.Send(v, int64(1))
	}
}
func (bounceNode) OnMessage(ctx *Context, from NodeID, payload any) { ctx.Send(from, payload) }
func (bounceNode) OnTick(*Context)                                  {}

// TestStepZeroAllocSteadyState is the tick-path allocation gate
// (ISSUE 8): with the event pool warmed and traffic still flowing, a
// step must not allocate at all. testing.AllocsPerRun is exact, so a
// pooling regression fails this test deterministically instead of
// drowning in benchmark noise on shared CI runners.
func TestStepZeroAllocSteadyState(t *testing.T) {
	g := topology.Ring(64, topology.DelayRange{Min: 1, Max: 1}, rand.New(rand.NewSource(5)))
	nodes := make([]Node, 64)
	for i := range nodes {
		nodes[i] = bounceNode{}
	}
	e := NewEngine(g, nodes, 3)
	e.Run(50)
	if e.Pending() == 0 {
		t.Fatal("echo traffic drained; the gate would be measuring an idle engine")
	}
	if avg := testing.AllocsPerRun(100, func() { e.Step() }); avg > 0 {
		t.Fatalf("steady-state Step allocates %.2f objects/op, want 0 (event pool regression?)", avg)
	}
	if e.Pending() == 0 {
		t.Fatal("echo traffic drained mid-measurement")
	}
}

// BenchmarkStepAllocs measures steady-state allocations on the tick
// path; event pooling should keep the per-step transport overhead
// near zero allocs beyond what the protocol itself allocates.
func BenchmarkStepAllocs(b *testing.B) {
	g := topology.Ring(256, topology.DelayRange{Min: 1, Max: 1}, rand.New(rand.NewSource(2)))
	e := NewEngine(g, chainNodes(256), 3)
	e.Run(50) // warm the pool and reach steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkParallelStep measures step throughput at GOMAXPROCS workers
// and a mid-size node count.
func BenchmarkParallelStep(b *testing.B) {
	g := topology.Ring(4096, topology.DelayRange{Min: 1, Max: 2}, rand.New(rand.NewSource(2)))
	e := NewParallelEngine(g, chainNodes(4096), 3)
	e.Run(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
