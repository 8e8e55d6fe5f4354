package sim

import (
	"math/rand"
	"testing"

	"secmr/internal/faults"
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

func digests(nodes []Node) []uint64 {
	out := make([]uint64, len(nodes))
	for i, n := range nodes {
		out[i] = n.(*chainNode).digest
	}
	return out
}

// TestShardedParityWithEngine: a fixed seed at several shard counts
// must reproduce the one-shard engine's per-node digests and message
// counters exactly — with fault injection enabled, since the Faults
// rolls are hash-based.
func TestShardedParityWithEngine(t *testing.T) {
	const steps = 80
	faults := Faults{DropProb: 0.2, DupProb: 0.15}

	ref := NewEngine(chainGraph(t), chainNodes(60), 42)
	ref.Faults = faults
	ref.Run(steps)
	want := digests(ref.nodes)
	wantStats := ref.Stats()
	if wantStats.Dropped == 0 || wantStats.Duplicated == 0 {
		t.Fatalf("fault injection inert: %+v", wantStats)
	}
	checkDigests(t, "reference", want, goldenHashFaultsDigests)
	if wantStats != goldenHashFaultsStats {
		t.Fatalf("reference stats %+v, golden %+v", wantStats, goldenHashFaultsStats)
	}

	for _, shards := range []int{1, 4, 16} {
		e := NewShardedEngine(chainGraph(t), chainNodes(60), 42, shards)
		e.Faults = faults
		e.Run(steps)
		got := digests(e.nodes)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: node %d digest %x, engine %x", shards, i, got[i], want[i])
			}
		}
		if st := e.Stats(); st != wantStats {
			t.Fatalf("shards=%d: stats %+v, engine %+v", shards, st, wantStats)
		}
	}
}

// TestShardedRepeatDeterminism: two identical sharded runs are
// bit-identical (guards against map-order or scheduling leaks).
func TestShardedRepeatDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := NewShardedEngine(chainGraph(t), chainNodes(60), 7, 8)
		e.Faults = Faults{DropProb: 0.1, DupProb: 0.1}
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

// TestInjectScheduleParityAcrossShards: an injector schedule that draws
// no randomness — crash/restart, amnesia crash rebuilt through Recover,
// partition/heal — decides from structural state that is fixed for the
// whole step, so digests, engine stats and fault stats must be
// identical at every shard count.
func TestInjectScheduleParityAcrossShards(t *testing.T) {
	run := func(shards int) ([]uint64, Stats, faults.Stats) {
		e := NewShardedEngine(chainGraph(t), chainNodes(60), 42, shards)
		inj := faults.New(faults.Config{Seed: 42, Schedule: []faults.Event{
			{At: 3, Crash: []int{3}},
			{At: 5, Crash: []int{7}, Amnesia: true},
			{At: 6, Partition: [][]int{{0, 1, 2, 4, 5, 6}, {10, 11, 12, 13, 14, 15}}},
			{At: 9, Restart: []int{3, 7}},
			{At: 11, Heal: true},
		}})
		e.Inject = inj
		e.Recover = func(id NodeID) Node { return &chainNode{id: id} }
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
	for _, shards := range []int{4, 16} {
		got, st, fs := run(shards)
		checkDigests(t, "inject schedule", got, want)
		if st != wantStats || fs != wantFaults {
			t.Fatalf("shards=%d: stats %+v %+v, one shard %+v %+v", shards, st, fs, wantStats, wantFaults)
		}
	}
}

// TestInjectProbabilisticRepeatsPerShardCount: the injector's RNG draws
// happen in barrier order, so a lossy run is deterministic for a fixed
// (seed, shard count) — and keeps the drop accounting exact — though
// not byte-equal across shard counts.
func TestInjectProbabilisticRepeatsPerShardCount(t *testing.T) {
	run := func() ([]uint64, Stats, faults.Stats) {
		e := NewShardedEngine(chainGraph(t), chainNodes(60), 42, 4)
		inj := faults.New(goldenInjectConfig())
		e.Inject = inj
		e.Run(80)
		return digests(e.nodes), e.Stats(), inj.Stats()
	}
	a, aStats, aFaults := run()
	b, bStats, bFaults := run()
	checkDigests(t, "repeat", b, a)
	if aStats != bStats || aFaults != bFaults {
		t.Fatalf("identical runs differ: %+v %+v vs %+v %+v", aStats, aFaults, bStats, bFaults)
	}
	if aStats.Dropped != aFaults.Dropped+aFaults.CrashDrops+aFaults.CutDrops {
		t.Fatalf("engine dropped %d, injector counted %+v", aStats.Dropped, aFaults)
	}
}

// TestShardedQuiesceAndAddLink exercises the non-Step API surface.
func TestShardedQuiesceAndAddLink(t *testing.T) {
	g := topology.Line(4, topology.DelayRange{Min: 2, Max: 2}, rand.New(rand.NewSource(1)))
	e := NewShardedEngine(g, chainNodes(4), 1, 2)
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

// TestEngineParityAcrossHashedFaultProbabilities pins the legacy
// Faults statistical behavior after the switch from sequential RNG to
// hash-based rolls: drops and dups land near their probabilities.
func TestHashedFaultRollRates(t *testing.T) {
	f := Faults{DropProb: 0.3, DupProb: 0.2}
	drops, dups := 0, 0
	const n = 20000
	for i := int64(0); i < n; i++ {
		switch f.copies(99, 1, 2, i) {
		case 0:
			drops++
		case 2:
			dups++
		}
	}
	if got := float64(drops) / n; got < 0.27 || got > 0.33 {
		t.Fatalf("drop rate %.3f, want ≈0.30", got)
	}
	// dups are rolled only on non-dropped messages: 0.7 * 0.2 = 0.14.
	if got := float64(dups) / n; got < 0.11 || got > 0.17 {
		t.Fatalf("dup rate %.3f, want ≈0.14", got)
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

// BenchmarkShardedStep measures step throughput at 8 shards and a
// mid-size node count.
func BenchmarkShardedStep(b *testing.B) {
	g := topology.Ring(4096, topology.DelayRange{Min: 1, Max: 2}, rand.New(rand.NewSource(2)))
	e := NewShardedEngine(g, chainNodes(4096), 3, 8)
	e.Run(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
