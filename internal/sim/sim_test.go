package sim

import (
	"math/rand"
	"testing"

	"secmr/internal/faults"
	"secmr/internal/topology"
)

// echoNode counts ticks, records received payloads, and can forward.
type echoNode struct {
	id       int
	ticks    int
	received []any
	inited   bool
	onMsg    func(ctx *Context, from NodeID, payload any)
	onTick   func(ctx *Context)
}

func (n *echoNode) Init(ctx *Context) { n.inited = true; n.id = ctx.Self() }
func (n *echoNode) OnMessage(ctx *Context, from NodeID, payload any) {
	n.received = append(n.received, payload)
	if n.onMsg != nil {
		n.onMsg(ctx, from, payload)
	}
}
func (n *echoNode) OnTick(ctx *Context) {
	n.ticks++
	if n.onTick != nil {
		n.onTick(ctx)
	}
}

func lineEngine(n int, seed int64) (*Engine, []*echoNode) {
	g := topology.Line(n, topology.DelayRange{Min: 1, Max: 1}, rand.New(rand.NewSource(seed)))
	nodes := make([]*echoNode, n)
	ifaces := make([]Node, n)
	for i := range nodes {
		nodes[i] = &echoNode{}
		ifaces[i] = nodes[i]
	}
	return NewEngine(g, ifaces, seed), nodes
}

func TestInitAndTicks(t *testing.T) {
	e, nodes := lineEngine(3, 1)
	e.Run(5)
	for i, n := range nodes {
		if !n.inited {
			t.Fatalf("node %d not inited", i)
		}
		if n.ticks != 5 {
			t.Fatalf("node %d ticks = %d", i, n.ticks)
		}
		if n.id != i {
			t.Fatalf("node %d got id %d", i, n.id)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %d", e.Now())
	}
}

func TestMessageDeliveryAndDelay(t *testing.T) {
	g := topology.NewGraph(2)
	g.AddEdge(0, 1, 3)
	recvAt := int64(-1)
	n1 := &echoNode{}
	n1.onMsg = func(ctx *Context, from NodeID, payload any) {
		recvAt = ctx.Now()
		if from != 0 || payload.(string) != "hello" {
			t.Errorf("got from=%d payload=%v", from, payload)
		}
	}
	n0 := &echoNode{}
	sent := false
	n0.onTick = func(ctx *Context) {
		if !sent {
			sent = true
			ctx.Send(1, "hello")
		}
	}
	e := NewEngine(g, []Node{n0, n1}, 1)
	e.Run(10)
	// Sent at end of step 1 (now=1), delay 3 -> delivered at step 4.
	if recvAt != 4 {
		t.Fatalf("delivered at %d, want 4", recvAt)
	}
	if s := e.Stats(); s.Sent != 1 || s.Delivered != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDeterministicOrdering(t *testing.T) {
	// Two runs with the same seed produce identical delivery orders.
	run := func() []any {
		g := topology.Star(4, topology.DelayRange{Min: 1, Max: 1}, rand.New(rand.NewSource(2)))
		hub := &echoNode{}
		leaves := make([]Node, 3)
		for i := range leaves {
			i := i
			l := &echoNode{}
			fired := false
			l.onTick = func(ctx *Context) {
				if !fired {
					fired = true
					ctx.Send(0, i+1)
				}
			}
			leaves[i] = l
		}
		e := NewEngine(g, append([]Node{hub}, leaves...), 7)
		e.Run(5)
		return hub.received
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("lens %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, a, b)
		}
	}
}

func TestSendToNonNeighborPanics(t *testing.T) {
	e, _ := lineEngine(3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.send(0, 2, "x") // 0 and 2 are not adjacent on a line
}

func TestRunUntil(t *testing.T) {
	e, nodes := lineEngine(2, 1)
	steps, ok := e.RunUntil(func() bool { return nodes[0].ticks >= 3 }, 100)
	if !ok || steps != 3 {
		t.Fatalf("steps=%d ok=%v", steps, ok)
	}
	_, ok = e.RunUntil(func() bool { return false }, 5)
	if ok {
		t.Fatal("pred never true but ok")
	}
}

func TestQuiesce(t *testing.T) {
	// A relay chain: node 0 sends once; each node forwards right.
	g := topology.Line(5, topology.DelayRange{Min: 2, Max: 2}, rand.New(rand.NewSource(3)))
	nodes := make([]Node, 5)
	for i := 0; i < 5; i++ {
		i := i
		n := &echoNode{}
		n.onMsg = func(ctx *Context, from NodeID, payload any) {
			if i < 4 && from == i-1 {
				ctx.Send(i+1, payload)
			}
		}
		nodes[i] = n
	}
	first := nodes[0].(*echoNode)
	started := false
	first.onTick = func(ctx *Context) {
		if !started {
			started = true
			ctx.Send(1, "token")
		}
	}
	e := NewEngine(g, nodes, 1)
	_, quiet := e.Quiesce(100)
	if !quiet {
		t.Fatal("chain did not quiesce")
	}
	last := nodes[4].(*echoNode)
	if len(last.received) != 1 {
		t.Fatalf("token not relayed to the end: %v", last.received)
	}
}

func TestFaultInjectionDrop(t *testing.T) {
	g := topology.NewGraph(2)
	g.AddEdge(0, 1, 1)
	n0, n1 := &echoNode{}, &echoNode{}
	n0.onTick = func(ctx *Context) { ctx.Send(1, "x") }
	e := NewEngine(g, []Node{n0, n1}, 11)
	e.Inject = faults.New(faults.Config{Seed: 11, DropProb: 1})
	e.Run(20)
	if len(n1.received) != 0 {
		t.Fatalf("DropProb=1 but %d delivered", len(n1.received))
	}
	if s := e.Stats(); s.Dropped != s.Sent || s.Sent == 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestFaultInjectionDuplicate(t *testing.T) {
	g := topology.NewGraph(2)
	g.AddEdge(0, 1, 1)
	n0, n1 := &echoNode{}, &echoNode{}
	once := false
	n0.onTick = func(ctx *Context) {
		if !once {
			once = true
			ctx.Send(1, "x")
		}
	}
	e := NewEngine(g, []Node{n0, n1}, 11)
	e.Inject = faults.New(faults.Config{Seed: 11, DupProb: 1})
	e.Run(5)
	if len(n1.received) != 2 {
		t.Fatalf("DupProb=1 but %d delivered", len(n1.received))
	}
}

func TestMismatchedNodeCountPanics(t *testing.T) {
	g := topology.NewGraph(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine(g, []Node{&echoNode{}}, 1)
}

func TestPendingAndNodeAccessors(t *testing.T) {
	e, nodes := lineEngine(2, 1)
	if e.NumNodes() != 2 || e.Node(1) != Node(nodes[1]) {
		t.Fatal("accessors wrong")
	}
	n0 := nodes[0]
	once := false
	n0.onTick = func(ctx *Context) {
		if !once {
			once = true
			ctx.Send(1, "x")
		}
	}
	e.Run(1)
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run(1)
	if e.Pending() != 0 {
		t.Fatalf("pending after delivery = %d", e.Pending())
	}
}

// joinNode records join notifications.
type joinNode struct {
	echoNode
	joins []NodeID
}

func (n *joinNode) OnNeighborJoin(ctx *Context, v NodeID) {
	n.joins = append(n.joins, v)
	ctx.Send(v, "welcome")
}

func TestAddLink(t *testing.T) {
	g := topology.NewGraph(3)
	g.AddEdge(0, 1, 1)
	a, b, c := &joinNode{}, &joinNode{}, &echoNode{}
	e := NewEngine(g, []Node{a, b, c}, 1)
	e.Run(1)
	e.AddLink(1, 2, 2)
	if !g.HasEdge(1, 2) {
		t.Fatal("edge not added")
	}
	if len(b.joins) != 1 || b.joins[0] != 2 {
		t.Fatalf("node 1 joins = %v", b.joins)
	}
	// Node 2 is a plain echoNode (no NeighborJoiner): must not panic,
	// and b's welcome message must arrive after the link delay.
	e.Run(3)
	if len(c.received) != 1 || c.received[0] != "welcome" {
		t.Fatalf("welcome not delivered: %v", c.received)
	}
	if len(a.joins) != 0 {
		t.Fatal("uninvolved node notified")
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	g := topology.Ring(100, topology.DelayRange{Min: 1, Max: 3}, rand.New(rand.NewSource(1)))
	nodes := make([]Node, 100)
	for i := range nodes {
		n := &echoNode{}
		n.onTick = func(ctx *Context) {
			for _, v := range ctx.Neighbors() {
				ctx.Send(v, 42)
			}
		}
		nodes[i] = n
	}
	e := NewEngine(g, nodes, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// --- internal/faults injector middleware ---

func TestInjectorCrashSkipsTicksAndDropsDeliveries(t *testing.T) {
	e, nodes := lineEngine(3, 5)
	nodes[0].onTick = func(ctx *Context) { ctx.Send(1, "x") }
	inj := faults.New(faults.Config{Seed: 5, Schedule: []faults.Event{
		{At: 6, Crash: []int{1}},
		{At: 16, Restart: []int{1}},
	}})
	e.Inject = inj
	e.Run(5)
	upTicks, upMsgs := nodes[1].ticks, len(nodes[1].received)
	if upMsgs == 0 {
		t.Fatal("no traffic before the crash")
	}
	e.Run(10)
	if nodes[1].ticks != upTicks {
		t.Fatalf("down node ticked: %d -> %d", upTicks, nodes[1].ticks)
	}
	if len(nodes[1].received) != upMsgs {
		t.Fatalf("down node received: %d -> %d", upMsgs, len(nodes[1].received))
	}
	e.Run(10)
	if nodes[1].ticks <= upTicks || len(nodes[1].received) <= upMsgs {
		t.Fatal("restarted node never resumed")
	}
	if st := inj.Stats(); st.CrashDrops == 0 {
		t.Fatalf("no crash drops recorded: %+v", st)
	}
}

func TestInjectorPartitionCutsAndHeals(t *testing.T) {
	e, nodes := lineEngine(2, 6)
	nodes[0].onTick = func(ctx *Context) { ctx.Send(1, "x") }
	inj := faults.New(faults.Config{Seed: 6})
	e.Inject = inj
	inj.Partition([]int{0}, []int{1})
	e.Run(10)
	if len(nodes[1].received) != 0 {
		t.Fatalf("partitioned link delivered %d messages", len(nodes[1].received))
	}
	inj.Heal()
	e.Run(10)
	if len(nodes[1].received) == 0 {
		t.Fatal("healed link still dark")
	}
}

func TestInjectorJitterPreservesLinkFIFO(t *testing.T) {
	e, nodes := lineEngine(2, 7)
	seqNum := 0
	nodes[0].onTick = func(ctx *Context) { seqNum++; ctx.Send(1, seqNum) }
	e.Inject = faults.New(faults.Config{Seed: 7, DelayJitter: 5})
	e.Run(200)
	prev := 0
	for _, p := range nodes[1].received {
		v := p.(int)
		if v <= prev {
			t.Fatalf("FIFO violated under jitter: %d after %d", v, prev)
		}
		prev = v
	}
	if len(nodes[1].received) == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestInjectorDropAndDupStats(t *testing.T) {
	e, nodes := lineEngine(2, 9)
	nodes[0].onTick = func(ctx *Context) { ctx.Send(1, "x") }
	e.Inject = faults.New(faults.Config{Seed: 9, DropProb: 0.5, DupProb: 0.3})
	e.Run(300)
	st := e.Stats()
	if st.Dropped == 0 || st.Duplicated == 0 {
		t.Fatalf("stats %+v", st)
	}
	want := st.Sent - st.Dropped + st.Duplicated - int64(e.Pending())
	if got := int64(len(nodes[1].received)); got != want {
		t.Fatalf("delivered %d, want sent-dropped+dup-pending = %d", got, want)
	}
}
