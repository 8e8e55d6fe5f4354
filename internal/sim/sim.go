// Package sim is a deterministic discrete-event simulator for
// message-passing protocols on an overlay graph. It reproduces the
// paper's experimental substrate (§6): thousands of simulated
// resources connected by links with heterogeneous propagation delays,
// advancing in steps.
//
// Time model: time advances in integer ticks ("steps" in the paper's
// terminology). At each step the engine first delivers every message
// whose delivery time has arrived and then calls OnTick on every node.
// A message sent at time t over a link with delay d is delivered at
// time t+d (d ≥ 1), so causality holds and a step's sends can never be
// observed within the same step.
//
// Delivery order is content-addressed: events are ordered by
// (deliver-at, sender, per-sender sequence, duplicate index), a total
// order derived purely from each message's identity — never from the
// engine's own execution interleave. That is what lets one Engine run
// its nodes on several goroutines and stay deterministic (see Engine).
// Real sockets and wall-clock concurrency are internal/netgrid's job.
package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"secmr/internal/faults"
	"secmr/internal/obs"
	"secmr/internal/topology"
)

// NodeID identifies a node; it equals the node's index in the
// topology graph.
type NodeID = int

// Node is a protocol endpoint hosted by the engine.
type Node interface {
	// Init is called once before the first step.
	Init(ctx *Context)
	// OnMessage delivers a message from a neighbor.
	OnMessage(ctx *Context, from NodeID, payload any)
	// OnTick is called once per step after deliveries.
	OnTick(ctx *Context)
}

// NeighborJoiner is implemented by nodes that support dynamic overlay
// growth (the paper's §3 grid model, where E_t^u changes over time);
// Engine.AddLink invokes it on both endpoints of a new edge.
type NeighborJoiner interface {
	OnNeighborJoin(ctx *Context, v NodeID)
}

// Rejoiner is implemented by nodes that can re-announce themselves to
// the overlay after a recovery swapped them in (Engine.Recover): the
// hook runs once, before the node's first post-recovery tick.
type Rejoiner interface {
	OnRejoin(ctx *Context)
}

// TraceClocked is implemented by nodes that own a causal trace clock
// (core.Resource does); the engine ticks it on sends and merges
// inbound clock values into it, so the node's own trace events and the
// engine's transport events share one Lamport order. Nodes without one
// get an engine-owned clock.
type TraceClocked interface {
	TraceClock() *obs.Clock
}

// event is a scheduled message delivery. Its ordering key
// (at, from, fseq, dup) is minted from the message's identity alone:
// fseq is the sender's send counter and dup distinguishes fault-
// injected duplicates. Nothing in the key depends on when (or on which
// goroutine) the send executed, which is the determinism foundation
// the parallel phase stands on.
type event struct {
	at   int64
	from NodeID
	fseq int64
	dup  int32
	to   NodeID
	// next links the receiver's due deliveries of one step, in key order.
	next *event
	// payload is the message body.
	payload any
	// cc is the message's causal context, minted at send time;
	// fault-injected duplicates share their original's identity.
	cc obs.CausalCtx
}

// sameStepOrder orders events due at the same step by the rest of the
// key, (from, fseq, dup).
func sameStepOrder(a, b *event) int {
	if c := cmp.Compare(a.from, b.from); c != 0 {
		return c
	}
	if c := cmp.Compare(a.fseq, b.fseq); c != 0 {
		return c
	}
	return cmp.Compare(a.dup, b.dup)
}

// eventPool is the freelist of event structs. At scale the per-message
// heap allocation is pure churn — every delivered event is recycled, so
// the steady-state tick path allocates no events at all.
type eventPool struct {
	free []*event
	// taken counts the events at the top of free that take handed out
	// since the last settle.
	taken atomic.Int64
}

// take hands out a free event, or a new one once the freelist is
// exhausted. Workers call it concurrently during the parallel phase,
// when nothing else touches the pool.
func (p *eventPool) take() *event {
	if i := int(p.taken.Add(1)); i <= len(p.free) {
		return p.free[len(p.free)-i]
	}
	return &event{}
}

// settle removes the events take handed out from the freelist.
func (p *eventPool) settle() {
	if n := min(int(p.taken.Swap(0)), len(p.free)); n > 0 {
		clear(p.free[len(p.free)-n:])
		p.free = p.free[:len(p.free)-n]
	}
}

// get is take for the barrier, which owns the freelist outright.
func (p *eventPool) get() *event {
	ev := p.take()
	p.settle()
	return ev
}

func (p *eventPool) put(ev *event) {
	p.settle()
	*ev = event{}
	p.free = append(p.free, ev)
}

// Stats aggregates engine-level counters.
type Stats struct {
	Sent       int64 // messages accepted by Send
	Delivered  int64 // messages handed to OnMessage
	Dropped    int64 // messages lost to fault injection
	Duplicated int64 // extra copies created by fault injection
}

// Engine hosts the nodes and drives time. A step has a parallel phase
// and a barrier. In the parallel phase each node is one unit of work:
// its due deliveries in key order, then its tick. W workers claim nodes
// from a shared counter, highest overlay degree first, so a hub starts
// early instead of landing on a worker that already holds its share of
// leaves. Every send is staged in the outbox of the worker running the
// sender. The barrier then routes each worker's outbox front to back —
// fault verdict, delay, delivery wheel — and hands the next step's due
// events to their receivers.
//
// NewEngine runs one worker, inline. NewParallelEngine runs
// W = min(GOMAXPROCS, nodes). W drops to 1 while an engine-wide tracer
// is installed (SetObs): one obs.Tracer numbers events in Emit order,
// so concurrent workers would interleave its sequence numbers.
//
// Why a fixed seed gives the same results at any W:
//
//  1. Handlers only mutate their own node's state, and every link has
//     delay ≥ 1, so nothing a node does at step t is observable by any
//     other node within step t: the parallel phase has no cross-node
//     data flow.
//  2. Event order is content-addressed (see event), so each node's
//     delivery sequence does not depend on which goroutine ran it.
//  3. Routing order does not matter either. The injector's verdict is a
//     hash of the message's identity (sender, receiver, fseq), not a
//     draw from a shared stream. The per-link FIFO clamp only compares
//     sends on one link, and those all come from one node, which one
//     worker visits per step, so they sit in one outbox in send order.
//     So seeded fault runs — probabilistic ones included — are
//     bit-identical across widths.
//
// There is one event freelist. Sends draw from it concurrently, through
// one atomic counter; the barrier returns every delivered or dropped
// event to it. So nothing drifts between per-worker lists, and the
// engine never holds more events than the peak of in flight plus one
// step's sends, whatever the traffic pattern.
//
// Per-resource sinks (core.Config.Obs) that share one tracer without
// SetObs still interleave their Seq numbers past one worker; give each
// resource its own sink when byte-stable merged traces matter.
type Engine struct {
	Graph *topology.Graph
	// Inject, when set, is the fault-injection middleware: every send
	// is submitted to it with the sender's send counter as its sequence
	// number (drop/duplicate/delay/partition), nodes it marks down
	// neither tick nor receive, and its event schedule is advanced once
	// per step. Jittered deliveries are clamped to preserve per-link
	// FIFO.
	Inject *faults.Injector
	// Recover, when set, rebuilds a node after a crash-with-amnesia
	// restart (faults.Event.Amnesia, Injector.CrashAmnesia): it receives
	// the node id and returns the replacement — typically restored from
	// durable state (internal/persist) — or nil when nothing can be
	// restored, in which case the node is crashed again and stays down
	// for good (a machine that lost its memory and has no disk never
	// rejoins). Without a Recover hook every amnesiac restart is lost.
	// It runs at the top of Step, before the parallel phase.
	Recover func(id NodeID) Node

	nodes []Node
	ctxs  []Context
	slots []slot
	// wheel holds the events in flight by delivery step, wheel[at mod
	// len(wheel)]: each is due within len(wheel) steps, so one bucket is
	// one step's deliveries. inFlight counts them, pool holds the recycled
	// events, and due this step's deliveries in key order. All of it is
	// the barrier's.
	wheel    [][]*event
	inFlight int
	pool     eventPool
	due      []*event
	// wks holds one outbox per worker, W of them; order is the claim
	// order of the parallel phase, claim the shared counter and chunk the
	// nodes one claim takes.
	wks   []worker
	order []NodeID
	chunk int
	claim atomic.Int64
	stats Stats
	// lastAt tracks the latest scheduled delivery per directed link so
	// injected jitter cannot reorder a FIFO link (barrier-only).
	lastAt map[[2]int]int64
	now    int64
	inited bool
	// engine-level telemetry, resolved once by SetObs (nil = off).
	obsTr        *obs.Tracer
	obsSent      *obs.Counter
	obsDelivered *obs.Counter
	obsDropped   *obs.Counter
	obsDup       *obs.Counter
	obsPending   *obs.Gauge
	obsStep      *obs.Gauge
}

// slot is one node's engine-side state. During the parallel phase only
// the worker that claimed the node touches it; between phases, only the
// barrier.
type slot struct {
	// head and tail link this step's due deliveries, in key order.
	head, tail *event
	w          int   // the worker whose outbox stages the node's sends
	fseq       int64 // sends so far: the event-order key's sequence
	// clock is the engine-owned trace clock of a node that is not
	// TraceClocked, allocated on first use.
	clock *obs.Clock
}

// worker is one goroutine's share of the parallel phase.
type worker struct {
	outbox []*event
	// hops is the hop count of the message being delivered (0 between
	// deliveries), so sends made inside OnMessage inherit the chain depth.
	hops int
}

// NewEngine builds a one-worker engine over the graph; nodes[i] is
// hosted at graph node i. The engine draws no randomness of its own:
// seed is unused, and fault rolls take theirs from Inject.
func NewEngine(g *topology.Graph, nodes []Node, seed int64) *Engine {
	return newEngine(g, nodes, 1)
}

// NewParallelEngine is NewEngine with W = min(GOMAXPROCS, nodes)
// workers, read once here.
func NewParallelEngine(g *topology.Graph, nodes []Node, seed int64) *Engine {
	return newEngine(g, nodes, runtime.GOMAXPROCS(0))
}

func newEngine(g *topology.Graph, nodes []Node, workers int) *Engine {
	if len(nodes) != g.N {
		panic(fmt.Sprintf("sim: %d nodes for a %d-node graph", len(nodes), g.N))
	}
	e := &Engine{
		Graph:  g,
		nodes:  nodes,
		ctxs:   make([]Context, len(nodes)),
		slots:  make([]slot, len(nodes)),
		wks:    make([]worker, max(1, min(workers, len(nodes)))),
		lastAt: map[[2]int]int64{},
	}
	for i := range nodes {
		e.ctxs[i] = Context{e: e, self: i}
	}
	e.setOrder()
	return e
}

// setOrder rebuilds the claim order: descending degree, ties by id. A
// node's step costs about its degree (one evaluation and one message
// per edge), so handing out the longest tasks first keeps the workers
// finishing together. A chunk is one node until the grid is large
// enough that the claim counter itself would contend.
func (e *Engine) setOrder() {
	e.order = e.order[:0]
	for i := range e.nodes {
		e.order = append(e.order, i)
	}
	slices.SortStableFunc(e.order, func(a, b NodeID) int {
		return cmp.Compare(e.Graph.Degree(b), e.Graph.Degree(a))
	})
	e.chunk = max(1, len(e.nodes)/(64*len(e.wks)))
}

// SetObs installs engine-level telemetry: message counters, the
// pending-queue gauge, and transport trace events (EvMsgSend,
// EvMsgDeliver, EvMsgDrop). A sink with a tracer holds the engine at
// one worker (see Engine). Call before the first Step.
func (e *Engine) SetObs(sink *obs.Sink) {
	reg := sink.Registry()
	e.obsTr = sink.Tracer()
	e.obsSent = reg.Counter("secmr_sim_messages_total", "Engine message outcomes.", "outcome", "sent")
	e.obsDelivered = reg.Counter("secmr_sim_messages_total", "Engine message outcomes.", "outcome", "delivered")
	e.obsDropped = reg.Counter("secmr_sim_messages_total", "Engine message outcomes.", "outcome", "dropped")
	e.obsDup = reg.Counter("secmr_sim_messages_total", "Engine message outcomes.", "outcome", "duplicated")
	e.obsPending = reg.Gauge("secmr_sim_pending_messages", "Undelivered messages in the engine queue.")
	e.obsStep = reg.Gauge("secmr_sim_step", "Current simulation step.")
}

// Workers returns W, the number of goroutines that run a step's
// parallel phase.
func (e *Engine) Workers() int {
	if e.obsTr != nil {
		return 1
	}
	return len(e.wks)
}

// Now returns the current step.
func (e *Engine) Now() int64 { return e.now }

// Node returns the hosted node i (for metric collection).
func (e *Engine) Node(i NodeID) Node { return e.nodes[i] }

// NumNodes returns the node count.
func (e *Engine) NumNodes() int { return len(e.nodes) }

// Pending reports the number of undelivered messages.
func (e *Engine) Pending() int { return e.inFlight }

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// clockOf returns the trace clock for node id: the node's own when it
// is TraceClocked (looked up per call, so recovery swaps take effect),
// otherwise the engine-owned one in its slot.
func (e *Engine) clockOf(id NodeID) *obs.Clock {
	if tc, ok := e.nodes[id].(TraceClocked); ok {
		if ck := tc.TraceClock(); ck != nil {
			return ck
		}
	}
	s := &e.slots[id]
	if s.clock == nil {
		s.clock = obs.NewClock()
	}
	return s.clock
}

// init runs every node's Init once (at now=0, so a bootstrap send over
// a delay-d link delivers at step d) and routes the bootstrap sends.
func (e *Engine) init() {
	if e.inited {
		return
	}
	e.inited = true
	e.runNodes(true)
	e.exchange()
}

// Step advances the simulation by one tick: the injector's schedule and
// pending recoveries, the parallel phase, then the barrier. Nodes the
// injector marks down are skipped entirely — they neither receive
// (in-flight messages to them are lost, as a crashed TCP endpoint would
// lose them) nor tick. A plain crash resumes with in-memory state
// intact on restart (the paper's transient resource outages); an
// amnesiac crash (faults.Event.Amnesia) wipes it, and the restart goes
// through the Recover hook instead.
func (e *Engine) Step() {
	e.init()
	e.now++
	if e.Inject != nil {
		e.Inject.Advance(e.now)
		for _, id := range e.Inject.TakeRecovered() {
			e.recoverNode(id)
		}
	}
	e.collect()
	e.runNodes(false)
	e.exchange()
	e.obsPending.Set(float64(e.Pending()))
	e.obsStep.Set(float64(e.now))
}

// collect moves the step's due events from the wheel into their
// receivers' inboxes, recording the key order in e.due. An event for a
// node the injector holds down is lost here.
func (e *Engine) collect() {
	if len(e.wheel) == 0 {
		return
	}
	// The bucket becomes e.due, compacted in place as events are dropped,
	// and the empty e.due's storage the bucket's.
	b := &e.wheel[e.now%int64(len(e.wheel))]
	due := *b
	*b, e.due = e.due[:0], due[:0]
	e.inFlight -= len(due)
	slices.SortFunc(due, sameStepOrder)
	for _, ev := range due {
		if e.Inject != nil && e.Inject.Down(ev.to) {
			e.Inject.CountCrashDrop()
			e.drop(ev, faults.CauseCrash)
			continue
		}
		e.stats.Delivered++
		e.obsDelivered.Inc()
		if s := &e.slots[ev.to]; s.tail == nil {
			s.head, s.tail = ev, ev
		} else {
			s.tail.next, s.tail = ev, ev
		}
		e.due = append(e.due, ev)
	}
}

// runNodes is the parallel phase: every node visited once, by W
// workers claiming chunks of e.order. One worker runs inline.
func (e *Engine) runNodes(init bool) {
	w := e.Workers()
	if w == 1 {
		for _, id := range e.order {
			e.visit(0, id, init)
		}
		return
	}
	e.claim.Store(0)
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go func() {
			defer wg.Done()
			e.work(i, init)
		}()
	}
	e.work(0, init)
	wg.Wait()
}

// work is worker w's loop: claim the next chunk of the order, visit it,
// until the order is exhausted.
func (e *Engine) work(w int, init bool) {
	for {
		end := int(e.claim.Add(int64(e.chunk)))
		start := end - e.chunk
		if start >= len(e.order) {
			return
		}
		for _, id := range e.order[start:min(end, len(e.order))] {
			e.visit(w, id, init)
		}
	}
}

// visit runs one node's share of a step on worker w: its due deliveries
// in key order, then its tick — or, in the init phase, its Init.
func (e *Engine) visit(w int, id NodeID, init bool) {
	n, ctx, wk, s := e.nodes[id], &e.ctxs[id], &e.wks[w], &e.slots[id]
	s.w = w
	if init {
		n.Init(ctx)
		return
	}
	for ev := s.head; ev != nil; ev = ev.next {
		// Merge the sender's clock value before the handler runs, so every
		// event the handler emits orders after the matching send.
		lc := e.clockOf(id).Merge(ev.cc.OSeq)
		if e.obsTr != nil {
			e.obsTr.Emit(obs.Event{Type: obs.EvMsgDeliver, Step: e.now, Node: id, Peer: ev.from, LC: lc}.WithCausal(ev.cc))
		}
		wk.hops = ev.cc.Hops
		n.OnMessage(ctx, ev.from, ev.payload)
		wk.hops = 0
	}
	s.head, s.tail = nil, nil
	if e.Inject != nil && e.Inject.Down(id) {
		return
	}
	n.OnTick(ctx)
}

// drop records the loss of one event and recycles it.
func (e *Engine) drop(ev *event, cause string) {
	e.stats.Dropped++
	e.obsDropped.Inc()
	if e.obsTr != nil {
		e.obsTr.Emit(obs.Event{Type: obs.EvMsgDrop, Step: e.now, Node: ev.from, Peer: ev.to, Detail: cause}.WithCausal(ev.cc))
	}
	e.pool.put(ev)
}

// send stages a message in the sender's outbox; the fault verdict and
// routing happen at the barrier. Everything touched here — the sender's
// slot and trace clock — belongs to the sending node, and the graph is
// immutable during a step.
func (e *Engine) send(from, to NodeID, payload any) {
	if !e.Graph.HasEdge(from, to) {
		panic(fmt.Sprintf("sim: node %d sending to non-neighbor %d", from, to))
	}
	s := &e.slots[from]
	wk := &e.wks[s.w]
	s.fseq++
	// Mint the message's causal identity: one sender-clock tick per send,
	// shared by every fault-injected duplicate. Hops chains through the
	// delivery currently being handled, if any.
	cc := obs.CausalCtx{Origin: from, OSeq: e.clockOf(from).Tick(), Hops: wk.hops + 1}
	if e.obsTr != nil {
		e.obsTr.Emit(obs.Event{Type: obs.EvMsgSend, Step: e.now, Node: from, Peer: to, LC: cc.OSeq}.WithCausal(cc))
	}
	ev := e.pool.take()
	*ev = event{from: from, fseq: s.fseq, to: to, payload: payload, cc: cc}
	wk.outbox = append(wk.outbox, ev)
}

// exchange is the barrier. It routes every worker's outbox front to
// back, then recycles the step's delivered events.
func (e *Engine) exchange() {
	for w := range e.wks {
		out := e.wks[w].outbox
		for i, ev := range out {
			e.route(ev)
			out[i] = nil
		}
		e.wks[w].outbox = out[:0]
	}
	for i, ev := range e.due {
		e.pool.put(ev)
		e.due[i] = nil
	}
	e.due = e.due[:0]
}

// route applies fault injection to one staged send and schedules the
// surviving copies.
func (e *Engine) route(ev *event) {
	e.stats.Sent++
	e.obsSent.Inc()
	v := faults.Verdict{Copies: 1}
	if e.Inject != nil {
		v = e.Inject.Decide(ev.from, ev.to, ev.fseq)
	}
	if v.Drop {
		e.drop(ev, v.Cause)
		return
	}
	base := e.now + int64(e.Graph.Delay(ev.from, ev.to))
	link := [2]int{ev.from, ev.to}
	for c := range v.Copies {
		cp := ev
		if c > 0 {
			e.stats.Duplicated++
			e.obsDup.Inc()
			cp = e.pool.get()
			*cp = *ev
			cp.dup = int32(c)
		}
		cp.at = base + v.Extra[c]
		if e.Inject != nil {
			cp.at = max(cp.at, e.lastAt[link]) // jitter must not reorder a FIFO link
			e.lastAt[link] = cp.at
		}
		e.schedule(cp)
	}
}

// schedule puts an event in flight.
func (e *Engine) schedule(ev *event) {
	if d := ev.at - e.now; d >= int64(len(e.wheel)) {
		e.growWheel(d + 1)
	}
	b := &e.wheel[ev.at%int64(len(e.wheel))]
	*b = append(*b, ev)
	e.inFlight++
}

// growWheel re-buckets the events in flight over a wheel of at least n
// steps.
func (e *Engine) growWheel(n int64) {
	old := e.wheel
	e.wheel = make([][]*event, max(n, 2*int64(len(old))))
	for _, b := range old {
		for _, ev := range b {
			i := ev.at % int64(len(e.wheel))
			e.wheel[i] = append(e.wheel[i], ev)
		}
	}
}

// recoverNode replaces an amnesiac node's wiped instance with whatever
// the Recover hook rebuilds from durable state, and routes its rejoin
// sends at once. When recovery is impossible the node is crashed again
// permanently.
func (e *Engine) recoverNode(id NodeID) {
	var repl Node
	if e.Recover != nil {
		repl = e.Recover(id)
	}
	if repl == nil {
		e.Inject.Crash(id)
		return
	}
	e.nodes[id] = repl
	if r, ok := repl.(Rejoiner); ok {
		e.slots[id].w = 0
		r.OnRejoin(&e.ctxs[id])
		e.exchange()
	}
}

// ReplaceNode swaps the node hosted at id — the engine-level primitive
// behind recovery; the caller owns protocol-state consistency (the
// replacement should be a restored instance of the old node, see
// core.RestoreResource). Call between steps.
func (e *Engine) ReplaceNode(id NodeID, n Node) { e.nodes[id] = n }

// AddLink inserts a new overlay edge at runtime (a resource joining
// the communication tree) and notifies both endpoints if they
// implement NeighborJoiner. Call between steps; the join handlers run
// on the caller's goroutine and any sends they stage are routed
// immediately, u's before v's.
func (e *Engine) AddLink(u, v NodeID, delay int) {
	e.init()
	e.Graph.AddEdge(u, v, delay)
	e.setOrder()
	e.join(u, v)
	e.join(v, u)
}

// join tells u about its new neighbour v and routes what u sends in
// reply.
func (e *Engine) join(u, v NodeID) {
	if j, ok := e.nodes[u].(NeighborJoiner); ok {
		e.slots[u].w = 0
		j.OnNeighborJoin(&e.ctxs[u], v)
		e.exchange()
	}
}

// Run advances n steps.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.Step()
	}
}

// RunUntil steps until pred returns true or maxSteps elapse, returning
// the number of steps taken and whether pred was satisfied. pred runs
// at the barrier (no worker is live), so it may inspect node state
// freely.
func (e *Engine) RunUntil(pred func() bool, maxSteps int) (int, bool) {
	e.init()
	for i := 0; i < maxSteps; i++ {
		if pred() {
			return i, true
		}
		e.Step()
	}
	return maxSteps, pred()
}

// Quiesce steps until no messages are pending or maxSteps elapse; it
// returns the steps taken and whether the system went quiet. At least
// one step is always taken, so a protocol that emits its first
// messages from OnTick is given the chance to start. Useful for
// protocols whose termination is "no more messages to send".
func (e *Engine) Quiesce(maxSteps int) (int, bool) {
	if maxSteps < 1 {
		return 0, e.Pending() == 0
	}
	e.Step()
	n, ok := e.RunUntil(func() bool { return e.Pending() == 0 }, maxSteps-1)
	return n + 1, ok
}

// Context is the capability handed to a node's callbacks; it is valid
// only for the duration of the callback's hosting engine.
type Context struct {
	e    *Engine
	self NodeID
}

// Self returns the node's ID.
func (c *Context) Self() NodeID { return c.self }

// Now returns the current step.
func (c *Context) Now() int64 { return c.e.now }

// Send schedules a message to a neighbor; delivery happens after the
// link's propagation delay.
func (c *Context) Send(to NodeID, payload any) { c.e.send(c.self, to, payload) }

// Neighbors returns the node's adjacency list (do not mutate).
func (c *Context) Neighbors() []int { return c.e.Graph.Neighbors(c.self) }
