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
// per-shard event loops in parallel and stay deterministic (see Engine).
// Real sockets and wall-clock concurrency are internal/netgrid's job.
package sim

import (
	"container/heap"
	"fmt"
	"sync"

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
// sharding stands on.
type event struct {
	at   int64
	from NodeID
	fseq int64
	dup  int32
	to   NodeID
	// payload is the message body.
	payload any
	// cc is the message's causal context, minted at send time;
	// fault-injected duplicates share their original's identity.
	cc obs.CausalCtx
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.from != b.from {
		return a.from < b.from
	}
	if a.fseq != b.fseq {
		return a.fseq < b.fseq
	}
	return a.dup < b.dup
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// eventPool is a freelist of event structs. At scale the per-message
// heap allocation is pure churn — every delivered event is recycled, so
// the steady-state tick path allocates no events at all.
type eventPool struct{ free []*event }

func (p *eventPool) get() *event {
	if n := len(p.free); n > 0 {
		ev := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return ev
	}
	return &event{}
}

func (p *eventPool) put(ev *event) {
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

// Faults configures simple probabilistic fault injection on every
// link. It predates internal/faults and remains for lightweight tests;
// the full model (partitions, crash schedules, jitter, deterministic
// replay) is Engine.Inject.
//
// Decisions are a pure hash of (engine seed, sender, receiver, send
// sequence) rather than draws from a sequential RNG stream, so a
// message's fate never depends on how sends interleave — the property
// that keeps fault decisions identical at every shard count.
type Faults struct {
	DropProb float64 // probability a message is silently lost
	DupProb  float64 // probability a message is delivered twice
}

// copies returns how many copies of the message should be scheduled:
// 0 dropped, 1 normal, 2 duplicated.
func (f Faults) copies(seed int64, from, to NodeID, fseq int64) int {
	if f.DropProb <= 0 && f.DupProb <= 0 {
		return 1
	}
	drop, dup := faultRolls(seed, from, to, fseq)
	if f.DropProb > 0 && drop < f.DropProb {
		return 0
	}
	if f.DupProb > 0 && dup < f.DupProb {
		return 2
	}
	return 1
}

// mix64 is the splitmix64 finalizer — a cheap, well-distributed bit
// mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// faultRolls derives two uniform [0,1) draws from a message identity.
func faultRolls(seed int64, from, to NodeID, fseq int64) (a, b float64) {
	h := mix64(uint64(seed)*0x9e3779b97f4a7c15 ^ mix64(uint64(from)+0xbf58476d1ce4e5b9) ^
		mix64(uint64(to)+0x94d049bb133111eb) ^ uint64(fseq))
	return float64(mix64(h+1)>>11) / (1 << 53), float64(mix64(h+2)>>11) / (1 << 53)
}

// Engine hosts the nodes and drives time. Nodes are partitioned
// round-robin across shards; each shard owns one event heap and, in the
// parallel phase of a step, one goroutine that delivers its nodes' due
// messages and ticks them. Every send is staged in the sender's shard
// outbox; the single-threaded barrier that ends the step applies the
// fault verdicts and routes the survivors into the destination shards'
// heaps. NewEngine builds the one-shard case, which runs inline with no
// goroutines.
//
// Why a fixed seed gives the same results at any shard count:
//
//  1. Handlers only mutate their own node's state, and every link has
//     delay ≥ 1, so nothing a node does at step t is observable by any
//     other node within step t: the parallel phase has no cross-node
//     data flow.
//  2. Event order is content-addressed (see event), so each node's
//     delivery sequence does not depend on which goroutine enqueued the
//     events or in what order.
//  3. Within a shard, deliveries happen in heap order and ticks in
//     ascending node id; the barrier visits shards by index and each
//     outbox in staging order — at one shard, exactly send order.
//
// The boundary: Faults rolls hash the message identity, and an Inject
// schedule that draws no randomness (crash, amnesia and Recover,
// partition/heal, corrupt) decides from structural state fixed for the
// whole step, so under either, results and per-node traces are
// bit-identical at every shard count. Inject's probabilistic faults
// (drop, duplicate, jitter) draw from one sequential RNG in barrier
// order, which depends on the shard count: such a run is deterministic
// for a fixed (seed, shard count) and is held to the oracle and the
// loss audit, not to byte parity across shard counts. Likewise an
// engine-wide sink (SetObs) is safe at any shard count, but past one
// shard the Seq interleave of concurrent shards' events is not
// deterministic — use per-resource sinks (core.Config.Obs) when
// byte-stable merged traces matter.
type Engine struct {
	Graph  *topology.Graph
	Faults Faults
	// Inject, when set, is the full fault-injection middleware: every
	// send is submitted to it (drop/duplicate/delay/partition), nodes
	// it marks down neither tick nor receive, and its event schedule is
	// advanced once per step. Jittered deliveries are clamped to
	// preserve per-link FIFO unless the injector permits reordering.
	// The Faults knobs are ignored while an injector is installed.
	Inject *faults.Injector
	// Recover, when set, rebuilds a node after a crash-with-amnesia
	// restart (faults.Event.Amnesia, Injector.CrashAmnesia): it receives
	// the node id and returns the replacement — typically restored from
	// durable state (internal/persist) — or nil when nothing can be
	// restored, in which case the node is crashed again and stays down
	// for good (a machine that lost its memory and has no disk never
	// rejoins). Without a Recover hook every amnesiac restart is lost.
	// It runs at the top of Step, before any shard goroutine starts.
	Recover func(id NodeID) Node

	nodes  []Node
	ctxs   []Context
	shards []*shard
	fseqs  []int64 // per-sender send counters (the event-order key)
	// clocks holds engine-owned trace clocks for nodes that are not
	// TraceClocked, filled lazily by the owner shard.
	clocks []*obs.Clock
	// lastAt tracks the latest scheduled delivery per directed link so
	// injected jitter cannot reorder a FIFO link (barrier-only).
	lastAt map[[2]int]int64
	now    int64
	seed   int64
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

// shard is one shared-nothing partition: its heap, outbox, freelist
// and counters are touched only by its own goroutine during the
// parallel phase and only by the barrier thread between phases.
type shard struct {
	eng    *Engine
	owned  []NodeID
	queue  eventHeap
	outbox []*event
	pool   eventPool
	// curHops is the hop count of the message currently being delivered
	// (0 between deliveries), so sends made from inside OnMessage inherit
	// the chain depth.
	curHops int
	stats   Stats
}

// NewEngine builds a one-shard engine over the graph; nodes[i] is
// hosted at graph node i.
func NewEngine(g *topology.Graph, nodes []Node, seed int64) *Engine {
	return NewShardedEngine(g, nodes, seed, 1)
}

// NewShardedEngine is NewEngine with an explicit shard count (clamped
// to [1, len(nodes)]); node i is owned by shard i%nshards.
func NewShardedEngine(g *topology.Graph, nodes []Node, seed int64, nshards int) *Engine {
	if len(nodes) != g.N {
		panic(fmt.Sprintf("sim: %d nodes for a %d-node graph", len(nodes), g.N))
	}
	nshards = max(1, min(nshards, len(nodes)))
	e := &Engine{
		Graph:  g,
		nodes:  nodes,
		seed:   seed,
		fseqs:  make([]int64, len(nodes)),
		clocks: make([]*obs.Clock, len(nodes)),
		ctxs:   make([]Context, len(nodes)),
		shards: make([]*shard, nshards),
		lastAt: map[[2]int]int64{},
	}
	for s := range e.shards {
		e.shards[s] = &shard{eng: e}
	}
	// Round-robin placement spreads hub nodes of skewed topologies
	// (preferential attachment) across shards; pre-size each heap from
	// its owners' total degree — the steady-state in-flight population
	// is about one message per directed link, so the heap never
	// reallocates mid-run.
	degs := make([]int, nshards)
	for i := range nodes {
		s := i % nshards
		e.shards[s].owned = append(e.shards[s].owned, i)
		degs[s] += g.Degree(i)
		e.ctxs[i] = Context{e: e, self: i}
	}
	for s, sh := range e.shards {
		sh.queue = make(eventHeap, 0, degs[s])
	}
	return e
}

// SetObs installs engine-level telemetry: message counters, the
// pending-queue gauge, and transport trace events (EvMsgSend,
// EvMsgDeliver, EvMsgDrop). Counters and gauges are atomics, so they
// aggregate across shards and a concurrent scrape never races the
// engine. Call before the first Step.
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

// Now returns the current step.
func (e *Engine) Now() int64 { return e.now }

// Node returns the hosted node i (for metric collection).
func (e *Engine) Node(i NodeID) Node { return e.nodes[i] }

// NumNodes returns the node count.
func (e *Engine) NumNodes() int { return len(e.nodes) }

// Pending reports the number of undelivered messages.
func (e *Engine) Pending() int {
	n := 0
	for _, s := range e.shards {
		n += len(s.queue)
	}
	return n
}

// Stats returns a copy of the counters, summed across shards.
func (e *Engine) Stats() Stats {
	var st Stats
	for _, s := range e.shards {
		st.Sent += s.stats.Sent
		st.Delivered += s.stats.Delivered
		st.Dropped += s.stats.Dropped
		st.Duplicated += s.stats.Duplicated
	}
	return st
}

func (e *Engine) shardOf(id NodeID) *shard { return e.shards[id%len(e.shards)] }

// clockOf returns the trace clock for node id: the node's own when it
// is TraceClocked (looked up per call, so recovery swaps take effect),
// otherwise a lazily allocated engine-owned one. Only the owner shard
// (or the barrier thread) touches a node's slot, so no locking.
func (e *Engine) clockOf(id NodeID) *obs.Clock {
	if tc, ok := e.nodes[id].(TraceClocked); ok {
		if ck := tc.TraceClock(); ck != nil {
			return ck
		}
	}
	if e.clocks[id] == nil {
		e.clocks[id] = obs.NewClock()
	}
	return e.clocks[id]
}

// parallel runs fn once per shard and waits; a single shard runs inline.
func (e *Engine) parallel(fn func(*shard)) {
	if len(e.shards) == 1 {
		fn(e.shards[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(e.shards))
	for _, s := range e.shards {
		go func(s *shard) {
			defer wg.Done()
			fn(s)
		}(s)
	}
	wg.Wait()
}

// init runs every node's Init once (at now=0, so a bootstrap send over
// a delay-d link delivers at step d) and routes the bootstrap sends.
func (e *Engine) init() {
	if e.inited {
		return
	}
	e.inited = true
	e.parallel((*shard).initNodes)
	e.exchange()
}

func (s *shard) initNodes() {
	for _, id := range s.owned {
		s.eng.nodes[id].Init(&s.eng.ctxs[id])
	}
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
	e.parallel((*shard).run)
	e.exchange()
	e.obsPending.Set(float64(e.Pending()))
	e.obsStep.Set(float64(e.now))
}

// run is a shard's parallel half-step: due deliveries in heap order,
// then ticks in ascending node id.
func (s *shard) run() {
	e := s.eng
	for len(s.queue) > 0 && s.queue[0].at <= e.now {
		ev := heap.Pop(&s.queue).(*event)
		if e.Inject != nil && e.Inject.Down(ev.to) {
			e.Inject.CountCrashDrop()
			s.drop(ev, faults.CauseCrash)
			continue
		}
		s.stats.Delivered++
		e.obsDelivered.Inc()
		// Merge the sender's clock value before the handler runs, so every
		// event the handler emits orders after the matching send.
		lc := e.clockOf(ev.to).Merge(ev.cc.OSeq)
		if e.obsTr != nil {
			e.obsTr.Emit(obs.Event{Type: obs.EvMsgDeliver, Step: e.now, Node: ev.to, Peer: ev.from, LC: lc}.WithCausal(ev.cc))
		}
		s.curHops = ev.cc.Hops
		e.nodes[ev.to].OnMessage(&e.ctxs[ev.to], ev.from, ev.payload)
		s.curHops = 0
		s.pool.put(ev)
	}
	for _, id := range s.owned {
		if e.Inject != nil && e.Inject.Down(id) {
			continue
		}
		e.nodes[id].OnTick(&e.ctxs[id])
	}
}

// drop records the loss of one event and recycles it.
func (s *shard) drop(ev *event, cause string) {
	e := s.eng
	s.stats.Dropped++
	e.obsDropped.Inc()
	if e.obsTr != nil {
		e.obsTr.Emit(obs.Event{Type: obs.EvMsgDrop, Step: e.now, Node: ev.from, Peer: ev.to, Detail: cause}.WithCausal(ev.cc))
	}
	s.pool.put(ev)
}

// send stages a message in the sender's shard outbox; the fault verdict
// and routing happen at the barrier. Everything touched here — the
// sender's fseq counter, trace clock and shard — is owned by the
// sending node's shard, and the graph is immutable during a step.
func (e *Engine) send(from, to NodeID, payload any) {
	if !e.Graph.HasEdge(from, to) {
		panic(fmt.Sprintf("sim: node %d sending to non-neighbor %d", from, to))
	}
	s := e.shardOf(from)
	s.stats.Sent++
	e.obsSent.Inc()
	e.fseqs[from]++
	// Mint the message's causal identity: one sender-clock tick per send,
	// shared by every fault-injected duplicate. Hops chains through the
	// delivery currently being handled, if any.
	cc := obs.CausalCtx{Origin: from, OSeq: e.clockOf(from).Tick(), Hops: s.curHops + 1}
	if e.obsTr != nil {
		e.obsTr.Emit(obs.Event{Type: obs.EvMsgSend, Step: e.now, Node: from, Peer: to, LC: cc.OSeq}.WithCausal(cc))
	}
	ev := s.pool.get()
	*ev = event{from: from, fseq: e.fseqs[from], to: to, payload: payload, cc: cc}
	s.outbox = append(s.outbox, ev)
}

// exchange is the single-threaded barrier: every staged send gets its
// fault verdict and the surviving copies go into the destination
// shards' heaps. The visiting order (shard index, then staging order)
// fixes the order of the injector's RNG draws and FIFO clamps; by the
// content-addressed heap key, delivery order would be the same under
// any routing order.
func (e *Engine) exchange() {
	for _, s := range e.shards {
		for i, ev := range s.outbox {
			s.outbox[i] = nil
			e.route(s, ev)
		}
		s.outbox = s.outbox[:0]
	}
}

// route applies fault injection to one staged send from shard s.
func (e *Engine) route(s *shard, ev *event) {
	copies, cause := 0, faults.CauseInjected
	var extra []int64 // per-copy injected delay; nil without an injector
	if e.Inject != nil {
		if v := e.Inject.Decide(ev.from, ev.to); v.Drop {
			cause = v.Cause
		} else {
			copies, extra = len(v.Extra), v.Extra
		}
	} else {
		copies = e.Faults.copies(e.seed, ev.from, ev.to, ev.fseq)
	}
	if copies == 0 {
		s.drop(ev, cause)
		return
	}
	base := e.now + int64(e.Graph.Delay(ev.from, ev.to))
	dst, link := e.shardOf(ev.to), [2]int{ev.from, ev.to}
	for c := 0; c < copies; c++ {
		cp := ev
		if c > 0 {
			s.stats.Duplicated++
			e.obsDup.Inc()
			cp = dst.pool.get()
			*cp = *ev
			cp.dup = int32(c)
		}
		cp.at = base
		if extra != nil {
			cp.at += extra[c]
			if !e.Inject.Reorders() && cp.at < e.lastAt[link] {
				cp.at = e.lastAt[link] // jitter must not reorder a FIFO link
			}
			e.lastAt[link] = cp.at
		}
		heap.Push(&dst.queue, cp)
	}
}

// recoverNode replaces an amnesiac node's wiped instance with whatever
// the Recover hook rebuilds from durable state. When recovery is
// impossible the node is crashed again permanently.
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
		r.OnRejoin(&e.ctxs[id])
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
// immediately.
func (e *Engine) AddLink(u, v NodeID, delay int) {
	e.init()
	e.Graph.AddEdge(u, v, delay)
	if j, ok := e.nodes[u].(NeighborJoiner); ok {
		j.OnNeighborJoin(&e.ctxs[u], v)
	}
	if j, ok := e.nodes[v].(NeighborJoiner); ok {
		j.OnNeighborJoin(&e.ctxs[v], u)
	}
	e.exchange()
}

// Run advances n steps.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.Step()
	}
}

// RunUntil steps until pred returns true or maxSteps elapse, returning
// the number of steps taken and whether pred was satisfied. pred runs
// at the barrier (no shard goroutine is live), so it may inspect node
// state freely.
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
