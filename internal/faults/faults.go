// Package faults is the unified fault-injection layer shared by both
// grid runtimes: the deterministic discrete-event simulator
// (internal/sim) and the TCP transport (internal/netgrid). The paper's
// setting — a data grid where "resources come and go" — makes message
// loss, duplication, delay, partitions and resource churn the *default*
// operating condition, so the runtimes take an *Injector as middleware
// and consult it on every link event.
//
// The model is composable: probabilistic link faults (drop,
// duplication, delay jitter) layer on top of structural state (crashed
// nodes, a partition of the node set), and structural state can be
// driven either imperatively (Crash/Restart/Partition/Heal — what the
// TCP transport's tests do in wall-clock time) or declaratively through
// a step-indexed Schedule replayed by Advance (what the simulator does,
// keeping runs reproducible).
//
// A message's probabilistic fate is a pure hash of (Seed, sender,
// receiver, the sender's per-message sequence number): nothing in a
// verdict depends on the order in which the runtimes submit messages.
// Runtimes that step their nodes concurrently therefore need no merge
// to replay a chaos run from a single seed.
package faults

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"secmr/internal/obs"
)

// Config describes one fault regime.
type Config struct {
	// Seed drives every probabilistic decision (0 is a valid seed).
	Seed int64
	// DropProb is the probability a message is silently lost in
	// transit.
	DropProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// DelayJitter adds a uniform extra delay in [0, DelayJitter] ticks
	// to each delivery. Runtimes that promise per-link FIFO (the
	// simulator, TCP) clamp jittered deliveries so ordering is
	// preserved — jitter stretches latency without reordering.
	DelayJitter int
	// Schedule lists structural events (crashes, restarts, partitions)
	// replayed by Advance in At order, whatever order they are given in.
	Schedule []Event
}

// Event is one scheduled structural change. Zero-value fields are
// ignored, so an event can combine e.g. a crash and a partition.
type Event struct {
	// At is the logical time (simulator step) the event fires.
	At int64
	// Crash marks these nodes down: they stop ticking and every
	// message to or from them is dropped.
	Crash []int
	// Restart brings these nodes back up.
	Restart []int
	// Amnesia upgrades this event's Crash list to crash-with-amnesia:
	// the nodes lose their in-memory state, and their later Restart goes
	// through the runtime's recovery path (sim.Engine.Recover) instead
	// of resuming in place. A restarted amnesiac node with no durable
	// state to recover from stays down permanently.
	Amnesia bool
	// Partition, when non-nil, installs a partition: links between
	// nodes in *different* groups are cut. Nodes absent from every
	// group are unaffected (their links stay up). Replaces any
	// previously installed partition.
	Partition [][]int
	// Heal removes the installed partition.
	Heal bool
	// Corrupt flips these nodes to Byzantine: a previously honest
	// resource starts tampering from this event on (adversaries wired
	// through attack.Scheduled consult Injector.Byzantine). Corruption
	// is one-way — there is no scheduled "repent".
	Corrupt []int
}

// Stats counts injected faults.
type Stats struct {
	Dropped    int64 // messages lost to the probabilistic drop
	Duplicated int64 // extra copies created
	Delayed    int64 // messages given a non-zero extra delay
	CrashDrops int64 // messages lost because an endpoint was down
	CutDrops   int64 // messages lost to a partition
	QueueDrops int64 // transport queue overflow (netgrid reports these)
	Reconnects int64 // transport reconnections (netgrid reports these)
	// AmnesiaWipes counts crash-with-amnesia events: crashes whose
	// restart must go through durable-state recovery.
	AmnesiaWipes int64
	// Corruptions counts nodes flipped to Byzantine by Corrupt events.
	Corruptions int64
}

// Verdict is the fate of one message. When Drop is false, Copies is
// how many copies to deliver — 1 normally, 2 for a duplicated message —
// and Extra[c] is copy c's extra delay in ticks. Cause names why a Drop
// verdict fired ("crash", "partition-cut" or "injected"), so trace
// events and loss forensics can attribute every lost message to the
// fault that ate it.
type Verdict struct {
	Drop   bool
	Cause  string
	Copies int
	Extra  [2]int64
}

// Drop-cause vocabulary stamped into Verdict.Cause and, by the
// runtimes, into EvMsgDrop trace details.
const (
	CauseCrash    = "crash"
	CauseCut      = "partition-cut"
	CauseInjected = "injected"
)

// Injector is the shared fault decision point. All methods are safe
// for concurrent use.
type Injector struct {
	mu      sync.Mutex
	cfg     Config
	down    map[int]bool
	group   map[int]int // node -> partition group (while partitioned)
	parted  bool
	nextEvt int
	stats   Stats
	// amnesiac marks down nodes whose crash wiped their in-memory
	// state; their restart is diverted to the recovery path.
	amnesiac map[int]bool
	// byz marks nodes flipped to Byzantine by Corrupt events;
	// attack.Scheduled adversaries consult it through Byzantine.
	byz map[int]bool
	// recovered queues amnesiac nodes whose restart fired, for the
	// hosting runtime to drain (TakeRecovered) and rebuild.
	recovered []int
	// injected-fault counters, resolved once by SetObs (nil = off).
	cDrop, cDup, cDelay, cCrash, cCut, cQueue, cReconn, cAmnesia, cCorrupt *obs.Counter
	// tr receives adversary-activation trace events (EvCorrupt) — the
	// anchor of an eviction's causal chain.
	tr *obs.Tracer
}

// New builds an injector. Advance replays the schedule in At order;
// events with equal At keep the order given.
func New(cfg Config) *Injector {
	cfg.Schedule = slices.Clone(cfg.Schedule)
	slices.SortStableFunc(cfg.Schedule, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
	return &Injector{
		cfg:      cfg,
		down:     map[int]bool{},
		amnesiac: map[int]bool{},
		byz:      map[int]bool{},
	}
}

// SetObs installs fault telemetry: one counter family labelled by the
// injected action, incremented alongside the Stats fields. Call before
// the injector is shared with a runtime.
func (in *Injector) SetObs(sink *obs.Sink) {
	reg := sink.Registry()
	help := "Faults injected, by action."
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cDrop = reg.Counter("secmr_faults_injected_total", help, "action", "drop")
	in.cDup = reg.Counter("secmr_faults_injected_total", help, "action", "duplicate")
	in.cDelay = reg.Counter("secmr_faults_injected_total", help, "action", "delay")
	in.cCrash = reg.Counter("secmr_faults_injected_total", help, "action", "crash_drop")
	in.cCut = reg.Counter("secmr_faults_injected_total", help, "action", "cut_drop")
	in.cQueue = reg.Counter("secmr_faults_injected_total", help, "action", "queue_drop")
	in.cReconn = reg.Counter("secmr_faults_injected_total", help, "action", "reconnect")
	in.cAmnesia = reg.Counter("secmr_faults_injected_total", help, "action", "crash_amnesia")
	in.cCorrupt = reg.Counter("secmr_faults_injected_total", help, "action", "corrupt")
	in.tr = sink.Tracer()
}

// Advance applies every scheduled event with At <= now. The simulator
// calls it once per step; the TCP transport, which has no step clock,
// uses the imperative methods instead.
func (in *Injector) Advance(now int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for in.nextEvt < len(in.cfg.Schedule) && in.cfg.Schedule[in.nextEvt].At <= now {
		ev := in.cfg.Schedule[in.nextEvt]
		in.nextEvt++
		for _, u := range ev.Crash {
			in.down[u] = true
			if ev.Amnesia {
				in.amnesiac[u] = true
				in.stats.AmnesiaWipes++
				in.cAmnesia.Inc()
			}
		}
		for _, u := range ev.Restart {
			if in.amnesiac[u] {
				// The node lost its state; keep it down until the hosting
				// runtime drains it (TakeRecovered) and rebuilds it from
				// durable state — or fails to and re-crashes it.
				delete(in.amnesiac, u)
				in.recovered = append(in.recovered, u)
			}
			delete(in.down, u)
		}
		if ev.Partition != nil {
			in.installPartition(ev.Partition)
		}
		if ev.Heal {
			in.parted, in.group = false, nil
		}
		for _, u := range ev.Corrupt {
			if !in.byz[u] {
				in.byz[u] = true
				in.stats.Corruptions++
				in.cCorrupt.Inc()
				// The activation event anchors eviction forensics: the
				// causal chain behind an eviction starts here.
				in.tr.Emit(obs.Event{Type: obs.EvCorrupt, Step: now, Node: u, Peer: -1,
					Detail: "scheduled"})
			}
		}
	}
}

// Byzantine reports whether a node has been flipped to Byzantine.
// attack.Scheduled adversaries use it as their activation predicate.
func (in *Injector) Byzantine(node int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.byz[node]
}

// Crash marks a node down until Restart.
func (in *Injector) Crash(node int) {
	in.mu.Lock()
	in.down[node] = true
	in.mu.Unlock()
}

// Restart brings a crashed node back up. An amnesiac node is queued
// for recovery instead of resuming (see CrashAmnesia, TakeRecovered).
func (in *Injector) Restart(node int) {
	in.mu.Lock()
	if in.amnesiac[node] {
		delete(in.amnesiac, node)
		in.recovered = append(in.recovered, node)
	}
	delete(in.down, node)
	in.mu.Unlock()
}

// CrashAmnesia marks a node down AND wipes its in-memory state: unlike
// a plain Crash, the later Restart does not resume the old instance but
// queues the node for durable-state recovery at the hosting runtime.
func (in *Injector) CrashAmnesia(node int) {
	in.mu.Lock()
	in.down[node] = true
	in.amnesiac[node] = true
	in.stats.AmnesiaWipes++
	in.cAmnesia.Inc()
	in.mu.Unlock()
}

// TakeRecovered drains the list of amnesiac nodes whose restart fired
// since the last call. The hosting runtime must rebuild each from
// durable state (sim.Engine.Recover) or crash it again for good.
func (in *Injector) TakeRecovered() []int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := in.recovered
	in.recovered = nil
	return out
}

// Down reports whether a node is currently crashed.
func (in *Injector) Down(node int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.down[node]
}

// Partition cuts every link whose endpoints fall in different groups;
// nodes absent from all groups keep their links. Replaces any previous
// partition.
func (in *Injector) Partition(groups ...[]int) {
	in.mu.Lock()
	in.installPartition(groups)
	in.mu.Unlock()
}

func (in *Injector) installPartition(groups [][]int) {
	in.parted = true
	in.group = map[int]int{}
	for g, members := range groups {
		for _, u := range members {
			in.group[u] = g
		}
	}
}

// Heal removes the installed partition.
func (in *Injector) Heal() {
	in.mu.Lock()
	in.parted, in.group = false, nil
	in.mu.Unlock()
}

// Cut reports whether the link u—v is severed by the current
// partition.
func (in *Injector) Cut(u, v int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.cutLocked(u, v)
}

func (in *Injector) cutLocked(u, v int) bool {
	if !in.parted {
		return false
	}
	gu, okU := in.group[u]
	gv, okV := in.group[v]
	return okU && okV && gu != gv
}

// Decide returns the fate of message seq from u to v: dropped when
// either endpoint is down or the link is cut or the drop roll fires;
// otherwise one or two copies, each with an extra delay. The rolls are
// a hash of (Seed, from, to, seq), so seq must name the message among
// the sender's sends to v — a per-sender or per-link counter — and the
// verdict does not depend on when Decide is called.
func (in *Injector) Decide(from, to int, seq int64) Verdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.down[from] || in.down[to] {
		in.stats.CrashDrops++
		in.cCrash.Inc()
		return Verdict{Drop: true, Cause: CauseCrash}
	}
	if in.cutLocked(from, to) {
		in.stats.CutDrops++
		in.cCut.Inc()
		return Verdict{Drop: true, Cause: CauseCut}
	}
	h := messageHash(in.cfg.Seed, from, to, seq)
	if in.cfg.DropProb > 0 && roll(h, 1) < in.cfg.DropProb {
		in.stats.Dropped++
		in.cDrop.Inc()
		return Verdict{Drop: true, Cause: CauseInjected}
	}
	v := Verdict{Copies: 1}
	if in.cfg.DupProb > 0 && roll(h, 2) < in.cfg.DupProb {
		v.Copies = 2
		in.stats.Duplicated++
		in.cDup.Inc()
	}
	if in.cfg.DelayJitter > 0 {
		for c := range v.Copies {
			// The high word of a 64×64 product is uniform over [0, J].
			d, _ := bits.Mul64(mix64(h+3+uint64(c)), uint64(in.cfg.DelayJitter)+1)
			if d > 0 {
				in.stats.Delayed++
				in.cDelay.Inc()
			}
			v.Extra[c] = int64(d)
		}
	}
	return v
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

// messageHash is a message's identity folded into one word; roll and
// the jitter draws derive independent values from it.
func messageHash(seed int64, from, to int, seq int64) uint64 {
	return mix64(uint64(seed)*0x9e3779b97f4a7c15 ^ mix64(uint64(from)+0xbf58476d1ce4e5b9) ^
		mix64(uint64(to)+0x94d049bb133111eb) ^ uint64(seq))
}

// roll is the message's i-th uniform draw in [0,1).
func roll(h, i uint64) float64 {
	return float64(mix64(h+i)>>11) / (1 << 53)
}

// CountCrashDrop records a message that was already in flight when its
// destination went down and was lost at delivery time — Decide only
// sees the sends made while an endpoint is down.
func (in *Injector) CountCrashDrop() {
	in.mu.Lock()
	in.stats.CrashDrops++
	in.cCrash.Inc()
	in.mu.Unlock()
}

// CountQueueDrop records a transport-side queue overflow.
func (in *Injector) CountQueueDrop() {
	in.mu.Lock()
	in.stats.QueueDrops++
	in.cQueue.Inc()
	in.mu.Unlock()
}

// CountReconnect records a transport-side reconnection.
func (in *Injector) CountReconnect() {
	in.mu.Lock()
	in.stats.Reconnects++
	in.cReconn.Inc()
	in.mu.Unlock()
}

// Stats returns a copy of the counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}
