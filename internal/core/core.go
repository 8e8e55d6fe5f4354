// Package core implements Secure-Majority-Rule (§5, Algorithms 1–4) —
// the paper's primary contribution: a k-secure distributed
// association-rule mining algorithm that withstands malicious brokers
// and controllers.
//
// Each grid resource (Figure 1) hosts three entities:
//
//   - the Accountant guards the local database partition and the
//     encryption key; it answers support queries with oblivious
//     counters and creates the random shares that bind brokers to the
//     protocol;
//   - the Broker runs the (encrypted) Scalable-Majority votes and all
//     inter-resource communication; it holds no keys and can only
//     apply the public homomorphic operators;
//   - the Controller holds the decryption key; every data-dependent
//     decision the broker needs (send a message? is this rule
//     correct?) is obtained through an SFE with the controller, which
//     enforces the k-privacy gate and verifies the share and timestamp
//     fields, broadcasting a report when a malicious participant is
//     detected.
//
// Design resolutions of the paper's pseudo-code ambiguities are
// documented in DESIGN.md §2; each is also marked at the code site.
package core

import (
	"fmt"
	"math/big"
	"sort"

	"secmr/internal/arm"
	"secmr/internal/homo"
	"secmr/internal/intern"
	"secmr/internal/oblivious"
	"secmr/internal/obs"
	"secmr/internal/sim"
)

// Config parameterizes one secure mining resource. The zero value is
// completed by withDefaults.
type Config struct {
	Th       arm.Thresholds
	Universe arm.Itemset
	// ScanBudget transactions are counted per candidate per step
	// (paper: 100).
	ScanBudget int
	// CandidateEvery steps between controller consultations for
	// candidate generation (paper: 5).
	CandidateEvery int
	// GrowthPerStep transactions flow from the feed into the local
	// database each step (paper: 20).
	GrowthPerStep int
	// K is the privacy parameter (paper default: 10).
	K int64
	// MaxRuleItems caps |LHS∪RHS| of candidates (0 = unlimited).
	MaxRuleItems int
	// IntraDelay models the accountant→broker hop: encrypted vote
	// updates produced at step t reach the broker's counters at t+1.
	// This is the "intra-resource communication" the Figure 2 caption
	// blames for the extra scan; on by default.
	IntraDelay bool
	// PaddingDance enables Algorithm 1's obfuscating ±E(1) assignment
	// sequence on local vote changes (ablation A3).
	PaddingDance bool
	// Audit records every controller gate decision for offline k-TTP
	// admissibility verification (testing/analysis; off by default).
	Audit bool
	// Obs, when non-nil, receives the resource's telemetry: protocol
	// counters in its registry and rule-level trace events (grants,
	// counter transfers, vote decisions, reports) in its tracer. All
	// instrumentation is nil-safe; a nil Obs costs one pointer check
	// per hook.
	Obs *obs.Sink
	// LossyLinks arms the protocol's delivery-failure recovery for
	// transports that can drop messages (fault injection, UDP-like
	// links, TCP across crashes): the anti-entropy refresh re-sends
	// periodically even when nothing is known to be stale (the previous
	// transmission may never have arrived), share grants are
	// re-emitted (a dropped grant otherwise leaves the edge unusable
	// forever), and malicious reports are re-flooded (so churn cannot
	// strand a report). All three are timer-driven and data-
	// independent, so they add no privacy leak; duplicates are
	// idempotent at every receiver.
	LossyLinks bool
	// Quarantine arms the Byzantine evict-and-continue response
	// (DESIGN.md §10): corroborated malicious reports evict the accused
	// instead of halting the grid, and mining continues among the
	// survivors.
	Quarantine QuarantineConfig
	// Payloads, when non-nil, is the grid-wide free list superseded
	// inbound counters go to and transmits deal their payloads from. A
	// broker uses it only where the ownership rule holds (see Payloads and
	// newBroker); nil deals every payload into fresh storage.
	Payloads *Payloads
}

// QuarantineConfig parameterizes the Byzantine quarantine response.
// Disabled (the zero value), a report halts the resource — the paper's
// Algorithm 3 response, which makes a single cheater a grid-wide
// denial of service. Enabled, corroborated reports move the accused to
// an evicted set: its traffic is dropped at ingress, membership
// advances one epoch, shares are re-dealt over the survivors, and the
// k-gates re-anchor so no sub-k group is ever exposed across the
// boundary.
type QuarantineConfig struct {
	// Enabled switches the response to detections from halt to
	// evict-and-continue.
	Enabled bool
	// EvictQuorum is the number of distinct reporters required to evict
	// on a bare accusation (a report without self-evident Evidence).
	// Reports carrying Evidence and confessions (Accused == Reporter)
	// evict on their own. Default 2 — a lone false accuser can stall
	// its own mining but never evict an honest member.
	EvictQuorum int
}

func (c Config) withDefaults() Config {
	if c.ScanBudget == 0 {
		c.ScanBudget = 100
	}
	if c.CandidateEvery == 0 {
		c.CandidateEvery = 5
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.Quarantine.EvictQuorum == 0 {
		c.Quarantine.EvictQuorum = 2
	}
	return c
}

// blindBits sizes the multiplicative blinding of the sign SFE: the
// broker scales each Δ by a fresh r ∈ [1, 2^blindBits] before the
// controller decrypts it (oblivious.BlindFactor).
const blindBits = 16

// MaxDBLen returns the largest global database size |DB| for which
// every value a controller decrypts stays inside the signed plaintext
// range (−M/2, M/2] of a cryptosystem with plaintext space M, so that
// no sign SFE can wrap. The widest such value is evaluateSends'
// blinded Δ^uv − Δ^u: each Δ is λd·sum − λn·count over disjoint parts
// of the database with 0 ≤ sum ≤ count ≤ |DB| and λn ≤ λd, so
// |Δ| ≤ λd·|DB|, the difference of two is at most twice that, and
// blinding multiplies by up to 2^blindBits (generateCandidates'
// OutputDecision input is a single blinded Δ^u, half as wide). Hence
// 2·λd·|DB|·2^blindBits ≤ (M−1)/2, with λd the larger denominator
// arm.Rational gives the two thresholds. Shares and stamps are reduced
// modulo M by design and need no headroom.
func MaxDBLen(space *big.Int, th arm.Thresholds) *big.Int {
	_, ld := arm.Rational(th.MinFreq)
	if _, d := arm.Rational(th.MinConf); d > ld {
		ld = d
	}
	half := new(big.Int).Sub(space, big.NewInt(1))
	half.Rsh(half, 1)
	return half.Div(half, big.NewInt(2*ld<<blindBits))
}

// ShareGrant is the link-setup message from resource u's accountant to
// neighbour v's broker: the encrypted share v must attach to every
// counter it sends to u, and v's slot in u's timestamp vector.
type ShareGrant struct {
	Share    *homo.Ciphertext
	Slot     int
	NumSlots int
	// Epoch identifies the share dealing this grant belongs to;
	// dealings change when the granting resource's neighbourhood does.
	Epoch int
}

// RuleCipherMsg is one Secure-Scalable-Majority exchange: the
// oblivious counter for one candidate rule. Epoch names the
// *recipient's* share dealing the attached share belongs to; the
// recipient drops counters from stale dealings (they would break the
// Σshares = 1 invariant) and the anti-entropy refresh re-delivers the
// data under the current dealing.
type RuleCipherMsg struct {
	Rule    arm.Rule
	Counter *oblivious.Counter
	Epoch   int
}

// Transport abstracts where protocol messages go: the deterministic
// simulator or a real network (internal/netgrid hosts a Resource over
// TCP through this interface).
type Transport interface {
	// Send delivers one grid message (ShareGrant, RuleCipherMsg or
	// MaliciousReport) to a neighbour.
	Send(to int, msg any)
}

// simTransport adapts a sim.Context to Transport.
type simTransport struct{ ctx *sim.Context }

func (t simTransport) Send(to int, msg any) { t.ctx.Send(to, msg) }

// MaliciousReport is broadcast (flooded over the tree) when a
// controller detects a protocol violation (Algorithm 3).
type MaliciousReport struct {
	Accused  int
	Reporter int
	Reason   string
	// Evidence marks the violation as cryptographically self-evident:
	// any resource holding the reporter's claim can check it against
	// protocol invariants without trusting the reporter (e.g. a stored,
	// sender-authenticated counter whose attached share does not match
	// the dealing). Under quarantine a single Evidence report justifies
	// eviction; a bare accusation needs EvictQuorum independent
	// reporters.
	Evidence bool
}

func (m MaliciousReport) String() string {
	return fmt.Sprintf("resource %d reported malicious by %d: %s", m.Accused, m.Reporter, m.Reason)
}

// Resource hosts the three entities at one grid node.
type Resource struct {
	ID  int
	cfg Config

	Accountant *Accountant
	Broker     *Broker
	Controller *Controller

	// halted is set when this resource's controller detects a
	// violation or a report reaches it; a halted resource stops
	// participating (Algorithm 3: "halt further execution").
	halted bool
	// reports collects every MaliciousReport seen at this resource.
	reports     []MaliciousReport
	reportsSeen map[reportKey]bool

	// Quarantine state (Config.Quarantine): the evicted members, the
	// per-accused reporter sets backing quorum eviction, and the
	// membership epoch (bumped once per eviction).
	evicted         map[int]bool
	accusers        map[int]map[int]bool
	membershipEpoch int

	neighbors []int
	step      int64
	tel       *telemetry
	// lossTick drives the LossyLinks re-emission timers; unlike step it
	// keeps counting after a halt, because report re-flooding must
	// outlive the resource's own participation.
	lossTick int64
	// journal, when non-nil, receives every state-mutating input before
	// it is processed plus periodic snapshots (SetJournal).
	journal Journal
}

// NewResource assembles a secure resource. scheme is the grid-wide
// cryptosystem: the accountant receives its Encryptor capability, the
// controller its Decryptor, and the broker only homo.Public. local is
// the resource's database partition; feed supplies dynamic growth.
// adv, when non-nil, replaces the broker's honest payload construction
// (the attack harness).
func NewResource(id int, cfg Config, scheme homo.Scheme, local *arm.Database, feed []arm.Transaction, adv Adversary) *Resource {
	var f Feed
	if len(feed) > 0 {
		f = NewSliceFeed(feed)
	}
	return NewResourceFeed(id, cfg, scheme, local, f, adv)
}

// NewResourceFeed is NewResource with a live growth source: feed may
// be any Feed implementation — a bounded ingestion queue fed by
// concurrent clients (internal/service), a generator, or the slice
// adapter NewResource wraps for the static case. nil disables growth.
func NewResourceFeed(id int, cfg Config, scheme homo.Scheme, local *arm.Database, feed Feed, adv Adversary) *Resource {
	cfg = cfg.withDefaults()
	r := &Resource{ID: id, cfg: cfg, reportsSeen: map[reportKey]bool{},
		evicted: map[int]bool{}, accusers: map[int]map[int]bool{}}
	r.tel = newTelemetry(id, cfg.Obs, func() int64 { return r.step })
	r.Accountant = newAccountant(id, cfg, scheme, scheme, local, feed)
	r.Controller = newController(id, cfg, scheme, scheme, scheme)
	r.Broker = newBroker(id, cfg, scheme, r.Accountant, r.Controller, adv)
	r.Controller.tel = r.tel
	r.Broker.tel = r.tel
	// Quarantine attribution capabilities: the controller pins a
	// share-sum violation to the guilty slot by decrypting each stored
	// part's share and comparing it to the dealt value.
	r.Controller.partShare = r.Broker.partShare
	r.Controller.expectShare = r.Accountant.expectedShare
	return r
}

// Halted reports whether the resource stopped after a detection.
func (r *Resource) Halted() bool { return r.halted }

// TraceClock returns the resource's causal trace clock: the Lamport
// clock its trace events are stamped with. Hosting runtimes tick it
// for outbound messages and merge inbound clock values into it, so
// per-node traces order into one cross-node causal DAG. Distinct from
// the controller's protocol timestamp clock, which is part of the
// verified protocol state.
func (r *Resource) TraceClock() *obs.Clock { return r.tel.clock }

// Reports returns the malicious-participant reports seen here. The
// returned slice is a copy: callers must not be able to mutate
// protocol state.
func (r *Resource) Reports() []MaliciousReport {
	return append([]MaliciousReport(nil), r.reports...)
}

// Evicted returns the members this resource has quarantined, sorted
// (a copy; empty unless Config.Quarantine is enabled).
func (r *Resource) Evicted() []int {
	out := make([]int, 0, len(r.evicted))
	for v := range r.evicted {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// MembershipEpoch counts the evictions this resource has applied; it
// advances by one each time a member is quarantined.
func (r *Resource) MembershipEpoch() int { return r.membershipEpoch }

// Output returns R̃_u — the rules this resource currently believes
// correct (non-mutating; metric observation is not a controller
// query).
func (r *Resource) Output() arm.RuleSet { return r.Broker.Output() }

// AppendOutputCounts appends every rule of R̃_u to dst with its local
// counts over the whole current database (arm.Tally.Totals). The
// counts are this resource's own data: scoring them discloses nothing
// the protocol would not.
func (r *Resource) AppendOutputCounts(dst []arm.RuleCount) []arm.RuleCount {
	b, peek := r.Broker, r.Broker.peek
	for i, c := range b.cands {
		if b.table.InOutput(i, peek) {
			// Scan i is candidate i: grow registers both in lockstep.
			count, sum := r.Accountant.scans[i].Totals(r.Accountant.db)
			dst = append(dst, arm.RuleCount{Rule: c.Rule, Key: c.Key, Count: count, Sum: sum})
		}
	}
	return dst
}

// EachStoredCounter calls fn with every counter the broker stores: per
// candidate, in creation order, its ⊥ counter (from = −1) and then its
// inbound counters in neighbour order. Diagnostic use: fn must neither
// keep nor modify them.
func (r *Resource) EachStoredCounter(fn func(rule string, from int, c *oblivious.Counter)) {
	b := r.Broker
	for _, c := range b.cands {
		fn(c.Key, -1, c.local)
		for _, v := range b.neighbors {
			if e, ok := c.edges[v]; ok {
				fn(c.Key, v, e.inbound)
			}
		}
	}
}

// Stats returns broker counters.
func (r *Resource) Stats() BrokerStats { return r.Broker.stats }

// DBSize returns the accountant's current database size.
func (r *Resource) DBSize() int { return r.Accountant.db.Len() }

// Bootstrap wires the resource to its overlay neighbours and emits the
// initial share grants over the given transport. It is the transport-
// independent core of Init; hosting environments (the simulator, a
// TCP host) call it exactly once before the first Tick.
func (r *Resource) Bootstrap(neighbors []int, tr Transport) {
	r.neighbors = append([]int(nil), neighbors...)
	grants := r.Accountant.setup(neighbors)
	// Send in neighbor-slice order, not map order: the sequence of
	// transport sends must be deterministic or seeded fault injection
	// loses reproducibility.
	for _, v := range r.neighbors {
		if g, ok := grants[v]; ok {
			tr.Send(v, g)
			r.tel.grantsSent.Inc()
			r.tel.emit(obs.Event{Type: obs.EvGrantSend, Peer: v})
		}
	}
	r.Broker.init(neighbors)
	if r.journal != nil {
		// Cut the bootstrap snapshot immediately: recovery must always
		// find one (the WAL alone cannot rebuild the initial dealing's
		// conversation with the transport).
		r.journal.Snapshot(r.EncodeState())
	}
}

// HandleMessage ingests one grid message.
func (r *Resource) HandleMessage(tr Transport, from int, payload any) {
	if r.cfg.Quarantine.Enabled && r.evicted[from] {
		// An evicted member keeps no voice: its grants, counters and
		// reports are discarded before any crypto (or journal) work.
		r.tel.quarantineDrops.Inc()
		return
	}
	if r.journal != nil {
		r.journal.LogMessage(from, payload)
	}
	switch m := payload.(type) {
	case ShareGrant:
		r.tel.grantsRecv.Inc()
		r.tel.emit(obs.Event{Type: obs.EvGrantRecv, Peer: from, Value: int64(m.Epoch)})
		r.Broker.onShareGrant(from, m)
	case RuleCipherMsg:
		if r.halted {
			return
		}
		r.tel.countersRecv.Inc()
		// Interned key: Rule.Key() would allocate a fresh string per
		// message; the table's Sym encodes into its scratch buffer and
		// Str hands back the one process-wide copy.
		r.tel.emit(obs.Event{Type: obs.EvCounterRecv, Peer: from, Rule: intern.Str(r.Broker.table.Sym(&m.Rule))})
		r.Broker.onRuleMsg(from, m)
	case MaliciousReport:
		r.propagateReport(tr, m, from)
	default:
		panic(fmt.Sprintf("core: unknown message %T", payload))
	}
}

// Tick advances one §6 step over the given transport.
func (r *Resource) Tick(tr Transport) {
	if r.journal != nil {
		r.journal.LogTick()
		// Deferred because Tick has several early returns (halt,
		// violation) and the snapshot must reflect the post-tick state.
		defer r.snapshotIfDue()
	}
	if r.cfg.LossyLinks {
		r.lossRecoveryTick(tr)
	}
	if r.halted {
		return
	}
	r.step++
	r.Accountant.tick()
	r.Broker.applyAccountantReplies(tr)
	if rep, bad := r.Controller.takeReport(); bad {
		r.raiseReport(tr, rep)
		return
	}
	r.Broker.evaluateSends(tr)
	if rep, bad := r.Controller.takeReport(); bad {
		r.raiseReport(tr, rep)
		return
	}
	if r.step%int64(r.cfg.CandidateEvery) == 0 {
		r.Broker.generateCandidates()
		if rep, bad := r.Controller.takeReport(); bad {
			r.raiseReport(tr, rep)
			return
		}
	}
}

// HandleNeighborJoin implements the paper's dynamic-grid model: a new
// edge appears in E_t^u (Algorithm 1 "on join of a neighbor v";
// Algorithm 2 "on change in N_t^u"). The accountant re-deals its
// shares, the broker re-binds stored counters to the new dealing and
// opens the edge, and every neighbour receives a refreshed grant.
func (r *Resource) HandleNeighborJoin(tr Transport, v int) {
	if r.journal != nil {
		r.journal.LogJoin(v)
	}
	if r.halted {
		return
	}
	if r.cfg.Quarantine.Enabled && r.evicted[v] {
		return // no readmission for evicted members
	}
	r.neighbors = append(r.neighbors, v)
	grants := r.Broker.onNeighborJoin(v)
	for _, w := range r.neighbors {
		if g, ok := grants[w]; ok {
			tr.Send(w, g)
		}
	}
	// The joiner may sit across the cut an eviction (or churn) opened;
	// hand it every known report so detection state survives overlay
	// healing.
	for _, rep := range r.reports {
		tr.Send(v, rep)
	}
}

// Init implements sim.Node.
func (r *Resource) Init(ctx *sim.Context) {
	if r.Broker.inited {
		// A restored resource (RestoreResource) joining an engine: its
		// overlay state is already built and its neighbours still hold
		// its grants — re-announce instead of re-dealing.
		r.Rejoin(simTransport{ctx})
		return
	}
	r.Bootstrap(ctx.Neighbors(), simTransport{ctx})
}

// OnMessage implements sim.Node.
func (r *Resource) OnMessage(ctx *sim.Context, from sim.NodeID, payload any) {
	r.HandleMessage(simTransport{ctx}, from, payload)
}

// OnTick implements sim.Node.
func (r *Resource) OnTick(ctx *sim.Context) {
	r.Tick(simTransport{ctx})
}

// OnNeighborJoin implements sim.NeighborJoiner.
func (r *Resource) OnNeighborJoin(ctx *sim.Context, v sim.NodeID) {
	r.HandleNeighborJoin(simTransport{ctx}, v)
}

// lossRecoveryTick runs the LossyLinks re-emission timers: every
// refreshEvery steps the resource re-floods every report it knows
// (even while halted — detection must survive churn) and, while still
// participating, re-issues its share grants (fresh encryptions of the
// unchanged dealing, so a receiver that already holds the grant just
// overwrites it harmlessly and one whose copy was dropped finally
// opens the edge).
func (r *Resource) lossRecoveryTick(tr Transport) {
	r.lossTick++
	if r.lossTick%refreshEvery != 0 {
		return
	}
	for _, rep := range r.reports {
		for _, v := range r.neighbors {
			tr.Send(v, rep)
		}
		r.tel.refloods.Inc()
	}
	if r.halted {
		return
	}
	// Iterate the neighbor slice, not the grant map: send order must be
	// deterministic or seeded fault injection loses reproducibility.
	grants := r.Accountant.currentGrants()
	for _, v := range r.neighbors {
		if g, ok := grants[v]; ok {
			tr.Send(v, g)
			r.tel.grantsSent.Inc()
			r.tel.emit(obs.Event{Type: obs.EvGrantSend, Peer: v, Detail: "refresh"})
		}
	}
}

// raiseReport records a locally detected violation and floods it.
// Without quarantine the resource halts (Algorithm 3); with it, the
// resource keeps mining unless it accused itself (a confession — its
// own broker or accountant state is corrupt, so continuing would keep
// feeding poisoned aggregates to the SFEs).
func (r *Resource) raiseReport(tr Transport, rep MaliciousReport) {
	r.propagateReport(tr, rep, -1)
	if r.cfg.Quarantine.Enabled && rep.Accused != r.ID {
		return
	}
	r.halted = true
}

// reportKey deduplicates report floods — a comparable struct instead
// of the historical fmt.Sprintf("%d/%d/%s") string, so re-deliveries
// of an already-seen report cost a map probe and no formatting.
type reportKey struct {
	accused, reporter int
	reason            string
}

// propagateReport floods a report across the tree exactly once, then
// applies the quarantine policy when armed.
func (r *Resource) propagateReport(tr Transport, rep MaliciousReport, from int) {
	key := reportKey{rep.Accused, rep.Reporter, rep.Reason}
	if r.reportsSeen[key] {
		return
	}
	r.reportsSeen[key] = true
	r.reports = append(r.reports, rep)
	if from < 0 {
		r.tel.reportsRaised.Inc()
		// Value carries the framing/evidence bit (DESIGN.md §10): 1 for a
		// self-evident violation, 0 for a bare accusation — the forensics
		// CLI surfaces the distinction in eviction reports. Rule keys the
		// report object (accused/reporter) so one flood can be followed
		// across nodes the way a rule's counter can.
		r.tel.emit(obs.Event{Type: obs.EvReportRaise, Peer: rep.Accused, Detail: rep.Reason,
			Rule: reportTraceKey(rep), Value: bool01(rep.Evidence)})
	} else {
		r.tel.reportsRecv.Inc()
		r.tel.emit(obs.Event{Type: obs.EvReportRecv, Peer: from, Detail: rep.Reason,
			Rule: reportTraceKey(rep), Value: bool01(rep.Evidence)})
	}
	for _, v := range r.neighbors {
		if v != from {
			tr.Send(v, rep)
		}
	}
	if r.cfg.Quarantine.Enabled {
		r.considerEviction(tr, rep)
	}
}

// reportTraceKey keys a MaliciousReport for trace events: filtering by
// it follows one accusation's flood across every node, and the
// forensics tooling parses the accused/reporter pair back out.
func reportTraceKey(rep MaliciousReport) string {
	return fmt.Sprintf("report:%d/%d", rep.Accused, rep.Reporter)
}

// considerEviction applies the quarantine policy to a newly recorded
// report: self-evident violations and confessions evict on a single
// report; bare accusations accumulate until EvictQuorum distinct
// reporters corroborate them. Accusations against this resource
// itself are not acted on locally (the accusers evict us from their
// side; acting on them here would let a malicious flood talk an
// honest resource into self-destruction beyond what its own detector
// found).
func (r *Resource) considerEviction(tr Transport, rep MaliciousReport) {
	v := rep.Accused
	if v == r.ID || r.evicted[v] {
		return
	}
	if rep.Evidence || rep.Accused == rep.Reporter {
		r.evictPeer(tr, v)
		return
	}
	set := r.accusers[v]
	if set == nil {
		set = map[int]bool{}
		r.accusers[v] = set
	}
	set[rep.Reporter] = true
	if len(set) >= r.cfg.Quarantine.EvictQuorum {
		r.evictPeer(tr, v)
	}
}

// evictPeer quarantines one member: it joins the evicted set (its
// traffic is dropped at ingress from now on) and membership advances
// one epoch. When the evicted member is an overlay neighbour, the
// accountant re-deals its shares over the survivors (a new dealing
// epoch, so the evicted member's in-flight counters are rejected by
// the existing epoch check), the broker drops the evicted edge and
// re-binds stored counters to the shrunken slot geometry, the
// controller re-anchors its k-gates (no sub-k release across the
// boundary — see Controller.rebaseGates), and every surviving
// neighbour receives a refreshed grant.
func (r *Resource) evictPeer(tr Transport, v int) {
	r.evicted[v] = true
	delete(r.accusers, v)
	r.membershipEpoch++
	r.tel.evictions.Inc()
	r.tel.emit(obs.Event{Type: obs.EvEvict, Peer: v, Value: int64(r.membershipEpoch)})
	idx := -1
	for i, w := range r.neighbors {
		if w == v {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // not an overlay neighbour; nothing to re-deal
	}
	r.neighbors = append(r.neighbors[:idx], r.neighbors[idx+1:]...)
	grants := r.Broker.onNeighborEvict(v)
	for _, w := range r.neighbors {
		if g, ok := grants[w]; ok {
			tr.Send(w, g)
			r.tel.grantsSent.Inc()
			r.tel.emit(obs.Event{Type: obs.EvGrantSend, Peer: w, Detail: "evict-redeal"})
		}
	}
}

var _ sim.Node = (*Resource)(nil)
