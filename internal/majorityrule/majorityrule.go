// Package majorityrule implements the distributed association-rule
// miners the paper builds on and compares against:
//
//   - ModePlain: Majority-Rule (Wolff–Schuster ICDM '03, §4.1) — the
//     non-private, fully local distributed ARM algorithm. Figure 2's
//     "single scan" baseline.
//   - ModeKPrivate: the k-private honest-but-curious variant
//     (Schuster–Wolff–Gilburd CCGrid '04, [15]) — the same protocol
//     with every data-dependent decision gated behind the k-privacy
//     rule (a fresh evaluation is allowed only when the underlying
//     aggregate has grown by at least k transactions and k resources
//     since the last fresh evaluation — arm.Gate, shared with
//     internal/core; otherwise behaviour is data-independent).
//     Figure 2's "two scans" baseline.
//
// The secure algorithm (internal/core) runs the same state machine
// over oblivious counters with the malicious-participant machinery on
// top; keeping the plaintext machine here lets the test suite verify
// protocol logic independently of cryptography, and gives the
// experiment harness its baselines.
//
// Step semantics follow §6: each resource processes ScanBudget
// transactions per step per candidate (so a local database of 10,000
// transactions is scanned once every 100 steps at the default budget
// of 100), consults the candidate generator every CandidateEvery
// steps, and absorbs GrowthPerStep fresh transactions per step from
// its feed (the dynamic-database model).
package majorityrule

import (
	"fmt"

	"secmr/internal/arm"
	"secmr/internal/sim"
)

// Mode selects the algorithm variant.
type Mode int

const (
	// ModePlain is non-private Majority-Rule [20].
	ModePlain Mode = iota
	// ModeKPrivate is the k-private honest-but-curious variant [15].
	ModeKPrivate
)

func (m Mode) String() string {
	switch m {
	case ModePlain:
		return "plain"
	case ModeKPrivate:
		return "k-private"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config parameterizes a mining resource.
type Config struct {
	Th arm.Thresholds
	// Universe is the item domain I; every resource seeds candidates
	// ∅⇒{i} for each i ∈ I.
	Universe arm.Itemset
	// ScanBudget is the number of transactions each candidate's
	// counter advances per step (paper: 100).
	ScanBudget int
	// CandidateEvery is the number of steps between candidate
	// generation passes (paper: 5).
	CandidateEvery int
	// GrowthPerStep transactions are moved from the feed into the
	// local database each step (paper: 20).
	GrowthPerStep int
	// K is the privacy parameter (ModeKPrivate only).
	K int64
	// Mode selects plain or k-private behaviour.
	Mode Mode
	// MaxRuleItems caps |LHS ∪ RHS| of generated candidates to bound
	// lattice depth in scaled-down simulations; 0 means unlimited.
	MaxRuleItems int
}

func (c Config) withDefaults() Config {
	if c.ScanBudget == 0 {
		c.ScanBudget = 100
	}
	if c.CandidateEvery == 0 {
		c.CandidateEvery = 5
	}
	return c
}

// RuleMsg is one Scalable-Majority exchange in the context of a rule:
// the aggregated ⟨sum, count⟩ vote plus the resource counter num the
// k-privacy machinery needs (§5.1 adds num to the plain protocol).
type RuleMsg struct {
	Rule            arm.Rule
	Sum, Count, Num int64
}

// edgeState tracks one candidate's exchange history over one edge.
type edgeState struct {
	recvSum, recvCount, recvNum int64
	sentSum, sentCount, sentNum int64
	contacted                   bool
	lastSendStep                int64
	// dirty marks that the payload this node would send over the edge
	// has changed since the last send (set by local-vote changes and by
	// receipts on *other* edges).
	dirty bool
	// gate is the edge's send-decision k-gate (ModeKPrivate).
	gate arm.Gate
}

// candidate is the per-rule mining state at one resource beside its
// entry in the candidate table (rule, key, λ, companion).
type candidate struct {
	*arm.Candidate
	tally arm.Tally // the local vote
	edges map[int]*edgeState
	// output k-gate (rule-correctness decisions) and its last answer.
	outGate      arm.Gate
	cachedOutput bool
}

func (c *candidate) edge(v int) *edgeState {
	e, ok := c.edges[v]
	if !ok {
		e = &edgeState{}
		c.edges[v] = e
	}
	return e
}

// known returns the aggregate this node's decisions are based on:
// local vote plus everything received.
func (c *candidate) known() (sum, count, num int64) {
	sum, count, num = c.tally.Sum, c.tally.Count, 1
	for _, e := range c.edges {
		sum += e.recvSum
		count += e.recvCount
		num += e.recvNum
	}
	return
}

// payloadFor computes the message for edge v: everything known except
// v's own contribution.
func (c *candidate) payloadFor(v int) (sum, count, num int64) {
	sum, count, num = c.known()
	e := c.edges[v]
	sum -= e.recvSum
	count -= e.recvCount
	num -= e.recvNum
	return
}

// deltaU is Δ^u over the known aggregate.
func (c *candidate) deltaU() int64 {
	s, cnt, _ := c.known()
	return c.LambdaD*s - c.LambdaN*cnt
}

// deltaUV is Δ^uv for edge e.
func (c *candidate) deltaUV(e *edgeState) int64 {
	return c.LambdaD*(e.recvSum+e.sentSum) - c.LambdaN*(e.recvCount+e.sentCount)
}

// majoritySendCond is the Scalable-Majority condition of §4.1.
func (c *candidate) majoritySendCond(e *edgeState) bool {
	du := c.deltaU()
	duv := c.deltaUV(e)
	return (duv >= 0 && duv > du) || (duv < 0 && duv < du)
}

// markDirtyExcept flags every edge except skip as having a changed
// payload (skip = −1 flags all).
func (c *candidate) markDirtyExcept(skip int) {
	for v, e := range c.edges {
		if v != skip {
			e.dirty = true
		}
	}
}

// Stats aggregates per-resource counters.
type Stats struct {
	MessagesSent   int64
	FreshDecisions int64 // k-gate fresh evaluations granted
	GatedDecisions int64 // evaluations answered with the default/cache
}

// Resource is one mining node (sim.Node). In the plain and k-private
// variants the broker/accountant/controller of Figure 1 collapse into
// a single honest entity.
type Resource struct {
	ID  int
	cfg Config

	db   *arm.Database // local partition (grows from feed)
	feed arm.Feed

	// table is the candidate lattice; cands[i] is the state of its
	// candidate i.
	table     *arm.Candidates
	cands     []*candidate
	neighbors []int
	stats     Stats
	step      int64
}

// NewResource creates a mining resource over its local database
// partition. feed supplies the dynamic growth (§6: +20 per step); nil
// for a static database.
func NewResource(id int, cfg Config, local *arm.Database, feed []arm.Transaction) *Resource {
	var f arm.Feed
	if len(feed) > 0 {
		f = arm.NewSliceFeed(feed)
	}
	return NewResourceFeed(id, cfg, local, f)
}

// NewResourceFeed is NewResource with a live growth source: the feed
// is pulled GrowthPerStep transactions at a time on each tick, so a
// queue-backed feed turns the resource into the paper's dynamic
// database without precomputing the stream.
func NewResourceFeed(id int, cfg Config, local *arm.Database, feed arm.Feed) *Resource {
	cfg = cfg.withDefaults()
	r := &Resource{ID: id, cfg: cfg, db: local, feed: feed,
		table: arm.NewCandidates(cfg.Th, cfg.MaxRuleItems)}
	r.table.Seed(cfg.Universe)
	r.grow()
	return r
}

// Stats returns a copy of the counters.
func (r *Resource) Stats() Stats { return r.stats }

// Step returns the number of ticks this resource has processed.
func (r *Resource) Step() int64 { return r.step }

// DBSize returns the current local database size.
func (r *Resource) DBSize() int { return r.db.Len() }

// grow creates the state of the candidates the table gained since the
// last call, with an edge per overlay neighbour.
func (r *Resource) grow() {
	for i := len(r.cands); i < r.table.Len(); i++ {
		c := &candidate{Candidate: r.table.At(i), edges: map[int]*edgeState{}}
		c.tally = arm.NewTally(c.Rule)
		for _, v := range r.neighbors {
			c.edge(v)
		}
		r.cands = append(r.cands, c)
	}
}

// Init wires the overlay edges into every seeded candidate.
func (r *Resource) Init(ctx *sim.Context) {
	r.neighbors = append([]int(nil), ctx.Neighbors()...)
	for _, c := range r.cands {
		for _, v := range r.neighbors {
			c.edge(v)
		}
	}
}

// OnMessage ingests a neighbor's RuleMsg. Unknown rules are added to C
// together with their frequency rule, per Algorithm 4's receive
// handler.
func (r *Resource) OnMessage(ctx *sim.Context, from sim.NodeID, payload any) {
	m := payload.(RuleMsg)
	i, ok := r.table.Receive(m.Rule)
	if !ok {
		return // above the size cap; drop
	}
	r.grow()
	c := r.cands[i]
	e := c.edge(from)
	e.recvSum, e.recvCount, e.recvNum = m.Sum, m.Count, m.Num
	c.markDirtyExcept(from)
	// Receiving also changes Δ^uv for the sender's edge, which can
	// trigger the majority condition back toward the sender.
	e.dirty = true
}

// OnTick performs one §6 step: grow the database, advance counters,
// evaluate send decisions, and periodically regenerate candidates.
func (r *Resource) OnTick(ctx *sim.Context) {
	r.step++
	r.db.Absorb(r.feed, r.cfg.GrowthPerStep)
	r.scan()
	r.evaluateSends(ctx)
	if r.step%int64(r.cfg.CandidateEvery) == 0 {
		r.generateCandidates()
	}
}

// scan advances every candidate's local vote by up to ScanBudget
// transactions.
func (r *Resource) scan() {
	for _, c := range r.cands {
		if c.tally.Advance(r.db, r.cfg.ScanBudget) {
			c.markDirtyExcept(-1)
		}
	}
}

// refreshEvery is the anti-entropy period (steps) for ModeKPrivate:
// the gated protocol can starve peripheral resources below num = k
// (see internal/core's broker for the full analysis), so changed
// payloads are re-sent at least this often.
const refreshEvery = 20

// evaluateSends walks every (candidate, edge) whose payload changed and
// applies the mode's send rule.
func (r *Resource) evaluateSends(ctx *sim.Context) {
	for _, c := range r.cands {
		for _, v := range r.neighbors {
			e := c.edges[v]
			refresh := false
			if r.cfg.Mode == ModeKPrivate && e.contacted &&
				r.step-e.lastSendStep >= refreshEvery {
				s, cnt, num := c.payloadFor(v)
				refresh = s != e.sentSum || cnt != e.sentCount || num != e.sentNum
			}
			if !e.dirty && e.contacted && !refresh {
				continue
			}
			e.dirty = false
			send := refresh
			if !send {
				switch r.cfg.Mode {
				case ModePlain:
					send = !e.contacted || c.majoritySendCond(e)
				case ModeKPrivate:
					send = r.kPrivateSendDecision(c, v, e)
				}
			}
			if send {
				s, cnt, num := c.payloadFor(v)
				e.sentSum, e.sentCount, e.sentNum = s, cnt, num
				e.contacted = true
				e.lastSendStep = r.step
				r.stats.MessagesSent++
				ctx.Send(v, RuleMsg{Rule: c.Rule, Sum: s, Count: cnt, Num: num})
			}
		}
	}
}

// kPrivateSendDecision implements §5.1's gated send rule: a fresh
// (data-dependent) Majority-Rule evaluation is permitted only when the
// edge's k-gate opens (arm.Gate.Open, the rule the secure controller
// applies too) on the aggregate behind the message; inside the
// gate the decision defaults to TRUE ("either the Majority-Rule
// condition evaluates true, or the difference ... is less than k"),
// which keeps first contacts and relaying alive — the encrypted
// message body is harmless to privacy. Messages whose payload is
// identical to the last transmission are suppressed: resending them
// cannot change the recipient's state (and when the payload equals the
// last-sent values, Δ^uv = Δ^u, so the majority condition is false
// anyway — the suppression is the no-op case of the protocol, not an
// extra data leak). See DESIGN.md §2 resolution 2.
func (r *Resource) kPrivateSendDecision(c *candidate, v int, e *edgeState) bool {
	if !e.contacted {
		return true
	}
	s, cnt, num := c.payloadFor(v)
	if s == e.sentSum && cnt == e.sentCount && num == e.sentNum {
		return false
	}
	if e.gate.Open(r.cfg.K, cnt, num) {
		r.stats.FreshDecisions++
		return c.majoritySendCond(e)
	}
	r.stats.GatedDecisions++
	return true
}

// refreshDecision runs one controller query for the candidate: in
// ModeKPrivate a fresh answer is granted only when the candidate's
// output k-gate opens (arm.Gate.Open; Algorithm 1's Output());
// otherwise the cached previous answer stands. ModePlain answers every
// read fresh (peekDecision), so it caches nothing. Mutating: only the
// protocol itself (the periodic candidate-generation pass) calls this.
func (r *Resource) refreshDecision(c *candidate) {
	switch r.cfg.Mode {
	case ModePlain:
	case ModeKPrivate:
		_, cnt, num := c.known()
		if c.outGate.Open(r.cfg.K, cnt, num) {
			c.cachedOutput = c.deltaU() >= 0
			r.stats.FreshDecisions++
		} else {
			r.stats.GatedDecisions++
		}
	default:
		panic("majorityrule: unknown mode")
	}
}

// peek reads candidate i's current believed status without perturbing
// k-gate bookkeeping (metric observation must not count as a controller
// query).
func (r *Resource) peek(i int) bool {
	c := r.cands[i]
	if r.cfg.Mode == ModePlain {
		return c.deltaU() >= 0
	}
	return c.cachedOutput
}

// Output returns R̃_u[DB_t] — the rules this resource currently
// believes correct, through the table's output filter
// (arm.Candidates.InOutput).
func (r *Resource) Output() arm.RuleSet { return r.table.Output(r.peek) }

// AppendOutputCounts appends every rule of R̃_u to dst with its local
// counts over the whole current database: the running scan totals plus
// the transactions the scan has not reached yet.
func (r *Resource) AppendOutputCounts(dst []arm.RuleCount) []arm.RuleCount {
	peek := r.peek
	for i, c := range r.cands {
		if r.table.InOutput(i, peek) {
			count, sum := c.tally.Totals(r.db)
			dst = append(dst, arm.RuleCount{Rule: c.Rule, Key: c.Key, Count: count, Sum: sum})
		}
	}
	return dst
}

// generateCandidates runs Algorithm 4's periodic pass: query the
// controller for every candidate (the mutating, k-gated evaluation),
// then expand the lattice from the believed-correct set.
func (r *Resource) generateCandidates() {
	for _, c := range r.cands {
		r.refreshDecision(c)
	}
	r.table.Expand(r.peek)
	r.grow()
}

var _ sim.Node = (*Resource)(nil)
