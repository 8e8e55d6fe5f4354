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
//     since the last fresh evaluation; otherwise behaviour is
//     data-independent). Figure 2's "two scans" baseline.
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
	gateFreshed                 bool
	lastSendStep                int64
	// dirty marks that the payload this node would send over the edge
	// has changed since the last send (set by local-vote changes and by
	// receipts on *other* edges).
	dirty bool
	// k-gate bookkeeping: aggregate values at the last fresh
	// send-decision evaluation.
	gateCount, gateNum int64
}

// candidate is the per-rule mining state at one resource.
type candidate struct {
	rule             arm.Rule
	key              string // rule.Key()
	lambdaN, lambdaD int64
	// companion is, for a confidence rule, the frequency candidate of its
	// union (nil until it exists); Output reads its vote.
	companion *candidate
	// scan state: next local transaction index to count.
	pos                  int
	localSum, localCount int64
	edges                map[int]*edgeState
	// output k-gate (rule-correctness decisions).
	outGateCount, outGateNum int64
	outGateInit              bool
	cachedOutput             bool
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
	sum, count, num = c.localSum, c.localCount, 1
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
	return c.lambdaD*s - c.lambdaN*cnt
}

// deltaUV is Δ^uv for edge e.
func (c *candidate) deltaUV(e *edgeState) int64 {
	return c.lambdaD*(e.recvSum+e.sentSum) - c.lambdaN*(e.recvCount+e.sentCount)
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
	TxScanned      int64
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

	cands map[string]*candidate
	// order keeps candidates in creation order for deterministic
	// per-tick walks.
	order []*candidate
	// waiting holds the confidence candidates whose companion does not
	// exist yet, by the companion's key.
	waiting   map[string][]*candidate
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
	r := &Resource{ID: id, cfg: cfg, db: local, feed: feed, cands: map[string]*candidate{},
		waiting: map[string][]*candidate{}}
	for _, i := range cfg.Universe {
		r.addCandidate(arm.NewRule(nil, arm.Itemset{i}, arm.ThresholdFreq))
	}
	return r
}

// Stats returns a copy of the counters.
func (r *Resource) Stats() Stats { return r.stats }

// Step returns the number of ticks this resource has processed.
func (r *Resource) Step() int64 { return r.step }

// DBSize returns the current local database size.
func (r *Resource) DBSize() int { return r.db.Len() }

// NumCandidates returns the size of the candidate set C.
func (r *Resource) NumCandidates() int { return len(r.cands) }

// addCandidate registers a rule; returns the candidate (existing or
// new).
func (r *Resource) addCandidate(rule arm.Rule) *candidate {
	key := rule.Key()
	if c, ok := r.cands[key]; ok {
		return c
	}
	if r.cfg.MaxRuleItems > 0 && len(rule.LHS)+len(rule.RHS) > r.cfg.MaxRuleItems {
		return nil
	}
	ln, ld := arm.Rational(r.cfg.Th.Lambda(rule.Kind))
	c := &candidate{rule: rule, key: key, lambdaN: ln, lambdaD: ld, edges: map[int]*edgeState{}}
	r.cands[key] = c
	r.order = append(r.order, c)
	if rule.Kind == arm.ThresholdConf {
		comp := arm.NewRule(nil, rule.Union(), arm.ThresholdFreq).Key()
		if c.companion = r.cands[comp]; c.companion == nil {
			r.waiting[comp] = append(r.waiting[comp], c)
		}
	} else if w, ok := r.waiting[key]; ok {
		for _, d := range w {
			d.companion = c
		}
		delete(r.waiting, key)
	}
	return c
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
	c, ok := r.cands[m.Rule.Key()]
	if !ok {
		c = r.addCandidate(m.Rule)
		if c == nil {
			return // above the size cap; drop
		}
		for _, v := range ctx.Neighbors() {
			c.edge(v)
		}
		freq := arm.NewRule(nil, m.Rule.Union(), arm.ThresholdFreq)
		if fc := r.addCandidate(freq); fc != nil && len(fc.edges) == 0 {
			for _, v := range ctx.Neighbors() {
				fc.edge(v)
			}
		}
	}
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
	r.growDB()
	r.scan()
	r.evaluateSends(ctx)
	if r.step%int64(r.cfg.CandidateEvery) == 0 {
		r.generateCandidates(ctx)
	}
}

// growDB moves GrowthPerStep transactions from the feed into the local
// database.
func (r *Resource) growDB() {
	if r.feed == nil {
		return
	}
	for i := 0; i < r.cfg.GrowthPerStep; i++ {
		tx, ok := r.feed.Pull()
		if !ok {
			break
		}
		r.db.Append(tx)
	}
}

// scan advances every candidate's counter by up to ScanBudget
// transactions, updating the local vote.
func (r *Resource) scan() {
	for _, c := range r.order {
		if c.pos >= r.db.Len() {
			continue
		}
		end := c.pos + r.cfg.ScanBudget
		if end > r.db.Len() {
			end = r.db.Len()
		}
		union := c.rule.Union()
		changed := false
		for ; c.pos < end; c.pos++ {
			t := r.db.Tx[c.pos]
			r.stats.TxScanned++
			// A transaction votes on a frequency rule unconditionally
			// and on a confidence rule only when it contains the LHS
			// (§4.1's two vote kinds).
			if len(c.rule.LHS) == 0 || t.ContainsAll(c.rule.LHS) {
				c.localCount++
				changed = true
				if t.ContainsAll(union) {
					c.localSum++
				}
			}
		}
		if changed {
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
	for _, c := range r.order {
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
				ctx.Send(v, RuleMsg{Rule: c.rule, Sum: s, Count: cnt, Num: num})
			}
		}
	}
}

// kPrivateSendDecision implements §5.1's gated send rule: a fresh
// (data-dependent) Majority-Rule evaluation is permitted only when the
// aggregate behind the message has grown by ≥ k transactions AND ≥ k
// resources since the last fresh evaluation on this edge; inside the
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
	if cnt-e.gateCount >= r.cfg.K &&
		(num-e.gateNum >= r.cfg.K || (e.gateFreshed && num == e.gateNum)) {
		e.gateCount, e.gateNum = cnt, num
		e.gateFreshed = true
		r.stats.FreshDecisions++
		return c.majoritySendCond(e)
	}
	r.stats.GatedDecisions++
	return true
}

// refreshDecision runs one controller query for the candidate: in
// ModeKPrivate a fresh answer is granted only when both counters grew
// by ≥ k since the last fresh answer (Algorithm 1's Output());
// otherwise the cached previous answer stands. ModePlain answers every
// read fresh (peekDecision), so it caches nothing. Mutating: only the
// protocol itself (the periodic candidate-generation pass) calls this.
func (r *Resource) refreshDecision(c *candidate) {
	switch r.cfg.Mode {
	case ModePlain:
	case ModeKPrivate:
		_, cnt, num := c.known()
		// The num clause mirrors core's gateState.open: an unchanged
		// ≥k-resource group may be re-answered over ≥k fresh
		// transactions (DESIGN.md §2), keeping dynamic databases live.
		if cnt-c.outGateCount >= r.cfg.K &&
			(num-c.outGateNum >= r.cfg.K || (c.outGateInit && num == c.outGateNum)) {
			c.outGateCount, c.outGateNum = cnt, num
			c.outGateInit = true
			c.cachedOutput = c.deltaU() >= 0
			r.stats.FreshDecisions++
		} else {
			r.stats.GatedDecisions++
		}
	default:
		panic("majorityrule: unknown mode")
	}
}

// peekDecision reads the candidate's current believed status without
// perturbing k-gate bookkeeping (metric observation must not count as
// a controller query).
func (r *Resource) peekDecision(c *candidate) bool {
	if r.cfg.Mode == ModePlain {
		return c.deltaU() >= 0
	}
	return c.cachedOutput
}

// Output returns R̃_u[DB_t] — the rules this resource currently
// believes correct. A confidence rule is reported only when its vote
// passes AND its union itemset's frequency vote passes, matching §3's
// "confident rules between frequent itemsets" (the frequency companion
// candidate always exists: GenerateCandidates and the receive handler
// both insert it).
func (r *Resource) Output() arm.RuleSet {
	out := arm.RuleSet{}
	for _, c := range r.order {
		if r.inOutput(c) {
			out.Add(c.rule)
		}
	}
	return out
}

// inOutput reports whether c belongs to R̃_u (see Output).
func (r *Resource) inOutput(c *candidate) bool {
	if c.rule.Kind == arm.ThresholdConf {
		return r.peekDecision(c) && c.companion != nil && r.peekDecision(c.companion)
	}
	return r.peekDecision(c)
}

// AppendOutputCounts appends every rule of R̃_u to dst with its local
// counts over the whole current database: the running scan totals plus
// the transactions the scan has not reached yet.
func (r *Resource) AppendOutputCounts(dst []arm.RuleCount) []arm.RuleCount {
	for _, c := range r.order {
		if r.inOutput(c) {
			cl, cb := r.db.SupportPairFrom(c.pos, c.rule.LHS, c.rule.RHS)
			dst = append(dst, arm.RuleCount{Rule: c.rule, Key: c.key,
				Count: c.localCount + int64(cl), Sum: c.localSum + int64(cb)})
		}
	}
	return dst
}

// generateCandidates runs Algorithm 4's periodic pass: query the
// controller for every candidate (the mutating, k-gated evaluation),
// derive new candidates from the believed-correct set, and wire them
// to the overlay.
func (r *Resource) generateCandidates(ctx *sim.Context) {
	for _, c := range r.order {
		r.refreshDecision(c)
	}
	truth := r.Output()
	existing := arm.RuleSet{}
	for _, c := range r.cands {
		existing.Add(c.rule)
	}
	before := len(existing)
	arm.GenerateCandidates(truth, existing)
	if len(existing) == before {
		return
	}
	for _, rule := range existing.Sorted() {
		if _, ok := r.cands[rule.Key()]; ok {
			continue
		}
		if c := r.addCandidate(rule); c != nil {
			for _, v := range ctx.Neighbors() {
				c.edge(v)
			}
		}
	}
}

var _ sim.Node = (*Resource)(nil)
