package core

import (
	"fmt"
	"math/big"
	"slices"

	"secmr/internal/arm"
	"secmr/internal/homo"
	"secmr/internal/intern"
	"secmr/internal/oblivious"
	"secmr/internal/obs"
)

// voteDetail renders a send decision for the trace.
func voteDetail(send bool) string {
	if send {
		return "send"
	}
	return "hold"
}

// bool01 renders a decision bit for Event.Value.
func bool01(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ControllerAdversary corrupts a controller's SFE answers — §3's
// attack model lets a taken-over controller "do whatever it pleases".
// Its reach is exactly what the paper claims: it can lie to its own
// broker (harming the validity of results built on those answers) but
// cannot learn more than an honest controller would (the broker only
// ever hands it blinded Δs and verification fields), and it cannot
// break other resources' privacy.
type ControllerAdversary interface {
	Name() string
	// TamperAnswer may replace an SFE answer; kind is "send" or
	// "output".
	TamperAnswer(kind, rule string, honest bool) bool
}

// Controller implements Algorithm 3: the SFE counterpart holding the
// decryption key. It verifies the share and timestamp fields of every
// full-neighbourhood counter a broker submits, enforces the k-privacy
// gate on every data-dependent answer, produces the timestamp vectors
// for outgoing messages, and raises a MaliciousReport when a
// violation is detected.
//
// The controller never sees raw counters: the broker submits the
// verification fields as-is (share, stamps, and the count/num totals
// the k-gate needs — exactly what Algorithm 1's Cond(x1,x2,x3) hands
// it) and every Δ quantity only in multiplicatively blinded form, so
// the controller learns signs, not magnitudes (§5.1's ad-hoc sign
// SFE).
type Controller struct {
	id  int
	cfg Config
	dec homo.Decryptor
	enc homo.Encryptor
	pub homo.Public
	// plain is the one integer every decrypt lands in (plainOf, signOf):
	// the controller only ever reads a plaintext as an int64 or a sign,
	// so no decrypted value needs storage of its own.
	plain big.Int

	// clock is the Lamport clock for outgoing timestamps.
	clock int64
	// clockLease is the highest clock value durably reserved with the
	// journal; onClockLease extends the reservation (synchronously —
	// the lease must hit stable storage before any stamp beyond the
	// previous one leaves the resource). Both are zero/nil without
	// persistence. WAL replay can reconstruct *fewer* clock increments
	// than the live run performed (recovery-time reply re-staging is
	// not itself a replayed event), so without the lease a recovered
	// resource could stamp below values its neighbours already
	// verified and trip their replay detection. See internal/persist.
	clockLease   int64
	onClockLease func(upTo int64)
	// seen is the per-rule verification record: T̃ (the last verified
	// timestamp per slot) and the last full counter that passed verify.
	// Rules are keyed by interned symbol throughout the controller — an
	// integer compare instead of a string hash on every SFE, and no
	// fmt.Sprintf composite keys on the hot path.
	seen map[intern.Sym]*ruleSeen

	// Per-(rule,edge) send-decision gate state.
	sendGates map[sendGateKey]*gateState
	// Per-rule output gate state (Algorithm 1's Output()).
	outGates map[intern.Sym]*gateState

	// pendingReport is the detection raised by the latest SFE, if any.
	pendingReport *MaliciousReport

	// adv, when set, corrupts answers (attack harness).
	adv ControllerAdversary

	// partShare/expectShare are the quarantine attribution capabilities
	// NewResource wires in: the broker's per-slot share ciphertexts for
	// a rule, and the accountant's dealt plaintext values. With both, a
	// share-sum violation is pinned to the slot whose attached share
	// does not decrypt to its dealt value (see attributeShare).
	partShare   func(rule intern.Sym, slot int) *homo.Ciphertext
	expectShare func(slot int) (int64, bool)

	// audit, when enabled, records every gate decision for offline
	// k-TTP admissibility checking (Definition 3.1).
	audit []AuditEntry

	stats ControllerStats
	tel   *telemetry
}

// AuditEntry records one controller gate decision: the totals behind
// the query and whether a fresh (data-dependent) answer was granted.
// Stream identifies the decision stream ("out:<rule>" or
// "send:<rule>#<edge>"). An entry with Rebase set (Stream
// AuditRebaseStream) marks a membership-eviction gate re-anchoring:
// admissibility chains must be split there, because every gate's
// accumulation restarted from zero (see rebaseGates).
type AuditEntry struct {
	Stream     string
	Count, Num int64
	Fresh      bool
	Rebase     bool
}

// AuditRebaseStream is the Stream of the marker entry rebaseGates
// appends at an eviction epoch boundary.
const AuditRebaseStream = "rebase"

// ControllerStats counts SFE outcomes.
type ControllerStats struct {
	SFEs           int64
	FreshDecisions int64 // answered with a fresh (data-dependent) evaluation
	GatedDecisions int64 // answered with the in-gate default / cached value
	Suppressed     int64 // no-change queries suppressed
	Violations     int64
}

// sendGateKey addresses one edge's send-decision gate — a comparable
// struct instead of the historical fmt.Sprintf("%s#%d") key, so the
// hot path neither formats nor hashes strings. The snapshot codec
// still writes the legacy string form (see appendGateMap callers).
type sendGateKey struct {
	rule intern.Sym
	edge int32
}

// gateState is the k-gate bookkeeping for one decision stream: the
// gate itself (arm.Gate) plus the controller's query history.
type gateState struct {
	arm.Gate
	lastCount, lastNum int64 // totals at the last query (no-op suppression)
	queried            bool
	cached             bool // last answer (output gates)
}

func newController(id int, cfg Config, dec homo.Decryptor, enc homo.Encryptor, pub homo.Public) *Controller {
	return &Controller{
		id: id, cfg: cfg, dec: dec, enc: enc, pub: pub,
		seen:      map[intern.Sym]*ruleSeen{},
		sendGates: map[sendGateKey]*gateState{},
		outGates:  map[intern.Sym]*gateState{},
		// Disabled telemetry by default; NewResource swaps in the
		// resource-wide set. Keeps entities built directly (tests,
		// harnesses) hook-safe.
		tel: newTelemetry(id, nil, func() int64 { return 0 }),
	}
}

// Stats returns a copy of the counters.
func (c *Controller) Stats() ControllerStats { return c.stats }

// SetAdversary installs a controller corruption (attack harness).
func (c *Controller) SetAdversary(adv ControllerAdversary) { c.adv = adv }

// AuditTrail returns a copy of the recorded gate decisions (empty
// unless Config.Audit is set).
func (c *Controller) AuditTrail() []AuditEntry {
	return append([]AuditEntry(nil), c.audit...)
}

// recordSend appends a send-stream audit entry when auditing is on.
// The stream string is only materialized under the flag — the hot path
// never formats it.
func (c *Controller) recordSend(rule intern.Sym, edge int, cnt, num int64, fresh bool) {
	if c.cfg.Audit {
		stream := fmt.Sprintf("send:%s#%d", intern.Str(rule), edge)
		c.audit = append(c.audit, AuditEntry{Stream: stream, Count: cnt, Num: num, Fresh: fresh})
	}
}

// recordOut appends an output-stream audit entry when auditing is on.
func (c *Controller) recordOut(rule intern.Sym, cnt, num int64, fresh bool) {
	if c.cfg.Audit {
		c.audit = append(c.audit, AuditEntry{Stream: "out:" + intern.Str(rule), Count: cnt, Num: num, Fresh: fresh})
	}
}

// plainOf decrypts ct to its signed plaintext.
func (c *Controller) plainOf(ct *homo.Ciphertext) int64 {
	return homo.DecryptSignedInto(c.dec, &c.plain, ct).Int64()
}

// signOf decrypts a blinded value and returns its sign: −1, 0, +1.
func (c *Controller) signOf(ct *homo.Ciphertext) int {
	return homo.DecryptSignedInto(c.dec, &c.plain, ct).Sign()
}

// takeReport pops the pending detection, if any.
func (c *Controller) takeReport() (MaliciousReport, bool) {
	if c.pendingReport == nil {
		return MaliciousReport{}, false
	}
	r := *c.pendingReport
	c.pendingReport = nil
	return r, true
}

// ruleSeen is the controller's record of one rule: T̃, the last
// verified timestamp per stamp slot, and the memo of the last full
// counter that passed verify for the rule.
type ruleSeen struct {
	stamps []int64
	last   verifiedCounter
}

// verifiedCounter is the memo of the last full counter that passed
// verify for one rule: value copies of its share, count, num and stamp
// ciphertexts (in that order), and its decrypted count and num. A broker
// sends the same full counter for each dirty edge of a candidate, again
// to the candidate's Output SFE later in the same tick, and again on
// later steps while nothing changed. Equal ciphertexts have equal
// plaintexts, and a stamp equal to the last one verified for the rule
// passes the replay check, so a counter equal to the memo field for field
// passes verify with these totals — skipping the decrypts changes no
// answer, report, audit entry or statistic. The copies are compared by
// value, never by pointer: the broker overwrites its scratch counter in
// place. They live in one slab reused in place: per field a header word
// (word count << 1 | sign), then the field's words. An empty slab is no
// memo. Never snapshotted.
type verifiedCounter struct {
	tag      uint64
	words    []big.Word
	cnt, num int64
}

// counterField returns the i-th field of full in verifiedCounter order.
func counterField(full *oblivious.Counter, i int) *homo.Ciphertext {
	switch i {
	case 0:
		return full.Share
	case 1:
		return full.Count
	case 2:
		return full.Num
	}
	return full.Stamps[i-3]
}

// fieldHeader is a field's header word in the verifiedCounter slab.
func fieldHeader(v *big.Int) big.Word {
	h := big.Word(len(v.Bits())) << 1
	if v.Sign() < 0 {
		h |= 1
	}
	return h
}

// matches reports whether full equals the memo.
func (m *verifiedCounter) matches(full *oblivious.Counter) bool {
	w := m.words
	if len(w) == 0 {
		return false
	}
	for i := 0; i < 3+len(full.Stamps); i++ {
		ct := counterField(full, i)
		if ct.Tag != m.tag || len(w) == 0 || w[0] != fieldHeader(ct.V) {
			return false
		}
		// Equal headers: the slab holds as many words as bits.
		bits := ct.V.Bits()
		if !slices.Equal(w[1:1+len(bits)], bits) {
			return false
		}
		w = w[1+len(bits):]
	}
	return len(w) == 0
}

// store copies a counter that passed verify, with its totals, into the
// memo.
func (m *verifiedCounter) store(full *oblivious.Counter, cnt, num int64) {
	w := m.words[:0]
	for i := 0; i < 3+len(full.Stamps); i++ {
		v := counterField(full, i).V
		w = append(w, fieldHeader(v))
		w = append(w, v.Bits()...)
	}
	m.words, m.tag, m.cnt, m.num = w, full.Share.Tag, cnt, num
}

// drop empties the memo, keeping the slab for the next store.
func (m *verifiedCounter) drop() { m.words = m.words[:0] }

// verify checks the share and timestamp fields of a full-neighbourhood
// counter (Algorithm 3's first two steps) and decrypts its count and num
// totals. neighborAt maps stamp slots (≥1) back to resource IDs for
// accusation; slot 0 is the accountant. Returns ok=false when a
// violation was detected (and records the report). A counter equal to
// the last one that passed for the rule is answered from the rule's memo
// (verifiedCounter).
func (c *Controller) verify(rule intern.Sym, full *oblivious.Counter, neighborAt func(slot int) int) (cnt, num int64, ok bool) {
	rs := c.seen[rule]
	if rs != nil {
		if rs.last.matches(full) {
			return rs.last.cnt, rs.last.num, true
		}
		// A failing check below may already have advanced rs.stamps.
		rs.last.drop()
	}
	if c.plainOf(full.Share) != 1 {
		c.stats.Violations++
		c.pendingReport = c.attributeShare(rule, neighborAt)
		return 0, 0, false
	}
	if rs == nil {
		rs = &ruleSeen{stamps: make([]int64, len(full.Stamps))}
		c.seen[rule] = rs
	}
	for len(rs.stamps) < len(full.Stamps) {
		// The stamp vector grew: a neighbour joined (new slot).
		rs.stamps = append(rs.stamps, 0)
	}
	prev := rs.stamps
	for slot, ct := range full.Stamps {
		t := c.plainOf(ct)
		if t < prev[slot] {
			c.stats.Violations++
			accused := c.id
			reason := "accountant counter replay"
			if slot > 0 {
				accused = neighborAt(slot)
				reason = fmt.Sprintf("stale timestamp for rule %s (replayed counter)", intern.Str(rule))
			}
			// Deliberately no Evidence: a stale stamp is ambiguous — this
			// resource's own broker replaying a neighbour's genuinely
			// signed old counter produces the same signature as the
			// neighbour cheating, so exhibiting the messages proves
			// nothing. Quarantine only evicts on a quorum of independent
			// reporters; a lone replaying broker stalls its own mining
			// instead of framing the victim.
			c.pendingReport = &MaliciousReport{Accused: accused, Reporter: c.id, Reason: reason}
			return 0, 0, false
		}
		prev[slot] = t
	}
	cnt, num = c.plainOf(full.Count), c.plainOf(full.Num)
	rs.last.store(full, cnt, num)
	return cnt, num, true
}

// attributeShare turns a share-sum violation into a report. Without
// quarantine (or without the attribution capabilities) the paper's
// response stands: the resource confesses — its own broker submitted
// an aggregate breaking Σshares = 1 — and Algorithm 3 halts it. Under
// quarantine the controller decrypts each slot's attached share and
// compares it to the dealt value: the first mismatching neighbour
// slot is the forger, and the report carries Evidence (the stored
// counter is sender-authenticated by the transport and the dealing is
// checkable, so the violation is self-evident to this verifier). When
// every attached part matches, the aggregate itself was doctored — by
// the only entity that assembles it, this resource's own broker — so
// the report is a confession.
func (c *Controller) attributeShare(rule intern.Sym, neighborAt func(int) int) *MaliciousReport {
	if c.cfg.Quarantine.Enabled && c.partShare != nil && c.expectShare != nil {
		for slot := 1; ; slot++ {
			want, ok := c.expectShare(slot)
			if !ok {
				break
			}
			ct := c.partShare(rule, slot)
			if ct == nil {
				break
			}
			if c.plainOf(ct) != want {
				return &MaliciousReport{
					Accused: neighborAt(slot), Reporter: c.id, Evidence: true,
					Reason: fmt.Sprintf("forged share on rule %s", intern.Str(rule)),
				}
			}
		}
		return &MaliciousReport{
			Accused: c.id, Reporter: c.id, Evidence: true,
			Reason: fmt.Sprintf("broker share-sum violation on rule %s", intern.Str(rule)),
		}
	}
	return &MaliciousReport{
		Accused: c.id, Reporter: c.id,
		Reason: fmt.Sprintf("broker share-sum violation on rule %s", intern.Str(rule)),
	}
}

// remapSeen permutes every verified-timestamp vector into a new slot
// geometry after an eviction; perm[newSlot] = oldSlot (built by the
// broker from the accountant's positional re-slotting). Every verified
// memo belongs to the old geometry and is dropped.
func (c *Controller) remapSeen(perm []int) {
	for _, rs := range c.seen {
		next := make([]int64, len(perm))
		for ns, os := range perm {
			if os < len(rs.stamps) {
				next[ns] = rs.stamps[os]
			}
		}
		rs.stamps = next
		rs.last.drop()
	}
}

// dropEdgeGates forgets the send-gate state of a quarantined edge.
func (c *Controller) dropEdgeGates(v int) {
	for key := range c.sendGates {
		if key.edge == int32(v) {
			delete(c.sendGates, key)
		}
	}
}

// rebaseGates re-anchors every k-gate after a membership eviction.
// The evicted subtree's contribution vanishes from the totals, so the
// old baselines could never be reached again (cnt and num can only
// shrink past them) and every gate would freeze — the same pathology
// as the documented k ≥ 2 freeze, but permanent. Re-anchoring at zero
// means the next fresh answer requires a full ≥ k group accumulated
// from scratch under the new membership: no sub-k release, and the
// freeze caveat gains its exit path. The cached answers survive (a
// k-TTP leaves the requester its prior knowledge); with auditing on,
// a rebase marker is appended so offline admissibility checks split
// their per-stream chains at the boundary.
func (c *Controller) rebaseGates() {
	for _, rs := range c.seen {
		rs.last.drop()
	}
	for _, g := range c.sendGates {
		g.Gate = arm.Gate{}
	}
	for _, g := range c.outGates {
		g.Gate = arm.Gate{}
	}
	if c.cfg.Audit {
		c.audit = append(c.audit, AuditEntry{Stream: AuditRebaseStream, Rebase: true})
	}
}

// SendDecision is the SFE a broker runs before transmitting on one
// edge (§5.1's first SFE occasion). Inputs: the full-neighbourhood
// counter (verification fields + the x1/x2 totals of Cond), and the
// blinded Δ^uv and Δ^uv−Δ^u. Output: whether to send; the broker then
// asks for the recipient's timestamp vector (outgoingStamps, Algorithm
// 3's reply) as it builds the payload. Returns ok=false when
// verification failed.
//
// Gate semantics (DESIGN.md §2 resolution 2): a fresh Majority-Rule
// evaluation is granted only when both totals grew by ≥ k since the
// last fresh evaluation on this edge; inside the gate the decision is
// the data-independent default TRUE, except that a query whose totals
// are unchanged since the previous query is answered FALSE — nothing
// new can flow, so resending is pure echo (this is the controller-side
// equivalent of the plaintext no-op suppression, computed from totals
// the controller legitimately holds for the gate).
func (c *Controller) SendDecision(rule intern.Sym, edge int, full *oblivious.Counter,
	blindDuv, blindDiff *homo.Ciphertext, firstContact bool, neighborAt func(int) int) (send, ok bool) {

	c.stats.SFEs++
	cnt, num, ok := c.verify(rule, full, neighborAt)
	if !ok {
		return false, false
	}
	key := sendGateKey{rule: rule, edge: int32(edge)}
	g, okG := c.sendGates[key]
	if !okG {
		g = &gateState{}
		c.sendGates[key] = g
	}
	switch {
	case firstContact:
		// Majority-Rule sends unconditionally on first contact; the
		// encrypted body reveals nothing.
		send = true
		g.lastCount, g.lastNum, g.queried = cnt, num, true
		c.tel.emit(obs.Event{Type: obs.EvVoteGated, Peer: edge, Rule: intern.Str(rule), Detail: "first-contact"})
	case g.queried && cnt == g.lastCount && num == g.lastNum:
		c.stats.Suppressed++
		c.tel.votesSuppressed.Inc()
		c.tel.emit(obs.Event{Type: obs.EvVoteSupp, Peer: edge, Rule: intern.Str(rule)})
		send = false
	case g.Open(c.cfg.K, cnt, num):
		c.stats.FreshDecisions++
		c.tel.votesFresh.Inc()
		c.recordSend(rule, edge, cnt, num, true)
		g.lastCount, g.lastNum, g.queried = cnt, num, true
		sDuv := c.signOf(blindDuv)
		sDiff := c.signOf(blindDiff)
		// (Δuv ≥ 0 ∧ Δuv > Δu) ∨ (Δuv < 0 ∧ Δuv < Δu).
		send = (sDuv >= 0 && sDiff > 0) || (sDuv < 0 && sDiff < 0)
		c.tel.emit(obs.Event{Type: obs.EvVoteFresh, Peer: edge, Rule: intern.Str(rule), Detail: voteDetail(send)})
	default:
		c.stats.GatedDecisions++
		c.tel.votesGated.Inc()
		c.recordSend(rule, edge, cnt, num, false)
		g.lastCount, g.lastNum, g.queried = cnt, num, true
		send = true
		c.tel.emit(obs.Event{Type: obs.EvVoteGated, Peer: edge, Rule: intern.Str(rule), Detail: "in-gate"})
	}
	if c.adv != nil {
		send = c.adv.TamperAnswer("send", intern.Str(rule), send)
	}
	return send, true
}

// outgoingStamps builds the timestamp vector of one transmission, in the
// recipient's slot space: zero everywhere except the sender's designated
// slot, which carries the next Lamport time (Algorithm 3's reply). A
// decision-approved send and a timer-driven anti-entropy refresh are
// stamped alike. A nil dst yields fresh encryptions, the EncryptInt and
// EncryptZero calls a grid without a payload free list has always made;
// otherwise dst is a recycled payload's stamp vector, owned by the
// caller, and the vector is dealt into its storage (EncryptIntInto,
// zeros included).
func (c *Controller) outgoingStamps(dst []*homo.Ciphertext, slots, slot int) []*homo.Ciphertext {
	c.clock++
	if c.onClockLease != nil && c.clock > c.clockLease {
		c.clockLease = c.clock + clockLeaseStep
		c.onClockLease(c.clockLease)
	}
	if dst == nil {
		out := make([]*homo.Ciphertext, slots)
		for i := range out {
			if i == slot {
				out[i] = c.enc.EncryptInt(c.clock)
			} else {
				out[i] = c.pub.EncryptZero()
			}
		}
		return out
	}
	if cap(dst) < slots {
		dst = append(dst[:cap(dst)], make([]*homo.Ciphertext, slots-cap(dst))...)
	}
	dst = dst[:slots]
	for i := range dst {
		var m int64
		if i == slot {
			m = c.clock
		}
		dst[i] = homo.EncryptIntInto(c.enc, dst[i], m)
	}
	return dst
}

// OutputDecision is the SFE behind Algorithm 1's Output(): whether the
// candidate's Δ^u is non-negative, answered freshly only when both
// totals grew by ≥ k since the last fresh answer (Cond(x1,x2,x3));
// otherwise the cached previous answer stands (a k-TTP "ignores" the
// request, leaving the requester with its prior knowledge). Returns
// ok=false on a verification failure.
func (c *Controller) OutputDecision(rule intern.Sym, full *oblivious.Counter,
	blindDu *homo.Ciphertext, neighborAt func(int) int) (correct bool, ok bool) {

	c.stats.SFEs++
	cnt, num, ok := c.verify(rule, full, neighborAt)
	if !ok {
		return false, false
	}
	g, okG := c.outGates[rule]
	if !okG {
		g = &gateState{}
		c.outGates[rule] = g
	}
	if g.Open(c.cfg.K, cnt, num) {
		c.stats.FreshDecisions++
		c.tel.votesFresh.Inc()
		c.recordOut(rule, cnt, num, true)
		g.cached = c.signOf(blindDu) >= 0
		c.tel.emit(obs.Event{Type: obs.EvOutputDec, Peer: -1, Rule: intern.Str(rule), Detail: "fresh", Value: bool01(g.cached)})
	} else {
		c.stats.GatedDecisions++
		c.tel.votesGated.Inc()
		c.recordOut(rule, cnt, num, false)
		c.tel.emit(obs.Event{Type: obs.EvOutputDec, Peer: -1, Rule: intern.Str(rule), Detail: "cached", Value: bool01(g.cached)})
	}
	c.tel.outputDecisions.Inc()
	if c.adv != nil {
		return c.adv.TamperAnswer("output", intern.Str(rule), g.cached), true
	}
	return g.cached, true
}

// PeekOutput reads the cached answer without running an SFE (metric
// observation).
func (c *Controller) PeekOutput(rule intern.Sym) bool {
	if g, ok := c.outGates[rule]; ok {
		return g.cached
	}
	return false
}
