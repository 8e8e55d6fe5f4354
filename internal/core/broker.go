package core

import (
	"math/rand"

	"secmr/internal/arm"
	"secmr/internal/homo"
	"secmr/internal/intern"
	"secmr/internal/oblivious"
	"secmr/internal/obs"
)

// Adversary lets the attack harness replace parts of a broker's
// behaviour (§3's attack model: a taken-over broker "can do whatever
// it pleases"). A nil return from either hook means "behave honestly
// for this call".
type Adversary interface {
	Name() string
	// TamperFull may replace the full-neighbourhood counter the broker
	// submits to its own controller as SFE input — the detection
	// surface guarded by the share and timestamp fields. parts maps
	// source → current counter (-1 is the accountant/local part);
	// history returns older inbound counters for replay attacks.
	TamperFull(pub homo.Public, rule string, parts map[int]*oblivious.Counter,
		history func(from int) []*oblivious.Counter) *oblivious.Counter
	// TamperPayload may replace the outgoing counter for one edge —
	// the validity surface the paper proves cannot break privacy.
	TamperPayload(pub homo.Public, rule string, to int,
		honest *oblivious.Counter) *oblivious.Counter
}

// BrokerStats counts broker activity.
type BrokerStats struct {
	MessagesSent   int64
	RepliesApplied int64
	CandidatesSeen int64
	// BytesSent is the exact compact-codec wire volume of every
	// transmitted counter message (MessageWireSize; §5.2's messages
	// are pure ciphertext, so this tracks the real communication cost
	// of the chosen cryptosystem).
	BytesSent int64
}

// secEdge is the broker's per-(rule, edge) protocol state.
type secEdge struct {
	inbound            *oblivious.Counter // latest counter from this neighbour (this resource's slot space)
	sentSum, sentCount *homo.Ciphertext   // value components of the last transmission
	contacted          bool
	dirty              bool
	// staleSinceSend is set whenever a payload input changes and only
	// cleared by a transmission; together with lastSendStep it drives
	// the anti-entropy refresh (see evaluateSends).
	staleSinceSend bool
	lastSendStep   int64
}

// secCandidate is one rule's encrypted voting state. The rule key is
// held once as an interned symbol plus the interned string (for traces
// and adversary hooks); every lookup path uses the symbol.
type secCandidate struct {
	rule             arm.Rule
	sym              intern.Sym
	key              string
	lambdaN, lambdaD int64
	local            *oblivious.Counter // the ⊥ counter (accountant replies)
	edges            map[int]*secEdge
	// companion is, for a confidence rule, the index of the frequency
	// candidate of its union (−1 until it exists); the output filter
	// reads that candidate's vote.
	companion int32
	// outDirty marks that some input ciphertext was replaced since the
	// last Output() SFE; when clear, the controller's answer is
	// necessarily its cache (totals unchanged), so the broker skips the
	// query. The flag tracks ciphertext-replacement events only — a
	// data-independent observation the broker legitimately has.
	outDirty bool
}

// brokerEdge is per-edge (rule-independent) link state.
type brokerEdge struct {
	grant    ShareGrant // from the neighbour's accountant
	hasGrant bool
}

// Broker implements Algorithms 1 and 4 over oblivious counters. It
// holds no keys: every ciphertext manipulation goes through the
// homo.Public capability, and every plaintext-dependent decision
// through an SFE with the controller.
type Broker struct {
	id  int
	cfg Config
	pub homo.Public
	acc *Accountant
	ctl *Controller
	adv Adversary

	neighbors []int
	links     map[int]*brokerEdge
	// cands holds every candidate in creation order (the per-tick walk
	// is a dense slice scan); candIdx maps a rule's interned symbol to
	// its index. Creation order equals the accountant's scan
	// registration order — addCandidate appends to both in lockstep.
	cands   []*secCandidate
	candIdx map[intern.Sym]int32
	// waiting holds the confidence candidates whose companion does not
	// exist yet, by the companion's symbol.
	waiting map[intern.Sym][]*secCandidate
	step    int64

	// keyBuf is the scratch buffer ruleSym encodes rule keys into; the
	// interner copies on first sight, so lookups never allocate.
	keyBuf []byte

	// scratch and sfe are the broker's homo.LinCombInto destinations:
	// the counter fullSum folds the neighbourhood into (honest path
	// only), Δ^uv, Δ^uv − Δ^u and their blinded forms for a sign SFE, and
	// the num total transmit rerandomises. The broker produced every
	// ciphertext in them and owns it outright: they are handed to this
	// resource's controller, which decrypts them inside the call, or
	// rerandomised into a fresh ciphertext, and overwritten by the next
	// evaluation — never stored in a candidate or edge, transmitted,
	// snapshotted, or shown to an Adversary hook. parts, ops and coef are
	// the operand lists of those calls, kept here because a slice passed
	// through the homo.Public interface would otherwise escape to the heap
	// per call.
	scratch oblivious.Counter
	sfe     struct{ duv, diff, blind, blindDiff, num *homo.Ciphertext }
	parts   []*oblivious.Counter
	ops     []*homo.Ciphertext
	coef    [4]int64

	// recycle writes over what a step supersedes: each transmission's
	// sum and count fold into the edge's retained sentSum/sentCount,
	// which nothing else holds, and its num into sfe.num, and every
	// replaced ⊥ counter goes back to the accountant as the storage of
	// its scan's next reply (Accountant.supersede). Off while a hook could
	// still hold one of them: an adversary sees every part and payload,
	// and the padding dance swaps ⊥ sums in and out.
	recycle bool

	// shareEpoch is the accountant's current share-dealing epoch;
	// inbound counters from other dealings are dropped.
	shareEpoch int

	// inited flips when init wires the overlay; messages arriving
	// before that (possible on a real transport, where peers boot
	// independently) are buffered and replayed at init — processing
	// them early would create candidates with no edges.
	inited  bool
	preInit []preInitMsg

	// stagedReplies models the accountant→broker hop under IntraDelay:
	// the dense buffer drainReplies produced, held for one step. Index
	// i belongs to acc.scans[i] (the scan table is append-only, so the
	// indices survive candidates created in between).
	stagedReplies []*oblivious.Counter

	// history keeps superseded inbound counters per rule and source
	// for replay adversaries (only populated when adv != nil).
	history map[intern.Sym]map[int][]*oblivious.Counter

	rng   *rand.Rand
	stats BrokerStats
	tel   *telemetry
}

func newBroker(id int, cfg Config, pub homo.Public, acc *Accountant, ctl *Controller, adv Adversary) *Broker {
	return &Broker{
		id: id, cfg: cfg, pub: pub, acc: acc, ctl: ctl, adv: adv,
		recycle: adv == nil && !cfg.PaddingDance,
		links:   map[int]*brokerEdge{},
		candIdx: map[intern.Sym]int32{},
		waiting: map[intern.Sym][]*secCandidate{},
		history: map[intern.Sym]map[int][]*oblivious.Counter{},
		rng:     rand.New(rand.NewSource(int64(id)*104729 + 7)),
		// Disabled telemetry by default; NewResource swaps in the
		// resource-wide set (see newController).
		tel: newTelemetry(id, nil, func() int64 { return 0 }),
	}
}

// ruleSym interns a rule's canonical key without allocating on the
// repeat path: the key is encoded into the broker's scratch buffer and
// handed to the interner, which only copies it the first time that key
// is seen process-wide.
func (b *Broker) ruleSym(rule *arm.Rule) intern.Sym {
	b.keyBuf = rule.AppendKey(b.keyBuf[:0])
	return intern.SBytes(b.keyBuf)
}

// candAt returns the candidate for an interned rule key, or nil.
func (b *Broker) candAt(sym intern.Sym) *secCandidate {
	if i, ok := b.candIdx[sym]; ok {
		return b.cands[i]
	}
	return nil
}

// preInitMsg is a buffered pre-initialization message.
type preInitMsg struct {
	from  int
	grant *ShareGrant
	rule  *RuleCipherMsg
}

// maxPreInit bounds the pre-initialization buffer.
const maxPreInit = 4096

// init seeds the universe candidates and the per-edge state, then
// replays any messages that arrived before initialization.
func (b *Broker) init(neighbors []int) {
	b.neighbors = append([]int(nil), neighbors...)
	b.shareEpoch = b.acc.epoch
	for _, v := range neighbors {
		if _, ok := b.links[v]; !ok {
			b.links[v] = &brokerEdge{}
		}
	}
	for _, i := range b.cfg.Universe {
		b.addCandidate(arm.NewRule(nil, arm.Itemset{i}, arm.ThresholdFreq))
	}
	b.inited = true
	replay := b.preInit
	b.preInit = nil
	for _, m := range replay {
		switch {
		case m.grant != nil:
			b.onShareGrant(m.from, *m.grant)
		case m.rule != nil:
			b.onRuleMsg(m.from, *m.rule)
		}
	}
}

// addCandidate registers a rule with the accountant and creates its
// encrypted state, with placeholder inbound counters that keep the
// share invariant valid before any real traffic (see
// Accountant.placeholderFor). Returns nil when the size cap rejects
// the rule.
func (b *Broker) addCandidate(rule arm.Rule) *secCandidate {
	sym := b.ruleSym(&rule)
	if c := b.candAt(sym); c != nil {
		return c
	}
	if b.cfg.MaxRuleItems > 0 && len(rule.LHS)+len(rule.RHS) > b.cfg.MaxRuleItems {
		return nil
	}
	ln, ld := arm.Rational(b.cfg.Th.Lambda(rule.Kind))
	c := &secCandidate{
		rule: rule, sym: sym, key: intern.Str(sym), lambdaN: ln, lambdaD: ld,
		local:    b.acc.localPlaceholder(),
		edges:    map[int]*secEdge{},
		outDirty: true,
	}
	for _, v := range b.neighbors {
		c.edges[v] = &secEdge{
			inbound:   b.acc.placeholderFor(v),
			sentSum:   b.pub.EncryptZero(),
			sentCount: b.pub.EncryptZero(),
		}
	}
	b.appendCand(c)
	b.acc.register(rule, sym)
	b.stats.CandidatesSeen++
	return c
}

// appendCand adds c to the candidate table and links it to its
// companion, or every waiting confidence candidate to it.
func (b *Broker) appendCand(c *secCandidate) {
	i := int32(len(b.cands))
	b.candIdx[c.sym] = i
	b.cands = append(b.cands, c)
	c.companion = -1
	if c.rule.Kind == arm.ThresholdConf {
		comp := arm.NewRule(nil, c.rule.Union(), arm.ThresholdFreq)
		sym := b.ruleSym(&comp)
		if j, ok := b.candIdx[sym]; ok {
			c.companion = j
		} else {
			b.waiting[sym] = append(b.waiting[sym], c)
		}
	} else if w, ok := b.waiting[c.sym]; ok {
		for _, d := range w {
			d.companion = i
		}
		delete(b.waiting, c.sym)
	}
}

// onShareGrant stores a neighbour's grant; edges become usable for
// transmission once granted.
func (b *Broker) onShareGrant(from int, g ShareGrant) {
	if !b.inited {
		if len(b.preInit) < maxPreInit {
			b.preInit = append(b.preInit, preInitMsg{from: from, grant: &g})
		}
		return
	}
	l, ok := b.links[from]
	if !ok {
		l = &brokerEdge{}
		b.links[from] = l
	}
	l.grant = g
	l.hasGrant = true
}

// onRuleMsg ingests a neighbour's oblivious counter, creating the
// candidate (and its frequency companion) if unknown — Algorithm 4's
// receive handler.
func (b *Broker) onRuleMsg(from int, m RuleCipherMsg) {
	if !b.inited {
		if len(b.preInit) < maxPreInit {
			b.preInit = append(b.preInit, preInitMsg{from: from, rule: &m})
		}
		return
	}
	c := b.candAt(b.ruleSym(&m.Rule))
	if c == nil {
		c = b.addCandidate(m.Rule)
		if c == nil {
			return // above the size cap
		}
		b.addCandidate(arm.NewRule(nil, m.Rule.Union(), arm.ThresholdFreq))
	}
	e, ok := c.edges[from]
	if !ok {
		return // not a tree neighbour; ignore
	}
	if m.Epoch != b.shareEpoch {
		// The sender attached a share from a superseded dealing (its
		// refreshed grant is still in flight after a join); mixing
		// dealings would break the Σshares = 1 invariant. Drop — the
		// anti-entropy refresh re-delivers under the new grant.
		b.tel.epochDrops.Inc()
		return
	}
	if len(m.Counter.Stamps) > b.acc.numSlots() {
		return // malformed; ignore (cannot be verified)
	}
	for len(m.Counter.Stamps) < b.acc.numSlots() {
		// Pad older, shorter stamp vectors (sent before the sender
		// learned about a joined neighbour) with E(0).
		m.Counter.Stamps = append(m.Counter.Stamps, b.pub.EncryptZero())
	}
	if b.adv != nil {
		h := b.history[c.sym]
		if h == nil {
			h = map[int][]*oblivious.Counter{}
			b.history[c.sym] = h
		}
		h[from] = append(h[from], e.inbound)
	}
	e.inbound = m.Counter
	c.outDirty = true
	for v, other := range c.edges {
		if v != from {
			other.dirty = true
			other.staleSinceSend = true
		}
	}
	// Δ^uv toward the sender changed as well; the evaluation is
	// harmless because unchanged aggregates are suppressed at the
	// controller.
	e.dirty = true
}

// applyAccountantReplies moves staged encrypted vote updates into the
// candidates' ⊥ counters, modelling the accountant→broker hop. The
// reply buffer is dense (index i ↔ acc.scans[i], which is candidate
// creation order), so application is a linear walk with no sorting or
// string keys; consumed buffers are recycled back to the accountant.
func (b *Broker) applyAccountantReplies(tr Transport) {
	apply := func(replies []*oblivious.Counter) {
		for i, reply := range replies {
			if reply == nil {
				continue
			}
			c := b.candAt(b.acc.scans[i].sym)
			if c == nil {
				continue
			}
			b.stats.RepliesApplied++
			if b.cfg.PaddingDance {
				b.paddingDance(tr, c, reply)
			}
			if b.recycle {
				b.acc.supersede(i, c.local)
			}
			c.local = reply
			c.outDirty = true
			for _, e := range c.edges {
				e.dirty = true
				e.staleSinceSend = true
			}
		}
		b.acc.recycleReplies(replies)
	}
	if b.stagedReplies != nil {
		apply(b.stagedReplies)
		b.stagedReplies = nil
	}
	fresh := b.acc.drainReplies()
	if b.cfg.IntraDelay {
		b.stagedReplies = fresh
	} else if fresh != nil {
		apply(fresh)
	}
}

// paddingDance performs Algorithm 1's obfuscation sequence on a local
// vote change from s to s′: the sum passes through s±E(1) and s′±E(1),
// with a full evaluation after each assignment, before settling on s′.
// The sequence makes the number of triggered evaluations independent
// of the direction and magnitude of the actual change.
func (b *Broker) paddingDance(tr Transport, c *secCandidate, next *oblivious.Counter) {
	variants := []*homo.Ciphertext{
		b.pub.Add(c.local.Sum, b.encOne()),
		b.pub.Sub(c.local.Sum, b.encOne()),
		b.pub.Add(next.Sum, b.encOne()),
		b.pub.Sub(next.Sum, b.encOne()),
	}
	saved := c.local.Sum
	for _, v := range variants {
		c.local.Sum = v
		for _, e := range c.edges {
			e.dirty = true
		}
		b.evaluateSends(tr)
	}
	c.local.Sum = saved
}

// encOne builds E(1) without the encryption key: E(0)+E(0) scaled —
// impossible; instead the accountant pre-provisions encrypted ones.
func (b *Broker) encOne() *homo.Ciphertext { return b.acc.encryptedOne() }

// gather lists the counters of c's neighbourhood — the ⊥ counter, then
// every inbound counter in neighbour order, except's left out (−1: none)
// — in the broker's reused parts slice.
func (b *Broker) gather(c *secCandidate, except int) []*oblivious.Counter {
	parts := append(b.parts[:0], c.local)
	for _, v := range b.neighbors {
		if e, ok := c.edges[v]; ok && v != except {
			parts = append(parts, e.inbound)
		}
	}
	b.parts = parts
	return parts
}

// sumField folds one field of every part into dst with a single fused
// op; a nil dst yields a fresh ciphertext the caller may keep.
func (b *Broker) sumField(dst *homo.Ciphertext, parts []*oblivious.Counter,
	field func(*oblivious.Counter) *homo.Ciphertext) *homo.Ciphertext {
	b.ops = b.ops[:0]
	for _, p := range parts {
		b.ops = append(b.ops, field(p))
	}
	return homo.LinCombInto(b.pub, dst, nil, b.ops)
}

func sumOf(c *oblivious.Counter) *homo.Ciphertext   { return c.Sum }
func countOf(c *oblivious.Counter) *homo.Ciphertext { return c.Count }
func numOf(c *oblivious.Counter) *homo.Ciphertext   { return c.Num }
func shareOf(c *oblivious.Counter) *homo.Ciphertext { return c.Share }

// linComb evaluates Σ ms[i]·xs[i] over the first n terms into dst,
// through the broker's own coefficient and operand arrays.
func (b *Broker) linComb(dst *homo.Ciphertext, n int, ms [4]int64, xs [4]*homo.Ciphertext) *homo.Ciphertext {
	b.coef = ms
	b.ops = append(b.ops[:0], xs[:n]...)
	return homo.LinCombInto(b.pub, dst, b.coef[:n], b.ops)
}

// fullSum aggregates the ⊥ counter and every inbound counter — the
// quantity all SFE inputs are built from. The honest path folds each
// field of the neighbourhood into the broker-owned scratch counter with
// one fused op (nothing allocated once the scratch exists); the result
// is only valid until the next fullSum call, which every caller
// satisfies (SFE inputs are consumed synchronously). The adversary hook
// may replace it (detection surface) — that cold path keeps the
// allocating chain, so a hook never sees a ciphertext that is later
// overwritten.
func (b *Broker) fullSum(c *secCandidate) *oblivious.Counter {
	if b.adv != nil {
		parts := map[int]*oblivious.Counter{-1: c.local}
		for v, e := range c.edges {
			parts[v] = e.inbound
		}
		hist := func(from int) []*oblivious.Counter {
			if h, ok := b.history[c.sym]; ok {
				return h[from]
			}
			return nil
		}
		if tampered := b.adv.TamperFull(b.pub, c.key, parts, hist); tampered != nil {
			return tampered
		}
		full := c.local
		for _, e := range c.edges {
			full = oblivious.Add(b.pub, full, e.inbound)
		}
		return full
	}
	parts, slots := b.gather(c, -1), len(c.local.Stamps)
	s := &b.scratch
	s.Sum = b.sumField(s.Sum, parts, sumOf)
	s.Count = b.sumField(s.Count, parts, countOf)
	s.Num = b.sumField(s.Num, parts, numOf)
	s.Share = b.sumField(s.Share, parts, shareOf)
	for _, p := range parts {
		if len(p.Stamps) != slots {
			panic("core: stamp slot mismatch")
		}
	}
	for len(s.Stamps) < slots {
		s.Stamps = append(s.Stamps, nil)
	}
	s.Stamps = s.Stamps[:slots]
	for k := range s.Stamps {
		s.Stamps[k] = b.sumField(s.Stamps[k], parts,
			func(p *oblivious.Counter) *homo.Ciphertext { return p.Stamps[k] })
	}
	return s
}

// evaluateSends runs the per-edge send SFEs for every dirty
// (candidate, edge) pair and transmits approved messages.
func (b *Broker) evaluateSends(tr Transport) {
	b.step++
	neighborAt := func(slot int) int { return b.acc.neighbors[slot-1] }
	for _, c := range b.cands {
		var full *oblivious.Counter
		for _, v := range b.neighbors {
			e := c.edges[v]
			link := b.links[v]
			if !link.hasGrant {
				continue // cannot stamp/share messages for v yet
			}
			// Anti-entropy refresh: Scalable-Majority's locality
			// deliberately withholds aggregates once signs agree, but
			// the k-gate needs every resource to eventually aggregate
			// ≥ k resources' votes; a periodic, timer-driven re-send of
			// changed payloads guarantees that delivery. The trigger is
			// data-independent (a timer plus ciphertext-replacement
			// events), so it adds no leak. See DESIGN.md §2.
			// Under LossyLinks the refresh fires on the timer alone:
			// staleSinceSend is cleared by transmit, but a transmission
			// the transport dropped never arrived, so "nothing stale"
			// cannot be trusted.
			refresh := e.contacted && (e.staleSinceSend || b.cfg.LossyLinks) &&
				b.step-e.lastSendStep >= refreshEvery
			if e.contacted && !e.dirty && !refresh {
				continue
			}
			first := !e.contacted
			e.dirty = false
			if full == nil {
				full = b.fullSum(c)
			}
			if refresh {
				b.transmit(tr, c, v, e, b.ctl.RefreshStamps(link.grant.NumSlots, link.grant.Slot))
				continue
			}
			// Δ^uv and Δ^uv − Δ^u, blinded for the sign SFE. Both are
			// built on every evaluation, used or not: whether the k-gate
			// opens is data-dependent, and the broker must not learn it.
			// Δ^u = λd·sum − λn·count of the full neighbourhood enters
			// the difference term by term, so a scheme on the serial
			// fallback runs the eleven ops it always ran.
			t := &b.sfe
			t.duv = b.linComb(t.duv, 4,
				[4]int64{c.lambdaD, c.lambdaD, -c.lambdaN, -c.lambdaN},
				[4]*homo.Ciphertext{e.inbound.Sum, e.sentSum, e.inbound.Count, e.sentCount})
			t.diff = b.linComb(t.diff, 3,
				[4]int64{1, -c.lambdaD, c.lambdaN}, [4]*homo.Ciphertext{t.duv, full.Sum, full.Count})
			r := oblivious.BlindFactor(blindBits, b.rng)
			t.blind = b.linComb(t.blind, 1, [4]int64{r}, [4]*homo.Ciphertext{t.duv})
			r = oblivious.BlindFactor(blindBits, b.rng)
			t.blindDiff = b.linComb(t.blindDiff, 1, [4]int64{r}, [4]*homo.Ciphertext{t.diff})
			send, stamps, ok := b.ctl.SendDecision(c.sym, v, full, t.blind, t.blindDiff,
				first, link.grant.NumSlots, link.grant.Slot, neighborAt)
			if !ok {
				return // violation detected; Resource will halt us
			}
			if !send {
				continue
			}
			b.transmit(tr, c, v, e, stamps)
		}
	}
}

// transmit builds and sends the payload for edge v with the given
// timestamp vector, updating the edge's transmission state. The payload
// is Update(v): the value components (sum, count, num) of the ⊥ counter
// and every inbound counter except the recipient's, each rerandomised;
// the edge retains the unrandomised sum and count as sentSum/sentCount.
func (b *Broker) transmit(tr Transport, c *secCandidate, v int, e *secEdge, stamps []*homo.Ciphertext) {
	link := b.links[v]
	var sum, count, num *homo.Ciphertext
	if b.recycle {
		sum, count, num = e.sentSum, e.sentCount, b.sfe.num
	}
	parts := b.gather(c, v)
	sum, count, num = b.sumField(sum, parts, sumOf), b.sumField(count, parts, countOf), b.sumField(num, parts, numOf)
	if b.recycle {
		b.sfe.num = num
	}
	out := &oblivious.Counter{
		Sum:    b.pub.Rerandomize(sum),
		Count:  b.pub.Rerandomize(count),
		Num:    b.pub.Rerandomize(num),
		Share:  b.pub.Rerandomize(link.grant.Share),
		Stamps: stamps,
	}
	if b.adv != nil {
		if tampered := b.adv.TamperPayload(b.pub, c.key, v, out); tampered != nil {
			out = tampered
		}
	}
	e.sentSum, e.sentCount = sum, count
	e.contacted = true
	e.staleSinceSend = false
	e.lastSendStep = b.step
	msg := RuleCipherMsg{Rule: c.rule, Counter: out, Epoch: link.grant.Epoch}
	nb := int64(MessageWireSize(msg))
	b.stats.MessagesSent++
	b.stats.BytesSent += nb
	b.tel.countersSent.Inc()
	b.tel.counterBytes.Add(nb)
	b.tel.emit(obs.Event{Type: obs.EvCounterSend, Peer: v, Rule: c.key, Value: nb})
	tr.Send(v, msg)
}

// onNeighborJoin handles a new overlay edge: the accountant re-deals
// its shares (new epoch), the broker re-binds the share field of every
// stored counter to the new dealing and pads stamp vectors with the
// new slot, and a fresh edge (with a share-correct placeholder) is
// added to every candidate. Returns the grants to distribute — the new
// neighbour's plus refreshed ones for everyone else (their NumSlots
// and share values changed).
func (b *Broker) onNeighborJoin(v int) map[int]ShareGrant {
	grants := b.acc.addNeighbor(v)
	b.shareEpoch = b.acc.epoch
	b.neighbors = append(b.neighbors, v)
	if _, ok := b.links[v]; !ok {
		b.links[v] = &brokerEdge{}
	}
	slots := b.acc.numSlots()
	rebind := func(c *oblivious.Counter, slot int) {
		c.Share = b.acc.shareEnc(slot)
		for len(c.Stamps) < slots {
			c.Stamps = append(c.Stamps, b.pub.EncryptZero())
		}
	}
	for _, c := range b.cands {
		rebind(c.local, 0)
		for w, e := range c.edges {
			rebind(e.inbound, b.acc.slotFor(w))
		}
		c.edges[v] = &secEdge{
			inbound:   b.acc.placeholderFor(v),
			sentSum:   b.pub.EncryptZero(),
			sentCount: b.pub.EncryptZero(),
		}
		c.outDirty = true
		for _, e := range c.edges {
			e.dirty = true
			e.staleSinceSend = true
		}
	}
	// Staged accountant replies carry old-geometry stamp vectors and a
	// superseded share; rebind them too.
	for _, reply := range b.stagedReplies {
		if reply != nil {
			rebind(reply, 0)
		}
	}
	return grants
}

// onNeighborEvict handles a quarantined overlay neighbour: the
// accountant re-deals over the survivors (new dealing epoch, new slot
// geometry), the broker drops the evicted edge from every candidate
// and re-binds stored counters — shares to the new dealing, timestamp
// vectors permuted from old slots to new — and the controller's seen
// vectors follow the same permutation while its k-gates re-anchor.
// Returns the refreshed grants for the survivors.
func (b *Broker) onNeighborEvict(v int) map[int]ShareGrant {
	oldSlot := make(map[int]int, len(b.acc.slotOf))
	for w, s := range b.acc.slotOf {
		oldSlot[w] = s
	}
	grants := b.acc.removeNeighbor(v)
	b.shareEpoch = b.acc.epoch
	keep := b.neighbors[:0]
	for _, w := range b.neighbors {
		if w != v {
			keep = append(keep, w)
		}
	}
	b.neighbors = keep
	delete(b.links, v)
	slots := b.acc.numSlots()
	// perm[newSlot] = oldSlot for every surviving slot; 0 is ⊥, fixed.
	perm := make([]int, slots)
	for _, w := range b.acc.neighbors {
		perm[b.acc.slotOf[w]] = oldSlot[w]
	}
	remap := func(c *oblivious.Counter, slot int) {
		old := c.Stamps
		c.Stamps = make([]*homo.Ciphertext, slots)
		for ns, os := range perm {
			if os < len(old) {
				c.Stamps[ns] = old[os]
			}
		}
		for i, s := range c.Stamps {
			if s == nil {
				c.Stamps[i] = b.pub.EncryptZero()
			}
		}
		c.Share = b.acc.shareEnc(slot)
	}
	for _, c := range b.cands {
		remap(c.local, 0)
		delete(c.edges, v)
		for w, e := range c.edges {
			remap(e.inbound, b.acc.slotFor(w))
		}
		c.outDirty = true
		for _, e := range c.edges {
			e.dirty = true
			e.staleSinceSend = true
		}
	}
	// Staged accountant replies carry old-geometry stamp vectors and a
	// superseded share; rebind them too.
	for _, reply := range b.stagedReplies {
		if reply != nil {
			remap(reply, 0)
		}
	}
	for _, h := range b.history {
		delete(h, v)
	}
	b.ctl.remapSeen(perm)
	b.ctl.dropEdgeGates(v)
	b.ctl.rebaseGates()
	return grants
}

// partShare exposes the share ciphertext attached to one slot's
// current counter for a rule (quarantine attribution): slot 0 is the
// accountant's ⊥ counter, slot ≥ 1 the neighbour's stored inbound
// counter.
func (b *Broker) partShare(rule intern.Sym, slot int) *homo.Ciphertext {
	c := b.candAt(rule)
	if c == nil {
		return nil
	}
	if slot == 0 {
		return c.local.Share
	}
	if slot-1 >= len(b.acc.neighbors) {
		return nil
	}
	e, ok := c.edges[b.acc.neighbors[slot-1]]
	if !ok {
		return nil
	}
	return e.inbound.Share
}

// generateCandidates is Algorithm 4's periodic pass: an Output() SFE
// per candidate, then lattice expansion from the believed-correct set.
func (b *Broker) generateCandidates() {
	neighborAt := func(slot int) int { return b.acc.neighbors[slot-1] }
	answers := make([]bool, len(b.cands))
	for i, c := range b.cands {
		if !c.outDirty {
			// No input ciphertext was replaced since the last query, so
			// the controller's totals are unchanged and its answer is
			// necessarily the cached one; skip the SFE.
			answers[i] = b.ctl.PeekOutput(c.sym)
			continue
		}
		c.outDirty = false
		full := b.fullSum(c)
		// r·Δ^u in one op: the blind is folded into Δ^u's coefficients
		// (no overflow — see oblivious.BlindFactor).
		r := oblivious.BlindFactor(blindBits, b.rng)
		b.sfe.blind = b.linComb(b.sfe.blind, 2,
			[4]int64{r * c.lambdaD, -r * c.lambdaN}, [4]*homo.Ciphertext{full.Sum, full.Count})
		correct, ok := b.ctl.OutputDecision(c.sym, full, b.sfe.blind, neighborAt)
		if !ok {
			return
		}
		answers[i] = correct
	}
	truth := b.assembleOutput(func(i int, c *secCandidate) bool { return answers[i] })
	existing := arm.RuleSet{}
	for _, c := range b.cands {
		existing.Add(c.rule)
	}
	before := len(existing)
	arm.GenerateCandidates(truth, existing)
	if len(existing) == before {
		return
	}
	for _, rule := range existing.Sorted() {
		rule := rule
		if _, ok := b.candIdx[b.ruleSym(&rule)]; !ok {
			b.addCandidate(rule)
		}
	}
}

// refreshEvery is the anti-entropy period in steps; see evaluateSends.
const refreshEvery = 20

// Output assembles R̃_u from the controller's cached answers without
// running SFEs.
func (b *Broker) Output() arm.RuleSet { return b.assembleOutput(b.peek) }

// peek is Output's decision: the controller's cached answer.
func (b *Broker) peek(_ int, c *secCandidate) bool { return b.ctl.PeekOutput(c.sym) }

// assembleOutput collects the candidates inOutput admits. decide
// receives each candidate with its index (answers are index-parallel
// during a generation pass).
func (b *Broker) assembleOutput(decide func(i int, c *secCandidate) bool) arm.RuleSet {
	out := arm.RuleSet{}
	for i, c := range b.cands {
		if b.inOutput(i, decide) {
			out.Add(c.rule)
		}
	}
	return out
}

// inOutput applies the "confident rules between frequent itemsets"
// filter to candidate i: a confidence rule is reported only when its own
// vote and its union's frequency vote both pass.
func (b *Broker) inOutput(i int, decide func(i int, c *secCandidate) bool) bool {
	c := b.cands[i]
	if c.rule.Kind == arm.ThresholdConf {
		return decide(i, c) && c.companion >= 0 && decide(int(c.companion), b.cands[c.companion])
	}
	return decide(i, c)
}

// DebugAggregate decrypts a candidate's full aggregate through the
// resource's own controller capability — test/diagnostic use only.
func (b *Broker) DebugAggregate(key string) (sum, count, num int64, ok bool) {
	sym, ok := intern.Lookup(key)
	if !ok {
		return 0, 0, 0, false
	}
	c := b.candAt(sym)
	if c == nil {
		return 0, 0, 0, false
	}
	full := b.fullSum(c)
	return b.ctl.plainOf(full.Sum), b.ctl.plainOf(full.Count), b.ctl.plainOf(full.Num), true
}
