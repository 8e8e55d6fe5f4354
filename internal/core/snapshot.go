package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"secmr/internal/arm"
	"secmr/internal/homo"
	"secmr/internal/intern"
	"secmr/internal/oblivious"
	"secmr/internal/obs"
	"secmr/internal/sim"
)

// Durable-state codec: EncodeState serializes a resource's complete
// protocol state — accountant (database, feed tail, share dealing,
// scan positions, reply clock), broker (links, per-candidate counters
// and edge state), controller (Lamport clock + lease, verified-stamp
// vectors, k-gate state, audit trail) — and RestoreResource rebuilds a
// live resource from those bytes. internal/persist wraps the codec in
// atomically-written snapshot files and a write-ahead log of the
// inputs recorded through the Journal interface; together they make a
// crash-with-amnesia restart recoverable from disk alone.
//
// What is deliberately NOT serialized:
//
//   - staged accountant/broker replies (the IntraDelay hop): recovery
//     calls RestageReplies, which re-stages a fresh reply for every
//     candidate with scan progress, so the ⊥ counters re-converge on
//     the first post-recovery tick;
//   - RNG states: share dealings are a deterministic function of
//     (id, epoch) (see dealingSeed) and blinding randomness is
//     sign-preserving, so replay divergence there is harmless;
//   - ciphertext randomness of future operations: every protocol
//     invariant is on plaintexts, which replay reproduces exactly.
//
// The encoding reuses the wire codec's primitives (wireReader,
// appendItemset, homo.AppendCiphertext, oblivious.AppendCounter); all
// map walks are sorted so the bytes are deterministic — encoding a
// restored resource reproduces the snapshot bit-for-bit.

// snapshotVersion is the first byte of every EncodeState image.
// Version 2 added the quarantine state (per-report Evidence flags,
// membership epoch, evicted set, accuser sets) and the audit rebase
// marker; RestoreResource still reads version-1 images (they restore
// with empty quarantine state).
const snapshotVersion = 2

// clockLeaseStep is how far ahead of the current Lamport clock a
// durable clock lease reaches. Larger values mean fewer synchronous
// lease writes; the only cost of a large step is a clock jump after
// recovery (harmless — stamp verification only needs monotonicity).
const clockLeaseStep = 4096

// Journal is the durability hook a Resource reports its state-mutating
// inputs to (see internal/persist). All methods are error-free from
// the resource's perspective: an implementation that hits an I/O error
// records it internally and degrades the hooks to no-ops — protocol
// behaviour must never depend on a disk.
type Journal interface {
	// LogMessage records one inbound protocol message, called before
	// the message is processed.
	LogMessage(from int, msg any)
	// LogTick records one protocol tick, called before the tick runs.
	LogTick()
	// LogJoin records a neighbour join, called before it is processed.
	LogJoin(v int)
	// LogClockLease records a durable Lamport-clock reservation. The
	// implementation must flush it to stable storage before returning:
	// stamps up to upTo may leave the resource immediately after.
	LogClockLease(upTo int64)
	// SnapshotDue reports whether a snapshot should be cut now (the
	// Resource asks after every tick).
	SnapshotDue() bool
	// Snapshot atomically persists a full state image (EncodeState
	// output) and truncates the log.
	Snapshot(state []byte)
}

// SetJournal attaches (or, with nil, detaches) the durability journal.
// Attach before Bootstrap for a fresh resource — the bootstrap
// snapshot is written through it — or after RestoreResource + replay
// for a recovered one. Attaching immediately reserves a fresh clock
// lease: every stamp the controller may issue from here on is covered
// by a durable reservation.
func (r *Resource) SetJournal(j Journal) {
	r.journal = j
	if j == nil {
		r.Controller.onClockLease = nil
		return
	}
	r.Controller.onClockLease = j.LogClockLease
	r.Controller.clockLease = r.Controller.clock + clockLeaseStep
	j.LogClockLease(r.Controller.clockLease)
}

// snapshotIfDue cuts a snapshot when the journal asks for one.
func (r *Resource) snapshotIfDue() {
	if r.journal != nil && r.journal.SnapshotDue() {
		r.journal.Snapshot(r.EncodeState())
	}
}

// EnsureClockAtLeast raises the controller's Lamport clock to at least
// floor. Recovery applies the highest clock lease found in the log, so
// a replayed (possibly shorter) clock history can never re-issue
// stamps below values neighbours already verified.
func (r *Resource) EnsureClockAtLeast(floor int64) {
	if r.Controller.clock < floor {
		r.Controller.clock = floor
	}
}

// RestageReplies re-stages an encrypted reply for every candidate the
// accountant has scan progress on. Called once at the end of recovery:
// staged replies are not serialized, so without this the broker's ⊥
// counters could be stuck one reply behind the scan totals forever
// (the accountant only re-replies on further progress). Fresh
// encryptions of the current totals are idempotent at every consumer —
// unchanged aggregates are suppressed at the controller.
func (r *Resource) RestageReplies() {
	a := r.Accountant
	for i, s := range a.scans {
		if s.Pos > 0 {
			a.stage(i)
		}
	}
}

// Rejoin re-announces a recovered resource to its neighbourhood over
// the transport: known reports are re-flooded (detection must survive
// the restart) and, unless halted, every neighbour receives a fresh
// grant of the current dealing (neighbours kept the old ones, but the
// re-issue is idempotent and covers grants lost with the crash). The
// anti-entropy refresh re-synchronizes counter state from here.
func (r *Resource) Rejoin(tr Transport) {
	for _, rep := range r.reports {
		for _, v := range r.neighbors {
			tr.Send(v, rep)
		}
	}
	if r.halted {
		return
	}
	grants := r.Accountant.currentGrants()
	for _, v := range r.neighbors {
		if g, ok := grants[v]; ok {
			tr.Send(v, g)
			r.tel.grantsSent.Inc()
			r.tel.emit(obs.Event{Type: obs.EvGrantSend, Peer: v, Detail: "rejoin"})
		}
	}
}

// OnRejoin implements sim.Rejoiner: the engine calls it when it swaps
// a recovered node in after a crash-with-amnesia restart.
func (r *Resource) OnRejoin(ctx *sim.Context) { r.Rejoin(simTransport{ctx}) }

// EncodeState serializes the resource's full protocol state.
func (r *Resource) EncodeState() []byte {
	dst := []byte{snapshotVersion}

	// Resource shell.
	dst = binary.AppendVarint(dst, r.step)
	dst = binary.AppendVarint(dst, r.lossTick)
	dst = appendBool(dst, r.halted)
	dst = binary.AppendUvarint(dst, uint64(len(r.reports)))
	for _, rep := range r.reports {
		dst = binary.AppendVarint(dst, int64(rep.Accused))
		dst = binary.AppendVarint(dst, int64(rep.Reporter))
		dst = appendString(dst, rep.Reason)
		dst = appendBool(dst, rep.Evidence)
	}
	// One neighbour list serves all three entities: Bootstrap and
	// HandleNeighborJoin keep them identical, and the accountant's slot
	// map is positional (slotOf[neighbors[i]] = i+1).
	dst = binary.AppendUvarint(dst, uint64(len(r.neighbors)))
	for _, v := range r.neighbors {
		dst = binary.AppendVarint(dst, int64(v))
	}

	// Quarantine state (since version 2).
	dst = binary.AppendVarint(dst, int64(r.membershipEpoch))
	evicted := sortedIntKeys(r.evicted)
	dst = binary.AppendUvarint(dst, uint64(len(evicted)))
	for _, v := range evicted {
		dst = binary.AppendVarint(dst, int64(v))
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.accusers)))
	for _, v := range sortedIntKeys(r.accusers) {
		dst = binary.AppendVarint(dst, int64(v))
		reporters := sortedIntKeys(r.accusers[v])
		dst = binary.AppendUvarint(dst, uint64(len(reporters)))
		for _, w := range reporters {
			dst = binary.AppendVarint(dst, int64(w))
		}
	}

	// Accountant.
	a := r.Accountant
	dst = binary.AppendVarint(dst, int64(a.epoch))
	dst = binary.AppendVarint(dst, a.t)
	dst = binary.AppendUvarint(dst, uint64(len(a.shareVals)))
	for _, v := range a.shareVals {
		dst = binary.AppendVarint(dst, v)
	}
	dst = binary.AppendUvarint(dst, uint64(a.db.Len()))
	for _, tx := range a.db.Tx {
		dst = appendItemset(dst, tx)
	}
	var tail []arm.Transaction
	if a.feed != nil {
		tail = a.feed.Tail()
	}
	dst = binary.AppendUvarint(dst, uint64(len(tail)))
	for _, tx := range tail {
		dst = appendItemset(dst, tx)
	}
	dst = binary.AppendUvarint(dst, uint64(len(a.scans)))
	for _, s := range a.scans {
		dst = appendRule(dst, s.Rule)
		dst = binary.AppendVarint(dst, int64(s.Pos))
		dst = binary.AppendVarint(dst, s.Sum)
		dst = binary.AppendVarint(dst, s.Count)
	}

	// Broker.
	b := r.Broker
	dst = binary.AppendVarint(dst, b.step)
	dst = binary.AppendVarint(dst, int64(b.shareEpoch))
	dst = binary.AppendUvarint(dst, uint64(len(b.links)))
	for _, v := range sortedIntKeys(b.links) {
		l := b.links[v]
		dst = binary.AppendVarint(dst, int64(v))
		dst = appendBool(dst, l.hasGrant)
		if l.hasGrant {
			dst = binary.AppendVarint(dst, int64(l.grant.Slot))
			dst = binary.AppendVarint(dst, int64(l.grant.NumSlots))
			dst = binary.AppendVarint(dst, int64(l.grant.Epoch))
			dst = homo.AppendCiphertext(dst, l.grant.Share)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.cands)))
	for _, c := range b.cands {
		dst = appendRule(dst, c.Rule)
		dst = appendBool(dst, c.outDirty)
		dst = oblivious.AppendCounter(dst, c.local)
		dst = binary.AppendUvarint(dst, uint64(len(c.edges)))
		for _, v := range sortedIntKeys(c.edges) {
			e := c.edges[v]
			dst = binary.AppendVarint(dst, int64(v))
			var flags byte
			if e.contacted {
				flags |= 1
			}
			if e.dirty {
				flags |= 2
			}
			if e.staleSinceSend {
				flags |= 4
			}
			dst = append(dst, flags)
			dst = binary.AppendVarint(dst, e.lastSendStep)
			dst = oblivious.AppendCounter(dst, e.inbound)
			dst = homo.AppendCiphertext(dst, e.sentSum)
			dst = homo.AppendCiphertext(dst, e.sentCount)
		}
	}

	// Controller.
	c := r.Controller
	dst = binary.AppendVarint(dst, c.clock)
	dst = binary.AppendVarint(dst, c.clockLease)
	// Rule keys live as interned symbols in memory; the snapshot writes
	// the legacy strings (sorted), so the byte format is unchanged and
	// symbol numbering — which depends on interning order — never leaks
	// into persisted state.
	dst = binary.AppendUvarint(dst, uint64(len(c.seen)))
	for _, rule := range sortedSymKeys(c.seen) {
		dst = appendString(dst, intern.Str(rule))
		stamps := c.seen[rule].stamps
		dst = binary.AppendUvarint(dst, uint64(len(stamps)))
		for _, t := range stamps {
			dst = binary.AppendVarint(dst, t)
		}
	}
	dst = appendSendGates(dst, c.sendGates)
	dst = appendOutGates(dst, c.outGates)
	dst = binary.AppendUvarint(dst, uint64(len(c.audit)))
	for _, e := range c.audit {
		dst = appendString(dst, e.Stream)
		dst = binary.AppendVarint(dst, e.Count)
		dst = binary.AppendVarint(dst, e.Num)
		dst = appendBool(dst, e.Fresh)
		dst = appendBool(dst, e.Rebase)
	}
	return dst
}

// RestoreResource rebuilds a resource from an EncodeState image.
// scheme is the grid cryptosystem; it must hold the same keys the
// snapshot's ciphertexts were produced under and implement
// homo.Adopter so every persisted ciphertext is validated and re-bound
// on the way in. cfg must match the configuration the resource ran
// with (it is not part of the image — deployments already distribute
// it out of band).
func RestoreResource(id int, cfg Config, scheme homo.Scheme, state []byte) (*Resource, error) {
	adopter, ok := scheme.(homo.Adopter)
	if !ok {
		return nil, fmt.Errorf("core: scheme %T cannot adopt persisted ciphertexts", scheme)
	}
	if len(state) == 0 {
		return nil, errors.New("core: empty snapshot")
	}
	version := state[0]
	if version != 1 && version != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", version)
	}
	rd := &wireReader{buf: state[1:]}

	// Resource shell.
	step := rd.int64()
	lossTick := rd.int64()
	halted := rd.bool()
	var reports []MaliciousReport
	for i, n := 0, rd.count(); i < n; i++ {
		rep := MaliciousReport{
			Accused: rd.int(), Reporter: rd.int(), Reason: rd.str(),
		}
		if version >= 2 {
			rep.Evidence = rd.bool()
		}
		reports = append(reports, rep)
	}
	var neighbors []int
	for i, n := 0, rd.count(); i < n; i++ {
		neighbors = append(neighbors, rd.int())
	}
	membershipEpoch := 0
	evicted := map[int]bool{}
	accusers := map[int]map[int]bool{}
	if version >= 2 {
		membershipEpoch = rd.int()
		for i, n := 0, rd.count(); i < n; i++ {
			evicted[rd.int()] = true
		}
		for i, n := 0, rd.count(); i < n; i++ {
			v := rd.int()
			set := map[int]bool{}
			for j, m := 0, rd.count(); j < m; j++ {
				set[rd.int()] = true
			}
			accusers[v] = set
		}
	}

	// Accountant scalars.
	epoch := rd.int()
	at := rd.int64()
	var shareVals []int64
	for i, n := 0, rd.count(); i < n; i++ {
		shareVals = append(shareVals, rd.int64())
	}
	db := arm.NewDatabase()
	for i, n := 0, rd.count(); i < n; i++ {
		db.Append(rd.itemset())
	}
	var feed []arm.Transaction
	for i, n := 0, rd.count(); i < n; i++ {
		feed = append(feed, rd.itemset())
	}
	if rd.err != nil {
		return nil, rd.err
	}
	if len(shareVals) != len(neighbors)+1 {
		return nil, errors.New("core: snapshot share vector does not match neighbourhood")
	}

	res := NewResource(id, cfg, scheme, db, feed, nil)
	res.step, res.lossTick, res.halted = step, lossTick, halted
	for _, rep := range reports {
		res.reports = append(res.reports, rep)
		res.reportsSeen[reportKey{rep.Accused, rep.Reporter, rep.Reason}] = true
	}
	res.neighbors = append([]int(nil), neighbors...)
	res.membershipEpoch = membershipEpoch
	res.evicted = evicted
	res.accusers = accusers

	a := res.Accountant
	a.neighbors = append([]int(nil), neighbors...)
	for i, v := range neighbors {
		a.slotOf[v] = i + 1
	}
	a.epoch, a.t, a.shareVals = epoch, at, shareVals
	for i, n := 0, rd.count(); i < n; i++ {
		s := &scanState{Tally: arm.NewTally(readRule(rd))}
		s.Pos, s.Sum, s.Count = rd.int(), rd.int64(), rd.int64()
		if rd.err != nil {
			return nil, rd.err
		}
		a.scans = append(a.scans, s)
		a.replies = append(a.replies, nil)
	}

	b := res.Broker
	b.neighbors = append([]int(nil), neighbors...)
	b.inited = true
	b.step = rd.int64()
	b.shareEpoch = rd.int()
	for i, n := 0, rd.count(); i < n; i++ {
		v := rd.int()
		l := &brokerEdge{hasGrant: rd.bool()}
		if l.hasGrant {
			l.grant.Slot = rd.int()
			l.grant.NumSlots = rd.int()
			l.grant.Epoch = rd.int()
			l.grant.Share = rd.ciphertext()
			if rd.err != nil {
				return nil, rd.err
			}
			if err := adoptInto(adopter, &l.grant.Share); err != nil {
				return nil, err
			}
		}
		b.links[v] = l
	}
	for i, n := 0, rd.count(); i < n; i++ {
		rule := readRule(rd)
		c := &secCandidate{outDirty: rd.bool(), local: rd.counter(), edges: map[int]*secEdge{}}
		if rd.err != nil {
			return nil, rd.err
		}
		j, ok := b.table.Add(rule)
		if !ok || j != len(b.cands) || j >= len(a.scans) || a.scans[j].Rule.Key() != b.table.At(j).Key {
			return nil, fmt.Errorf("core: snapshot candidate %s repeats, exceeds the size cap or is not scan %d", rule, j)
		}
		c.Candidate = b.table.At(j)
		if err := adoptCounter(adopter, c.local); err != nil {
			return nil, err
		}
		for j, m := 0, rd.count(); j < m; j++ {
			v := rd.int()
			e := &secEdge{}
			flags := rd.byte()
			e.contacted = flags&1 != 0
			e.dirty = flags&2 != 0
			e.staleSinceSend = flags&4 != 0
			e.lastSendStep = rd.int64()
			e.inbound = rd.counter()
			e.sentSum = rd.ciphertext()
			e.sentCount = rd.ciphertext()
			if rd.err != nil {
				return nil, rd.err
			}
			if err := adoptCounter(adopter, e.inbound); err != nil {
				return nil, err
			}
			for _, f := range []**homo.Ciphertext{&e.sentSum, &e.sentCount} {
				if err := adoptInto(adopter, f); err != nil {
					return nil, err
				}
			}
			c.edges[v] = e
		}
		b.cands = append(b.cands, c)
	}
	if len(b.cands) != len(a.scans) {
		return nil, errors.New("core: snapshot holds more scans than candidates")
	}

	c := res.Controller
	c.clock = rd.int64()
	c.clockLease = rd.int64()
	// The lease bounds every stamp the pre-crash run may have issued;
	// resuming at the lease keeps post-recovery stamps monotone at all
	// neighbours regardless of replay divergence.
	if c.clock < c.clockLease {
		c.clock = c.clockLease
	}
	for i, n := 0, rd.count(); i < n; i++ {
		rule := rd.str()
		var stamps []int64
		for j, m := 0, rd.count(); j < m; j++ {
			stamps = append(stamps, rd.int64())
		}
		c.seen[intern.S(rule)] = &ruleSeen{stamps: stamps}
	}
	var err error
	if c.sendGates, err = readSendGates(rd); err != nil {
		return nil, err
	}
	if c.outGates, err = readOutGates(rd); err != nil {
		return nil, err
	}
	for i, n := 0, rd.count(); i < n; i++ {
		e := AuditEntry{
			Stream: rd.str(), Count: rd.int64(), Num: rd.int64(), Fresh: rd.bool(),
		}
		if version >= 2 {
			e.Rebase = rd.bool()
		}
		c.audit = append(c.audit, e)
	}
	if err := rd.done(); err != nil {
		return nil, err
	}
	return res, nil
}

// --- codec helpers shared with the snapshot format ---

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendRule(dst []byte, r arm.Rule) []byte {
	dst = append(dst, byte(r.Kind))
	dst = appendItemset(dst, r.LHS)
	return appendItemset(dst, r.RHS)
}

func readRule(rd *wireReader) arm.Rule {
	var r arm.Rule
	r.Kind = rd.threshold()
	r.LHS = rd.itemset()
	r.RHS = rd.itemset()
	return r
}

// appendGateState writes one gate's scalar state (shared by both gate
// maps; the caller writes the key).
func appendGateState(dst []byte, g *gateState) []byte {
	dst = binary.AppendVarint(dst, g.Count)
	dst = binary.AppendVarint(dst, g.Num)
	dst = binary.AppendVarint(dst, g.lastCount)
	dst = binary.AppendVarint(dst, g.lastNum)
	var flags byte
	if g.queried {
		flags |= 1
	}
	if g.Freshed {
		flags |= 2
	}
	if g.cached {
		flags |= 4
	}
	return append(dst, flags)
}

func readGateState(rd *wireReader) *gateState {
	g := &gateState{
		Gate:      arm.Gate{Count: rd.int64(), Num: rd.int64()},
		lastCount: rd.int64(), lastNum: rd.int64(),
	}
	flags := rd.byte()
	g.queried = flags&1 != 0
	g.Freshed = flags&2 != 0
	g.cached = flags&4 != 0
	return g
}

// appendSendGates persists the send-gate map under the legacy string
// keys "<rule>#<edge>" (sorted), keeping the snapshot byte format
// identical to the string-keyed implementation.
func appendSendGates(dst []byte, gates map[sendGateKey]*gateState) []byte {
	keys := make([]string, 0, len(gates))
	byKey := make(map[string]*gateState, len(gates))
	for k, g := range gates {
		s := fmt.Sprintf("%s#%d", intern.Str(k.rule), k.edge)
		keys = append(keys, s)
		byKey[s] = g
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, s := range keys {
		dst = appendString(dst, s)
		dst = appendGateState(dst, byKey[s])
	}
	return dst
}

func readSendGates(rd *wireReader) (map[sendGateKey]*gateState, error) {
	gates := map[sendGateKey]*gateState{}
	for i, n := 0, rd.count(); i < n; i++ {
		key := rd.str()
		g := readGateState(rd)
		if rd.err != nil {
			return nil, rd.err
		}
		// Rule keys never contain '#', so the last one separates the
		// edge suffix.
		cut := strings.LastIndexByte(key, '#')
		if cut < 0 {
			return nil, fmt.Errorf("core: malformed send-gate key %q", key)
		}
		edge, err := strconv.Atoi(key[cut+1:])
		if err != nil {
			return nil, fmt.Errorf("core: malformed send-gate key %q: %w", key, err)
		}
		gates[sendGateKey{rule: intern.S(key[:cut]), edge: int32(edge)}] = g
	}
	return gates, rd.err
}

// appendOutGates persists the output-gate map under the legacy rule-
// string keys (sorted).
func appendOutGates(dst []byte, gates map[intern.Sym]*gateState) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(gates)))
	for _, sym := range sortedSymKeys(gates) {
		dst = appendString(dst, intern.Str(sym))
		dst = appendGateState(dst, gates[sym])
	}
	return dst
}

func readOutGates(rd *wireReader) (map[intern.Sym]*gateState, error) {
	gates := map[intern.Sym]*gateState{}
	for i, n := 0, rd.count(); i < n; i++ {
		key := rd.str()
		g := readGateState(rd)
		if rd.err != nil {
			return nil, rd.err
		}
		gates[intern.S(key)] = g
	}
	return gates, rd.err
}

// byte, bool and count extend the wire codec's sticky-error cursor for
// the snapshot format (codec.go owns the core accessors).
func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.rem() < 1 {
		r.fail("truncated snapshot")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *wireReader) bool() bool { return r.byte() != 0 }

// count reads an element count, bounding it by the remaining bytes
// (every element costs at least one byte) so a hostile snapshot cannot
// force an oversized allocation.
func (r *wireReader) count() int {
	n := r.uint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.rem()) {
		r.fail("malformed element count")
		return 0
	}
	return int(n)
}

func sortedIntKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// sortedSymKeys sorts a symbol-keyed map by the interned *strings*:
// symbol numbering depends on process-wide interning order, so only
// the string order is deterministic across runs.
func sortedSymKeys[V any](m map[intern.Sym]V) []intern.Sym {
	keys := make([]intern.Sym, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return intern.Str(keys[i]) < intern.Str(keys[j]) })
	return keys
}
