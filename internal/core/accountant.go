package core

import (
	"math/rand"

	"secmr/internal/arm"
	"secmr/internal/homo"
	"secmr/internal/oblivious"
)

// Accountant implements Algorithm 2: it guards the local database
// partition, counts candidate support incrementally (ScanBudget
// transactions per step per rule), and emits encrypted replies that a
// broker cannot read or forge. The accountant is trusted to answer
// queries correctly even when observed by an attacker (§3's attack
// model: accountants can be monitored but must return correct,
// encrypted outputs).
type Accountant struct {
	id  int
	cfg Config
	enc homo.Encryptor
	pub homo.Public

	db   *arm.Database
	feed Feed // dynamic growth source; nil = static database

	// shares: plaintext share values per slot (slot 0 = ⊥/self). The
	// accountant keeps plaintexts so it can re-issue encryptions for
	// late-created candidates' placeholder counters. epoch counts share
	// dealings: every neighbourhood change re-deals all shares
	// (Algorithm 2: "On initialization or on change in N_t^u"), and
	// counters from different dealings must never be mixed.
	shareVals []int64
	epoch     int
	slotOf    map[int]int // neighbor id -> slot (≥1)
	neighbors []int

	// per-rule scan state, in registration order: scans[i] is the
	// broker's candidate i (its table position). A dense slice instead
	// of a string-keyed map: at mega-grid scale the per-tick walk is a
	// linear slice scan.
	scans []*scanState

	// t is the Algorithm 2 reply counter (the accountant's logical
	// clock for the ⊥ timestamp slot).
	t int64

	// replies staged for the broker this step (the accountant→broker
	// hop; drained by the broker, possibly one step later under
	// IntraDelay). Parallel to scans (nil = nothing staged); nReplies
	// counts the non-nil entries, and replySpare is the drained buffer
	// handed back by recycleReplies so steady-state staging allocates
	// nothing.
	replies    []*oblivious.Counter
	nReplies   int
	replySpare []*oblivious.Counter
}

// scanState is one rule's Algorithm 2 vote (arm.Tally) plus the
// accountant's reply bookkeeping for it.
type scanState struct {
	arm.Tally
	// spare is the ⊥ counter the broker's last applied reply for this
	// scan superseded (supersede), and the storage the next reply is
	// dealt into. That counter is never published — messages carry
	// rerandomised sums, never the ⊥ counter itself — so once replaced
	// its ciphertexts are nobody else's. A tick that stages no reply
	// drops it.
	spare *oblivious.Counter
}

func newAccountant(id int, cfg Config, enc homo.Encryptor, pub homo.Public, local *arm.Database, feed Feed) *Accountant {
	return &Accountant{
		id: id, cfg: cfg, enc: enc, pub: pub,
		db: local, feed: feed,
		slotOf: map[int]int{},
	}
}

// dealingSeed derives the RNG seed for one share dealing. Each dealing
// is a deterministic function of (resource id, epoch) so that a
// resource recovering from a snapshot and replaying its event log
// (internal/persist) re-creates every dealing bit-for-bit: the grants
// live neighbours still hold must match the replayed share vector or
// the Σshares = 1 verification would raise false malicious reports.
func dealingSeed(id, epoch int) int64 {
	return int64(id)*7919 + 13 + int64(epoch)*1_000_003
}

// setup creates the shares for this resource's neighbourhood and
// returns the grant each neighbour must receive (Algorithm 2: "Create
// and distribute random shares such that Σ D(share) = 1").
func (a *Accountant) setup(neighbors []int) map[int]ShareGrant {
	a.neighbors = append([]int(nil), neighbors...)
	for i, v := range neighbors {
		a.slotOf[v] = i + 1
	}
	return a.redeal()
}

// redeal draws a fresh share vector summing to 1 over the current
// neighbourhood and returns the grant for every neighbour. The draw is
// seeded from (id, epoch) — see dealingSeed.
func (a *Accountant) redeal() map[int]ShareGrant {
	a.epoch++
	rng := rand.New(rand.NewSource(dealingSeed(a.id, a.epoch)))
	n := len(a.neighbors) + 1 // slot 0 is ⊥
	a.shareVals = make([]int64, n)
	acc := int64(0)
	for i := 1; i < n; i++ {
		v := rng.Int63n(1 << 40)
		a.shareVals[i] = v
		acc += v
	}
	a.shareVals[0] = 1 - acc
	// Undrained replies were built under the previous dealing (stale
	// share, short stamp vector); rebuild them from the scan totals.
	for i, r := range a.replies {
		if r != nil {
			a.replies[i] = a.reply(a.scans[i])
		}
	}
	grants := make(map[int]ShareGrant, len(a.neighbors))
	for _, v := range a.neighbors {
		grants[v] = ShareGrant{
			Share:    a.enc.EncryptInt(a.shareVals[a.slotOf[v]]),
			Slot:     a.slotOf[v],
			NumSlots: n,
			Epoch:    a.epoch,
		}
	}
	return grants
}

// addNeighbor grows the neighbourhood by one resource and re-deals the
// shares; the returned grants (including the new neighbour's) must be
// distributed, and the broker must swap the share fields of every
// stored counter via shareEnc.
func (a *Accountant) addNeighbor(v int) map[int]ShareGrant {
	if _, ok := a.slotOf[v]; ok {
		return a.redeal()
	}
	a.neighbors = append(a.neighbors, v)
	a.slotOf[v] = len(a.neighbors)
	return a.redeal()
}

// removeNeighbor shrinks the neighbourhood by one resource and
// re-deals the shares over the survivors. Slots are re-assigned
// positionally (survivors keep their relative order), so the broker
// can permute stored stamp vectors old-slot → new-slot. The returned
// grants must be distributed to every surviving neighbour.
func (a *Accountant) removeNeighbor(v int) map[int]ShareGrant {
	if _, ok := a.slotOf[v]; !ok {
		return a.redeal()
	}
	keep := a.neighbors[:0]
	for _, w := range a.neighbors {
		if w != v {
			keep = append(keep, w)
		}
	}
	a.neighbors = keep
	a.slotOf = make(map[int]int, len(a.neighbors))
	for i, w := range a.neighbors {
		a.slotOf[w] = i + 1
	}
	return a.redeal()
}

// expectedShare exposes the dealt plaintext share for one slot (0 is
// ⊥) — the quarantine attribution capability: the controller compares
// it against each part's attached share to pin a share-sum violation
// on the forging slot.
func (a *Accountant) expectedShare(slot int) (int64, bool) {
	if slot < 0 || slot >= len(a.shareVals) {
		return 0, false
	}
	return a.shareVals[slot], true
}

// currentGrants re-issues every neighbour's grant under the *current*
// dealing — same epoch, same share values, fresh encryptions. Used by
// the LossyLinks recovery: grants are single-shot at bootstrap, so a
// dropped one would otherwise leave the edge ungranted forever.
func (a *Accountant) currentGrants() map[int]ShareGrant {
	grants := make(map[int]ShareGrant, len(a.neighbors))
	for _, v := range a.neighbors {
		grants[v] = ShareGrant{
			Share:    a.enc.EncryptInt(a.shareVals[a.slotOf[v]]),
			Slot:     a.slotOf[v],
			NumSlots: a.numSlots(),
			Epoch:    a.epoch,
		}
	}
	return grants
}

// shareEnc returns a fresh encryption of the current share for a slot
// (0 = ⊥); the broker uses it to re-bind stored counters to the
// current dealing after a join.
func (a *Accountant) shareEnc(slot int) *homo.Ciphertext {
	return a.enc.EncryptInt(a.shareVals[slot])
}

// slotFor exposes a neighbour's stamp slot.
func (a *Accountant) slotFor(v int) int { return a.slotOf[v] }

// numSlots returns the size of this resource's timestamp vector.
func (a *Accountant) numSlots() int { return len(a.neighbors) + 1 }

// placeholderFor builds the initial zero counter for an inbound edge,
// carrying the neighbour's share so the full-neighbourhood share
// invariant (Σ = 1) holds from step zero, before the neighbour's first
// real message arrives.
func (a *Accountant) placeholderFor(v int) *oblivious.Counter {
	return a.placeholder(a.shareVals[a.slotOf[v]])
}

// localPlaceholder builds the initial ⊥ counter for a fresh candidate:
// zero values carrying the accountant's own share, so full sums verify
// before the first reply.
func (a *Accountant) localPlaceholder() *oblivious.Counter {
	return a.placeholder(a.shareVals[0])
}

// placeholder builds a counter of encrypted zeros carrying share: one
// batch of 3+slots zeros for the value and stamp fields, and the share
// encrypted once, rather than a zero drawn for it and overwritten.
func (a *Accountant) placeholder(share int64) *oblivious.Counter {
	z := homo.EncryptZeroVec(a.pub, 3+a.numSlots())
	return &oblivious.Counter{Sum: z[0], Count: z[1], Num: z[2], Share: a.enc.EncryptInt(share), Stamps: z[3:]}
}

// encryptedOne provisions an E(1) for the broker's padding dance
// (Algorithm 1 has the broker assign s±E(1); the encryption itself
// must come from a key holder).
func (a *Accountant) encryptedOne() *homo.Ciphertext { return a.enc.EncryptInt(1) }

// register starts counting support for the broker's next candidate.
func (a *Accountant) register(rule arm.Rule) {
	a.scans = append(a.scans, &scanState{Tally: arm.NewTally(rule)})
	a.replies = append(a.replies, nil)
}

// tick performs one step of Algorithm 2's cyclic reading: grow the
// database from the feed, then advance every candidate's counters by
// up to ScanBudget transactions, staging an encrypted reply for each
// rule whose counters changed.
func (a *Accountant) tick() {
	a.db.Absorb(a.feed, a.cfg.GrowthPerStep)
	for i, s := range a.scans {
		if s.Advance(a.db, a.cfg.ScanBudget) {
			a.stage(i)
		}
		s.spare = nil
	}
}

// stage (re)stages a reply for scan index i.
func (a *Accountant) stage(i int) {
	if a.replies[i] == nil {
		a.nReplies++
	}
	a.replies[i] = a.reply(a.scans[i])
}

// reply encrypts the rule's current totals as the ⊥ counter: the
// share field carries the accountant's own share and the timestamp
// vector carries E(t) in slot ⊥ (Algorithm 2's message structure).
// With a spare the encryptions are dealt into its storage.
func (a *Accountant) reply(s *scanState) *oblivious.Counter {
	a.t++
	if c := s.spare; c != nil {
		s.spare = nil
		return a.replyInto(c, s)
	}
	c := &oblivious.Counter{
		Sum:    a.enc.EncryptInt(s.Sum),
		Count:  a.enc.EncryptInt(s.Count),
		Num:    a.enc.EncryptInt(1),
		Share:  a.enc.EncryptInt(a.shareVals[0]),
		Stamps: make([]*homo.Ciphertext, a.numSlots()),
	}
	c.Stamps[0] = a.enc.EncryptInt(a.t)
	for i := 1; i < len(c.Stamps); i++ {
		c.Stamps[i] = a.pub.EncryptZero()
	}
	return c
}

// replyInto is reply dealt into c, a superseded ⊥ counter; stamp slots
// that a join or an eviction added or removed since are resized.
func (a *Accountant) replyInto(c *oblivious.Counter, s *scanState) *oblivious.Counter {
	enc := func(dst *homo.Ciphertext, m int64) *homo.Ciphertext { return homo.EncryptIntInto(a.enc, dst, m) }
	c.Sum = enc(c.Sum, s.Sum)
	c.Count = enc(c.Count, s.Count)
	c.Num = enc(c.Num, 1)
	c.Share = enc(c.Share, a.shareVals[0])
	if n := a.numSlots(); len(c.Stamps) != n {
		stamps := make([]*homo.Ciphertext, n)
		copy(stamps, c.Stamps)
		c.Stamps = stamps
	}
	c.Stamps[0] = enc(c.Stamps[0], a.t)
	for i := 1; i < len(c.Stamps); i++ {
		c.Stamps[i] = enc(c.Stamps[i], 0)
	}
	return c
}

// supersede hands the accountant the ⊥ counter a reply for scan i just
// replaced. Behind an encryptor that deals into a destination the scan's
// next reply is dealt into its storage; behind any other a spare would
// save nothing, so none is kept.
func (a *Accountant) supersede(i int, old *oblivious.Counter) {
	if _, ok := a.enc.(homo.IntoEncryptor); ok {
		a.scans[i].spare = old
	}
}

// drainReplies hands staged replies to the broker as a dense slice
// parallel to the scan table (index i belongs to a.scans[i]; nil =
// nothing staged). The scan table is append-only, so the indices stay
// valid even if candidates are added before the buffer is consumed.
// The consumer should hand the buffer back via recycleReplies.
func (a *Accountant) drainReplies() []*oblivious.Counter {
	if a.nReplies == 0 {
		return nil
	}
	out := a.replies
	spare := a.replySpare
	a.replySpare = nil
	for len(spare) < len(a.scans) {
		spare = append(spare, nil)
	}
	a.replies = spare
	a.nReplies = 0
	return out
}

// recycleReplies returns a fully consumed drainReplies buffer for
// reuse.
func (a *Accountant) recycleReplies(buf []*oblivious.Counter) {
	if buf == nil || a.replySpare != nil {
		return
	}
	for i := range buf {
		buf[i] = nil
	}
	a.replySpare = buf
}
