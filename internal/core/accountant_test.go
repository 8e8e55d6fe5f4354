package core

import (
	"testing"

	"secmr/internal/arm"
	"secmr/internal/homo"
	"secmr/internal/oblivious"
)

// replyFor resolves a drained reply buffer (dense, scan-indexed) back
// to one rule's reply.
func replyFor(a *Accountant, replies []*oblivious.Counter, rule arm.Rule) *oblivious.Counter {
	if replies == nil {
		return nil
	}
	for i, s := range a.scans {
		if s.Rule.Key() == rule.Key() && i < len(replies) {
			return replies[i]
		}
	}
	return nil
}

func mkAccountant(db *arm.Database, budget int, neighbors []int) (*Accountant, homo.Scheme) {
	s := homo.NewPlain(96)
	cfg := Config{ScanBudget: budget}.withDefaults()
	cfg.ScanBudget = budget
	a := newAccountant(1, cfg, s, s, db, nil)
	a.setup(neighbors)
	return a, s
}

func TestAccountantIncrementalCounting(t *testing.T) {
	db := arm.NewDatabase(
		arm.NewItemset(1, 2),
		arm.NewItemset(1),
		arm.NewItemset(1, 2, 3),
		arm.NewItemset(3),
	)
	a, s := mkAccountant(db, 2, []int{7})
	rule := arm.NewRule(arm.NewItemset(1), arm.NewItemset(2), arm.ThresholdConf)
	a.register(rule)

	// Budget 2: after one tick, two transactions scanned.
	a.tick()
	replies := a.drainReplies()
	r := replyFor(a, replies, rule)
	if r == nil {
		t.Fatal("no reply after first tick")
	}
	// First two transactions: both contain {1} (count), one contains
	// {1,2} (sum).
	if got := s.DecryptSigned(r.Count).Int64(); got != 2 {
		t.Fatalf("count after 2 tx = %d", got)
	}
	if got := s.DecryptSigned(r.Sum).Int64(); got != 1 {
		t.Fatalf("sum after 2 tx = %d", got)
	}
	// Complete the scan; totals must match a direct count.
	a.tick()
	r = replyFor(a, a.drainReplies(), rule)
	cl, cb := db.SupportPair(rule.LHS, rule.RHS)
	if got := s.DecryptSigned(r.Count).Int64(); got != int64(cl) {
		t.Fatalf("final count %d want %d", got, cl)
	}
	if got := s.DecryptSigned(r.Sum).Int64(); got != int64(cb) {
		t.Fatalf("final sum %d want %d", got, cb)
	}
	// Nothing more to scan: no replies.
	a.tick()
	if rep := a.drainReplies(); rep != nil {
		t.Fatalf("unexpected replies on a fully scanned static db: %v", rep)
	}
}

func TestAccountantReplyStructure(t *testing.T) {
	db := arm.NewDatabase(arm.NewItemset(1))
	a, s := mkAccountant(db, 10, []int{3, 9})
	rule := arm.NewRule(nil, arm.NewItemset(1), arm.ThresholdFreq)
	a.register(rule)
	a.tick()
	r := replyFor(a, a.drainReplies(), rule)
	if len(r.Stamps) != 3 { // ⊥ + two neighbors
		t.Fatalf("stamp slots = %d", len(r.Stamps))
	}
	if s.DecryptSigned(r.Num).Int64() != 1 {
		t.Fatal("reply num must be 1")
	}
	if s.DecryptSigned(r.Stamps[0]).Int64() != 1 {
		t.Fatal("first reply must carry t=1 in the ⊥ slot")
	}
	for i := 1; i < 3; i++ {
		if s.DecryptSigned(r.Stamps[i]).Sign() != 0 {
			t.Fatal("neighbor slots must be zero in accountant replies")
		}
	}
}

func TestAccountantShareInvariants(t *testing.T) {
	db := arm.NewDatabase(arm.NewItemset(1))
	a, s := mkAccountant(db, 10, []int{3, 9, 12})
	grants := a.setup([]int{3, 9, 12})
	// Σ(grant shares) + ⊥ share == 1.
	sum := a.shareEnc(0)
	for _, g := range grants {
		sum = s.Add(sum, g.Share)
	}
	if got := s.DecryptSigned(sum).Int64(); got != 1 {
		t.Fatalf("share sum = %d, want 1", got)
	}
	// Placeholders carry the right per-slot shares: local + all
	// placeholders must also sum to 1 in the share field.
	total := a.localPlaceholder().Share
	for _, v := range []int{3, 9, 12} {
		total = s.Add(total, a.placeholderFor(v).Share)
	}
	if got := s.DecryptSigned(total).Int64(); got != 1 {
		t.Fatalf("placeholder share sum = %d, want 1", got)
	}
}

func TestAccountantRedealChangesEpochAndKeepsInvariant(t *testing.T) {
	db := arm.NewDatabase(arm.NewItemset(1))
	a, s := mkAccountant(db, 10, []int{3})
	e1 := a.epoch
	grants := a.addNeighbor(9)
	if a.epoch != e1+1 {
		t.Fatalf("epoch %d want %d", a.epoch, e1+1)
	}
	if len(grants) != 2 {
		t.Fatalf("redeal must grant all neighbours, got %d", len(grants))
	}
	if grants[9].NumSlots != 3 || grants[9].Epoch != a.epoch {
		t.Fatalf("new grant wrong: %+v", grants[9])
	}
	sum := a.shareEnc(0)
	for _, g := range grants {
		sum = s.Add(sum, g.Share)
	}
	if got := s.DecryptSigned(sum).Int64(); got != 1 {
		t.Fatalf("post-redeal share sum = %d", got)
	}
	if a.slotFor(9) != 2 {
		t.Fatalf("new neighbour slot = %d", a.slotFor(9))
	}
}

func TestAccountantFeedGrowth(t *testing.T) {
	s := homo.NewPlain(96)
	cfg := Config{ScanBudget: 100, GrowthPerStep: 3}.withDefaults()
	cfg.GrowthPerStep = 3
	feed := []arm.Transaction{
		arm.NewItemset(1), arm.NewItemset(1), arm.NewItemset(1),
		arm.NewItemset(1), arm.NewItemset(1),
	}
	a := newAccountant(1, cfg, s, s, &arm.Database{}, NewSliceFeed(feed))
	a.setup(nil)
	rule := arm.NewRule(nil, arm.NewItemset(1), arm.ThresholdFreq)
	a.register(rule)
	a.tick()
	if a.db.Len() != 3 {
		t.Fatalf("db len %d after first tick", a.db.Len())
	}
	a.tick()
	if a.db.Len() != 5 {
		t.Fatalf("feed not exhausted correctly: %d", a.db.Len())
	}
	r := replyFor(a, a.drainReplies(), rule)
	if got := s.DecryptSigned(r.Count).Int64(); got != 5 {
		t.Fatalf("count %d want 5", got)
	}
}
