package core

import (
	"math/big"
	mrand "math/rand"
	"testing"

	"secmr/internal/homo"
	"secmr/internal/intern"
	"secmr/internal/oblivious"
	"secmr/internal/shamir"
)

// mkController builds a controller over the plain scheme with k.
func mkController(k int64) (*Controller, homo.Scheme) {
	s := homo.NewPlain(96)
	cfg := Config{K: k}.withDefaults()
	cfg.K = k
	return newController(0, cfg, s, s, s), s
}

// counter builds a full-neighbourhood counter with the given fields.
func counter(s homo.Scheme, sum, cnt, num, share int64, stamps ...int64) *oblivious.Counter {
	c := &oblivious.Counter{
		Sum:   s.EncryptInt(sum),
		Count: s.EncryptInt(cnt),
		Num:   s.EncryptInt(num),
		Share: s.EncryptInt(share),
	}
	for _, t := range stamps {
		c.Stamps = append(c.Stamps, s.EncryptInt(t))
	}
	return c
}

func neighborAt(slot int) int { return 100 + slot }

func TestOutputDecisionCachesAcrossGate(t *testing.T) {
	ctl, s := mkController(3)
	rng := mrand.New(mrand.NewSource(1))
	// First query: Δ=+1 over cnt=10, num=3 → fresh, true.
	full := counter(s, 6, 10, 3, 1, 1, 0)
	du := oblivious.Blind(s, s.EncryptInt(1), 8, rng)
	correct, ok := ctl.OutputDecision(intern.S("r"), full, du, neighborAt)
	if !ok || !correct {
		t.Fatalf("first: correct=%v ok=%v", correct, ok)
	}
	// Second query with tiny growth and Δ now negative: the gate is
	// closed, so the cached TRUE must stand (data independence).
	full2 := counter(s, 6, 11, 3, 1, 2, 0)
	duNeg := oblivious.Blind(s, s.EncryptInt(-5), 8, rng)
	correct, ok = ctl.OutputDecision(intern.S("r"), full2, duNeg, neighborAt)
	if !ok || !correct {
		t.Fatalf("gated: correct=%v ok=%v (cache must persist)", correct, ok)
	}
	// Third: enough growth → fresh negative answer.
	full3 := counter(s, 6, 14, 3, 1, 3, 0)
	correct, ok = ctl.OutputDecision(intern.S("r"), full3, oblivious.Blind(s, s.EncryptInt(-5), 8, rng), neighborAt)
	if !ok || correct {
		t.Fatalf("fresh negative: correct=%v ok=%v", correct, ok)
	}
	if got := ctl.PeekOutput(intern.S("r")); got {
		t.Fatal("peek should reflect the fresh negative answer")
	}
	if ctl.PeekOutput(intern.S("unknown-rule")) {
		t.Fatal("unknown rule should peek false")
	}
}

func TestVerifyShareViolation(t *testing.T) {
	ctl, s := mkController(1)
	rng := mrand.New(mrand.NewSource(2))
	bad := counter(s, 1, 5, 2, 7 /* share != 1 */, 1, 0)
	_, ok := ctl.OutputDecision(intern.S("r"), bad, oblivious.Blind(s, s.EncryptInt(1), 8, rng), neighborAt)
	if ok {
		t.Fatal("share violation not flagged")
	}
	rep, bad2 := ctl.takeReport()
	if !bad2 || rep.Accused != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if _, again := ctl.takeReport(); again {
		t.Fatal("report not consumed")
	}
	if ctl.Stats().Violations != 1 {
		t.Fatal("violation not counted")
	}
}

func TestVerifyTimestampReplay(t *testing.T) {
	ctl, s := mkController(1)
	rng := mrand.New(mrand.NewSource(3))
	// Establish stamps (acct=1, neighbor slot=5).
	good := counter(s, 1, 5, 2, 1, 1, 5)
	if _, ok := ctl.OutputDecision(intern.S("r"), good, oblivious.Blind(s, s.EncryptInt(1), 8, rng), neighborAt); !ok {
		t.Fatal("good counter rejected")
	}
	// Same rule, neighbor stamp regressed to 3 < 5: replay.
	stale := counter(s, 2, 9, 2, 1, 2, 3)
	if _, ok := ctl.OutputDecision(intern.S("r"), stale, oblivious.Blind(s, s.EncryptInt(1), 8, rng), neighborAt); ok {
		t.Fatal("stale stamp accepted")
	}
	rep, bad := ctl.takeReport()
	if !bad || rep.Accused != neighborAt(1) {
		t.Fatalf("replay must accuse the stale slot's resource: %+v", rep)
	}
	// Stamps are tracked per rule: the same stamp values on another
	// rule are fine.
	other := counter(s, 1, 5, 2, 1, 1, 3)
	if _, ok := ctl.OutputDecision(intern.S("r2"), other, oblivious.Blind(s, s.EncryptInt(1), 8, rng), neighborAt); !ok {
		t.Fatal("per-rule stamp tracking broken")
	}
}

func TestSendDecisionFirstContactAndSuppression(t *testing.T) {
	ctl, s := mkController(3)
	rng := mrand.New(mrand.NewSource(4))
	blind := func(v int64) *homo.Ciphertext { return oblivious.Blind(s, s.EncryptInt(v), 8, rng) }
	full := counter(s, 1, 2, 1, 1, 1, 0)
	// First contact always sends; the payload is stamped for the
	// recipient's slot space.
	send, ok := ctl.SendDecision(intern.S("r"), 7, full, blind(0), blind(0), true, neighborAt)
	stamps := ctl.outgoingStamps(nil, 4, 2)
	if !ok || !send || len(stamps) != 4 {
		t.Fatalf("first contact: send=%v stamps=%d ok=%v", send, len(stamps), ok)
	}
	// The recipient-slot stamp must carry the clock; others zero.
	if s.DecryptSigned(stamps[2]).Int64() == 0 {
		t.Fatal("designated slot carries no timestamp")
	}
	if s.DecryptSigned(stamps[0]).Int64() != 0 {
		t.Fatal("non-designated slot nonzero")
	}
	// Unchanged totals: suppressed.
	send, ok = ctl.SendDecision(intern.S("r"), 7, counter(s, 1, 2, 1, 1, 2, 0), blind(0), blind(0), false, neighborAt)
	if !ok || send {
		t.Fatalf("unchanged totals must be suppressed: send=%v", send)
	}
	if ctl.Stats().Suppressed != 1 {
		t.Fatal("suppression not counted")
	}
	// Changed but sub-k growth: the data-independent default (send).
	send, ok = ctl.SendDecision(intern.S("r"), 7, counter(s, 2, 3, 2, 1, 3, 0), blind(9), blind(9), false, neighborAt)
	if !ok || !send {
		t.Fatalf("in-gate default must be send: send=%v", send)
	}
}

func TestSendDecisionFreshUsesMajorityCondition(t *testing.T) {
	ctl, s := mkController(2)
	rng := mrand.New(mrand.NewSource(5))
	blind := func(v int64) *homo.Ciphertext { return oblivious.Blind(s, s.EncryptInt(v), 8, rng) }
	// First contact bootstraps.
	ctl.SendDecision(intern.S("r"), 7, counter(s, 1, 2, 1, 1, 1, 0), blind(0), blind(0), true, neighborAt)
	// Growth ≥ k in both: fresh evaluation of the §4.1 condition.
	// Δuv = +5, Δuv − Δu = +3 → (Δuv ≥ 0 ∧ Δuv > Δu) → send.
	send, ok := ctl.SendDecision(intern.S("r"), 7, counter(s, 4, 6, 3, 1, 2, 0), blind(5), blind(3), false, neighborAt)
	if !ok || !send {
		t.Fatalf("positive-overshoot must send: %v", send)
	}
	// Again with growth: Δuv = +5, diff = −3 → condition false.
	send, ok = ctl.SendDecision(intern.S("r"), 7, counter(s, 9, 11, 5, 1, 3, 0), blind(5), blind(-3), false, neighborAt)
	if !ok || send {
		t.Fatalf("agreeing edge must not send: %v", send)
	}
	// Negative branch: Δuv = −5, diff = −2 (Δuv < Δu) → send.
	send, ok = ctl.SendDecision(intern.S("r"), 7, counter(s, 12, 16, 7, 1, 4, 0), blind(-5), blind(-2), false, neighborAt)
	if !ok || !send {
		t.Fatalf("negative-overshoot must send: %v", send)
	}
}

func TestLamportClockMonotone(t *testing.T) {
	ctl, s := mkController(1)
	prev := int64(0)
	for i := 0; i < 5; i++ {
		stamps := ctl.outgoingStamps(nil, 2, 1)
		v := s.DecryptSigned(stamps[1]).Int64()
		if v <= prev {
			t.Fatalf("clock not strictly increasing: %d then %d", prev, v)
		}
		prev = v
	}
}

// countingDec counts the decrypts made through it. Embedding the
// homo.Scheme interface hides any DecryptSignedInto capability, so every
// controller read lands in DecryptSigned.
type countingDec struct {
	homo.Scheme
	n int
}

func (d *countingDec) Decrypt(c *homo.Ciphertext) *big.Int {
	d.n++
	return d.Scheme.Decrypt(c)
}

func (d *countingDec) DecryptSigned(c *homo.Ciphertext) *big.Int {
	d.n++
	return d.Scheme.DecryptSigned(c)
}

// mkCountingController is mkController with its decrypts counted.
func mkCountingController(k int64) (*Controller, homo.Scheme, *countingDec) {
	s := homo.NewPlain(96)
	dec := &countingDec{Scheme: s}
	cfg := Config{K: k}.withDefaults()
	cfg.K = k
	return newController(0, cfg, dec, s, s), s, dec
}

// decrypts returns how many decrypts f made through dec.
func decrypts(dec *countingDec, f func()) int {
	before := dec.n
	f()
	return dec.n - before
}

// TestVerifiedCounterSkipsRepeatDecrypts: a full counter equal, field by
// field, to the last one that passed verification is not decrypted
// again. The second SendDecision on the same counter (the broker's next
// dirty edge of the candidate) decrypts only its two blinded signs, and
// answers as the first did.
func TestVerifiedCounterSkipsRepeatDecrypts(t *testing.T) {
	ctl, s, dec := mkCountingController(2)
	rng := mrand.New(mrand.NewSource(6))
	blind := func(v int64) *homo.Ciphertext { return oblivious.Blind(s, s.EncryptInt(v), 8, rng) }
	full := counter(s, 4, 10, 3, 1, 2, 7)
	var send [2]bool
	n := decrypts(dec, func() {
		send[0], _ = ctl.SendDecision(intern.S("r"), 7, full, blind(5), blind(3), false, neighborAt)
	})
	if want := 1 + 2 + 2 + 2; n != want { // share, stamps, count and num, signs
		t.Fatalf("first SFE: %d decrypts, want %d", n, want)
	}
	n = decrypts(dec, func() {
		send[1], _ = ctl.SendDecision(intern.S("r"), 8, full, blind(5), blind(3), false, neighborAt)
	})
	if n != 2 {
		t.Fatalf("repeat SFE on the same full counter: %d decrypts, want the 2 blinded signs", n)
	}
	if !send[0] || !send[1] {
		t.Fatalf("answers %v, want both fresh sends", send)
	}
	if st := ctl.Stats(); st.SFEs != 2 || st.FreshDecisions != 2 || st.Violations != 0 {
		t.Fatalf("stats %+v", st)
	}
	// The memo is per rule: the same ciphertexts under another rule are
	// verified in full.
	if n := decrypts(dec, func() {
		ctl.SendDecision(intern.S("r2"), 7, full, blind(5), blind(3), true, neighborAt)
	}); n != 5 {
		t.Fatalf("same counter, other rule: %d decrypts, want 5", n)
	}
}

// TestVerifiedCounterFieldChangeTakesFullPath: a fresh encryption of the
// same plaintext in any one field — share, count, num or a stamp — is a
// different counter, verified in full.
func TestVerifiedCounterFieldChangeTakesFullPath(t *testing.T) {
	ctl, s, dec := mkCountingController(1)
	rule := intern.S("r")
	base := counter(s, 4, 10, 3, 1, 2, 7)
	first := func(edge int, full *oblivious.Counter) int {
		return decrypts(dec, func() {
			if _, ok := ctl.SendDecision(rule, edge, full, s.EncryptZero(), s.EncryptZero(), true, neighborAt); !ok {
				t.Fatalf("edge %d: verification failed", edge)
			}
		})
	}
	if n := first(1, base); n != 5 {
		t.Fatalf("first counter: %d decrypts, want 5", n)
	}
	if n := first(2, base); n != 0 {
		t.Fatalf("same counter again: %d decrypts, want 0", n)
	}
	for i := 0; i < 3+len(base.Stamps); i++ {
		c := *base
		c.Stamps = append([]*homo.Ciphertext(nil), base.Stamps...)
		f := counterField(&c, i)
		fresh := s.EncryptInt(s.DecryptSigned(f).Int64())
		switch i {
		case 0:
			c.Share = fresh
		case 1:
			c.Count = fresh
		case 2:
			c.Num = fresh
		default:
			c.Stamps[i-3] = fresh
		}
		if n := first(10+i, &c); n != 5 {
			t.Fatalf("field %d re-encrypted: %d decrypts, want the full 5", i, n)
		}
		// Back to base: the memo now holds c, so base is new again.
		if n := first(20+i, base); n != 5 {
			t.Fatalf("base after field %d: %d decrypts, want 5", i, n)
		}
	}
}

// TestVerifiedCounterReplayStillCaught: an older counter submitted after
// a newer one misses the memo and raises the stale-stamp report, also
// when an SFE on another rule came in between: that controller raises
// the report and violation count of one without it.
func TestVerifiedCounterReplayStillCaught(t *testing.T) {
	a, b := intern.S("a"), intern.S("b")
	run := func(intervene bool) (MaliciousReport, ControllerStats) {
		ctl, s, _ := mkCountingController(1)
		rng := mrand.New(mrand.NewSource(7))
		blind := func() *homo.Ciphertext { return oblivious.Blind(s, s.EncryptInt(1), 8, rng) }
		old := counter(s, 1, 5, 2, 1, 1, 5)
		newer := counter(s, 2, 9, 2, 1, 1, 6)
		for _, full := range []*oblivious.Counter{old, old, newer} {
			if _, ok := ctl.OutputDecision(a, full, blind(), neighborAt); !ok {
				t.Fatal("honest counter rejected")
			}
		}
		if intervene {
			if _, ok := ctl.OutputDecision(b, counter(s, 3, 7, 2, 1, 1, 4), blind(), neighborAt); !ok {
				t.Fatal("honest counter on b rejected")
			}
		}
		if _, ok := ctl.OutputDecision(a, old, blind(), neighborAt); ok {
			t.Fatalf("replayed counter accepted (b in between: %v)", intervene)
		}
		rep, bad := ctl.takeReport()
		if !bad {
			t.Fatalf("no report (b in between: %v)", intervene)
		}
		return rep, ctl.Stats()
	}
	want, wantSt := run(false)
	if want.Accused != neighborAt(1) || wantSt.Violations != 1 {
		t.Fatalf("replay report %+v, violations %d", want, wantSt.Violations)
	}
	if rep, st := run(true); rep != want || st.Violations != wantSt.Violations {
		t.Fatalf("with b in between: report %+v, violations %d; without: %+v, %d", rep, st.Violations, want, wantSt.Violations)
	}
}

// TestVerifiedCounterOutputAfterOtherRule: the memo is one entry per
// rule, so another candidate's send SFE between a rule's send SFE and its
// Output SFE (the order of a broker's tick) leaves the rule's entry in
// place. The Output SFE on the unchanged counter decrypts only its blinded
// sign, and answers as a fresh evaluation.
func TestVerifiedCounterOutputAfterOtherRule(t *testing.T) {
	ctl, s, dec := mkCountingController(2)
	rng := mrand.New(mrand.NewSource(8))
	blind := func(v int64) *homo.Ciphertext { return oblivious.Blind(s, s.EncryptInt(v), 8, rng) }
	a, b := intern.S("a"), intern.S("b")
	fullA := counter(s, 4, 10, 3, 1, 2, 7)
	fullB := counter(s, 6, 12, 4, 1, 3, 8)
	if _, ok := ctl.SendDecision(a, 7, fullA, blind(5), blind(3), false, neighborAt); !ok {
		t.Fatal("send SFE on a: verification failed")
	}
	if _, ok := ctl.SendDecision(b, 7, fullB, blind(5), blind(3), false, neighborAt); !ok {
		t.Fatal("send SFE on b: verification failed")
	}
	var correct, ok bool
	n := decrypts(dec, func() { correct, ok = ctl.OutputDecision(a, fullA, blind(5), neighborAt) })
	if !ok || !correct {
		t.Fatalf("output SFE on a: correct=%v ok=%v, want a fresh true", correct, ok)
	}
	if n != 1 {
		t.Fatalf("output SFE on a's unchanged counter: %d decrypts, want the 1 blinded sign", n)
	}
	if st := ctl.Stats(); st.SFEs != 3 || st.FreshDecisions != 3 || st.Violations != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestVerifiedCounterClearedOnEvict: an eviction re-slots every stamp
// vector and re-anchors the gates, so no rule's memo may survive it.
func TestVerifiedCounterClearedOnEvict(t *testing.T) {
	e, resources, _ := buildSecureGrid(t, homo.NewPlain(96), 4, 1, 3, nil, nil)
	e.Run(30)
	memos := func(c *Controller) (n int) {
		for _, rs := range c.seen {
			if len(rs.last.words) > 0 {
				n++
			}
		}
		return n
	}
	for _, r := range resources {
		if len(r.Broker.neighbors) < 2 {
			continue
		}
		if memos(r.Broker.ctl) < 2 {
			t.Fatalf("resource %d: %d rules with a verified counter after 30 steps, want several", r.ID, memos(r.Broker.ctl))
		}
		r.Broker.onNeighborEvict(r.Broker.neighbors[0])
		if n := memos(r.Broker.ctl); n != 0 {
			t.Fatalf("resource %d: %d verified counters survived an eviction", r.ID, n)
		}
		return
	}
	t.Fatal("no resource with two neighbours")
}

// TestSecureStepDecryptCount pins the exact number of decrypts a seeded
// grid's controllers make over a fixed run, beside its SFE count: a
// verification the memo should have answered shows up here as a
// deterministic count, not as benchmark noise. The grid runs on Shamir,
// whose adds are deterministic, so a broker's full counter repeats field
// for field while its inputs stand, as under Paillier; Plain draws a
// fresh nonce per op and would never repeat one. The run is serial
// (sim.NewEngine) and the protocol draws no randomness from the scheme,
// so which counters repeat is fixed by the seed.
func TestSecureStepDecryptCount(t *testing.T) {
	const (
		steps        = 200
		wantSFEs     = 38177
		wantDecrypts = 135745
	)
	dec := &countingDec{Scheme: shamir.MustNew(shamir.Params{K: 2, N: 5, W: 1})}
	e, resources, _ := buildSecureGrid(t, dec, 6, 2, 1, nil, nil)
	e.Run(steps)
	var sfes int64
	for _, r := range resources {
		sfes += r.Controller.Stats().SFEs
	}
	t.Logf("%d steps: %d SFEs, %d decrypts", steps, sfes, dec.n)
	if sfes != wantSFEs || dec.n != wantDecrypts {
		t.Fatalf("%d steps: %d SFEs and %d decrypts, want %d and %d", steps, sfes, dec.n, wantSFEs, wantDecrypts)
	}
}
