package core

import (
	"crypto/rand"
	mrand "math/rand"
	"testing"

	"secmr/internal/arm"
	"secmr/internal/faults"
	"secmr/internal/hashing"
	"secmr/internal/homo"
	"secmr/internal/metrics"
	"secmr/internal/paillier"
	"secmr/internal/quest"
	"secmr/internal/sim"
	"secmr/internal/topology"
)

const testMaxRuleItems = 3

// testScheme is a shared small Paillier instance; key generation is the
// slow part.
var testPaillier = mustPaillier()

func mustPaillier() *paillier.Scheme {
	s, err := paillier.GenerateKey(rand.Reader, 128)
	if err != nil {
		panic(err)
	}
	return s
}

// buildSecureGrid assembles n secure resources over a Quest database.
func buildSecureGrid(t testing.TB, scheme homo.Scheme, n int, k int64, seed int64,
	mutate func(cfg *Config), advFor func(id int) Adversary) (*sim.Engine, []*Resource, arm.RuleSet) {
	t.Helper()
	rng := mrand.New(mrand.NewSource(seed))
	params := quest.Params{NumTransactions: n * 150, NumItems: 25, NumPatterns: 10,
		AvgTransLen: 5, AvgPatternLen: 2, Seed: seed}
	global := quest.Generate(params)
	th := arm.Thresholds{MinFreq: 0.15, MinConf: 0.7}
	universe := arm.Itemset{}
	for i := 0; i < params.NumItems; i++ {
		universe = append(universe, arm.Item(i))
	}
	truth := arm.GroundTruth(global, th, universe, testMaxRuleItems)
	parts := hashing.Partition(global, n, rng)
	tree := topology.RandomTree(n, topology.DelayRange{Min: 1, Max: 2}, rng)
	cfg := Config{Th: th, Universe: universe, ScanBudget: 50, CandidateEvery: 5,
		K: k, MaxRuleItems: testMaxRuleItems, IntraDelay: true}
	if mutate != nil {
		mutate(&cfg)
	}
	resources := make([]*Resource, n)
	nodes := make([]sim.Node, n)
	for i := 0; i < n; i++ {
		var adv Adversary
		if advFor != nil {
			adv = advFor(i)
		}
		resources[i] = NewResource(i, cfg, scheme, parts[i], nil, adv)
		nodes[i] = resources[i]
	}
	return sim.NewEngine(tree, nodes, seed), resources, truth
}

func avgQuality(resources []*Resource, truth arm.RuleSet) (float64, float64) {
	outs := make([]arm.RuleSet, len(resources))
	for i, r := range resources {
		outs[i] = r.Output()
	}
	return metrics.Average(outs, truth)
}

func TestSecureMiningConvergesPlainScheme(t *testing.T) {
	scheme := homo.NewPlain(96)
	e, resources, truth := buildSecureGrid(t, scheme, 6, 3, 1, nil, nil)
	rec, prec := 0.0, 0.0
	for step := 0; step < 1500; step += 50 {
		e.Run(50)
		if rec, prec = avgQuality(resources, truth); rec >= 0.9 && prec >= 0.9 {
			break
		}
	}
	if rec < 0.9 || prec < 0.9 {
		t.Fatalf("secure mining: recall=%.3f precision=%.3f (truth %d rules)", rec, prec, len(truth))
	}
	for i, r := range resources {
		if r.Halted() {
			t.Fatalf("honest resource %d halted", i)
		}
		if len(r.Reports()) != 0 {
			t.Fatalf("honest run produced reports: %v", r.Reports())
		}
	}
}

func TestSecureMiningConvergesPaillier(t *testing.T) {
	if testing.Short() {
		t.Skip("paillier end-to-end is slow")
	}
	e, resources, truth := buildSecureGrid(t, testPaillier, 4, 2, 2, nil, nil)
	rec, prec := 0.0, 0.0
	for step := 0; step < 900; step += 50 {
		e.Run(50)
		if rec, prec = avgQuality(resources, truth); rec >= 0.85 && prec >= 0.85 {
			break
		}
	}
	if rec < 0.85 || prec < 0.85 {
		t.Fatalf("secure+paillier: recall=%.3f precision=%.3f", rec, prec)
	}
}

func TestHonestRunNeverTriggersVerification(t *testing.T) {
	scheme := homo.NewPlain(96)
	e, resources, _ := buildSecureGrid(t, scheme, 5, 2, 3, nil, nil)
	e.Run(250)
	for _, r := range resources {
		if s := r.Controller.Stats(); s.Violations != 0 {
			t.Fatalf("honest run recorded %d violations", s.Violations)
		}
	}
}

func TestKGateStatistics(t *testing.T) {
	scheme := homo.NewPlain(96)
	// k=3 on a 5-resource grid: num can reach 5, so fresh decisions
	// are possible (growth 0→≥3) while sub-k growth still gets gated.
	e, resources, _ := buildSecureGrid(t, scheme, 5, 3, 4, nil, nil)
	e.Run(200)
	var fresh, gated, sfes int64
	for _, r := range resources {
		s := r.Controller.Stats()
		fresh += s.FreshDecisions
		gated += s.GatedDecisions
		sfes += s.SFEs
	}
	if sfes == 0 || fresh == 0 {
		t.Fatalf("SFE machinery idle: sfes=%d fresh=%d", sfes, fresh)
	}
	if gated == 0 {
		t.Fatal("k=3 never gated a decision")
	}
}

func TestLargerKSlowsConvergence(t *testing.T) {
	// Figure 4's qualitative claim.
	scheme := homo.NewPlain(96)
	reach := func(k int64) int {
		e, resources, truth := buildSecureGrid(t, scheme, 5, k, 5, nil, nil)
		for step := 0; step <= 2000; step += 30 {
			rec, _ := avgQuality(resources, truth)
			if rec >= 0.9 {
				return step
			}
			e.Run(30)
		}
		return 1 << 30
	}
	fast := reach(1)
	slow := reach(40)
	if fast >= 1<<30 {
		t.Fatal("k=1 never converged")
	}
	if slow < fast {
		t.Fatalf("k=40 (%d steps) beat k=1 (%d steps)", slow, fast)
	}
}

func TestIntraDelayCostsTime(t *testing.T) {
	// The Figure 2 caption attributes the secure algorithm's extra scan
	// to intra-resource communication; disabling it must not slow
	// convergence.
	scheme := homo.NewPlain(96)
	reach := func(delay bool) int {
		e, resources, truth := buildSecureGrid(t, scheme, 5, 2, 6,
			func(cfg *Config) { cfg.IntraDelay = delay }, nil)
		for step := 0; step <= 3000; step += 20 {
			rec, _ := avgQuality(resources, truth)
			if rec >= 0.9 {
				return step
			}
			e.Run(20)
		}
		return 1 << 30
	}
	withDelay := reach(true)
	without := reach(false)
	if without > withDelay {
		t.Fatalf("removing intra-resource delay slowed convergence: %d -> %d", withDelay, without)
	}
}

func TestPaddingDanceStillConverges(t *testing.T) {
	scheme := homo.NewPlain(96)
	e, resources, truth := buildSecureGrid(t, scheme, 4, 2, 7,
		func(cfg *Config) { cfg.PaddingDance = true }, nil)
	rec, prec := 0.0, 0.0
	for step := 0; step < 1200; step += 50 {
		e.Run(50)
		if rec, prec = avgQuality(resources, truth); rec >= 0.85 && prec >= 0.85 {
			break
		}
	}
	if rec < 0.85 || prec < 0.85 {
		t.Fatalf("padding dance: recall=%.3f precision=%.3f", rec, prec)
	}
}

func TestDynamicFeedReconverges(t *testing.T) {
	// A two-resource grid where the feed flips an itemset's status.
	scheme := homo.NewPlain(96)
	th := arm.Thresholds{MinFreq: 0.6, MinConf: 0.9}
	universe := arm.NewItemset(1, 2)
	mk := func() (*arm.Database, []arm.Transaction) {
		db := &arm.Database{}
		for i := 0; i < 40; i++ {
			db.Append(arm.NewItemset(2))
		}
		feed := make([]arm.Transaction, 300)
		for i := range feed {
			feed[i] = arm.NewItemset(1)
		}
		return db, feed
	}
	cfg := Config{Th: th, Universe: universe, ScanBudget: 50, CandidateEvery: 2,
		GrowthPerStep: 10, K: 2, IntraDelay: true, MaxRuleItems: 2}
	g := topology.Line(2, topology.DelayRange{Min: 1, Max: 1}, mrand.New(mrand.NewSource(1)))
	var resources []*Resource
	var nodes []sim.Node
	for i := 0; i < 2; i++ {
		db, feed := mk()
		r := NewResource(i, cfg, scheme, db, feed, nil)
		resources = append(resources, r)
		nodes = append(nodes, r)
	}
	e := sim.NewEngine(g, nodes, 9)
	// At step 3 the feed has delivered only 30 {1}-transactions against
	// 40 {2}s — 43% < MinFreq — so {1} must not be reported yet.
	e.Run(3)
	rule1 := arm.NewRule(nil, arm.NewItemset(1), arm.ThresholdFreq)
	if resources[0].Output().Has(rule1) {
		t.Fatal("{1} should not be frequent this early in the feed")
	}
	e.Run(400)
	for i, r := range resources {
		if !r.Output().Has(rule1) {
			t.Fatalf("resource %d did not pick up the dynamic shift; output=%v", i, r.Output().Sorted())
		}
	}
}

func TestSecureMatchesPlaintextBaselineResult(t *testing.T) {
	// Differential: the secure algorithm over the plain scheme must
	// reach the same fixpoint output as centralized ground truth.
	scheme := homo.NewPlain(96)
	e, resources, truth := buildSecureGrid(t, scheme, 4, 1, 10, nil, nil)
	for step := 0; step < 2000; step += 100 {
		e.Run(100)
		if rec, prec := avgQuality(resources, truth); rec >= 0.95 && prec >= 0.95 {
			break
		}
	}
	for i, r := range resources {
		out := r.Output()
		rec, prec := metrics.RecallPrecision(out, truth)
		if rec < 0.95 || prec < 0.95 {
			t.Fatalf("resource %d stuck at recall=%.3f precision=%.3f", i, rec, prec)
		}
	}
}

func TestGracefulUnderMessageLoss(t *testing.T) {
	// The paper assumes the overlay delivers messages (the tree
	// maintenance layer's job); this test verifies the failure mode
	// when that assumption is violated is graceful: 5% message loss
	// degrades recall but never crashes the protocol, never triggers a
	// false malicious-detection, and precision stays high (nothing
	// wrong is ever claimed).
	scheme := homo.NewPlain(96)
	e, resources, truth := buildSecureGrid(t, scheme, 6, 2, 12, nil, nil)
	e.Inject = faults.New(faults.Config{Seed: 12, DropProb: 0.05})
	e.Run(1500)
	rec, prec := avgQuality(resources, truth)
	if rec < 0.5 {
		t.Fatalf("recall collapsed under 5%% loss: %.3f", rec)
	}
	if prec < 0.9 {
		t.Fatalf("precision degraded under loss: %.3f (wrong rules claimed)", prec)
	}
	for i, r := range resources {
		if r.Halted() || len(r.Reports()) != 0 {
			t.Fatalf("message loss misdetected as malice at resource %d: %v", i, r.Reports())
		}
	}
	if e.Stats().Dropped == 0 {
		t.Fatal("fault injection inactive")
	}
}

func TestConvergesUnderDuplication(t *testing.T) {
	// Duplicated deliveries must be harmless: inbound counters are
	// idempotent replacements and duplicate stamps pass the ≥ T̃ check.
	scheme := homo.NewPlain(96)
	e, resources, truth := buildSecureGrid(t, scheme, 5, 2, 13, nil, nil)
	e.Inject = faults.New(faults.Config{Seed: 13, DupProb: 0.2})
	rec, prec := 0.0, 0.0
	for step := 0; step < 2500; step += 50 {
		e.Run(50)
		if rec, prec = avgQuality(resources, truth); rec >= 0.9 && prec >= 0.9 {
			break
		}
	}
	if rec < 0.9 || prec < 0.9 {
		t.Fatalf("duplication broke convergence: recall=%.3f precision=%.3f", rec, prec)
	}
	for i, r := range resources {
		if len(r.Reports()) != 0 {
			t.Fatalf("duplicates misdetected as replay at %d: %v", i, r.Reports())
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.ScanBudget != 100 || c.CandidateEvery != 5 || c.K != 10 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestReportString(t *testing.T) {
	r := MaliciousReport{Accused: 3, Reporter: 5, Reason: "x"}
	if r.String() == "" {
		t.Fatal("empty report string")
	}
}

func BenchmarkSecureStepPlainScheme(b *testing.B) {
	scheme := homo.NewPlain(96)
	e, _, _ := buildSecureGrid(b, scheme, 8, 3, 1, nil, nil)
	e.Run(50) // warm up: candidates exist
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkSecureStepPaillier(b *testing.B) {
	e, _, _ := buildSecureGrid(b, testPaillier, 4, 3, 1, nil, nil)
	e.Run(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func TestBytesAccounting(t *testing.T) {
	scheme := homo.NewPlain(96)
	e, resources, _ := buildSecureGrid(t, scheme, 4, 2, 30, nil, nil)
	e.Run(60)
	for i, r := range resources {
		s := r.Stats()
		if s.MessagesSent > 0 && s.BytesSent <= 0 {
			t.Fatalf("resource %d sent %d messages but 0 bytes", i, s.MessagesSent)
		}
		// Every counter carries ≥ 4 components; even the stand-in
		// scheme's ciphertexts are several bytes each.
		if s.MessagesSent > 0 && s.BytesSent < 8*s.MessagesSent {
			t.Fatalf("resource %d: implausibly small wire volume %d for %d messages",
				i, s.BytesSent, s.MessagesSent)
		}
	}
}
