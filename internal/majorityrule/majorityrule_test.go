package majorityrule

import (
	"math/rand"
	"testing"

	"secmr/internal/arm"
	"secmr/internal/hashing"
	"secmr/internal/metrics"
	"secmr/internal/quest"
	"secmr/internal/sim"
	"secmr/internal/topology"
)

// cfgMaxRuleItems caps the candidate lattice in grid tests; the ground
// truth uses the same cap so comparisons are apples-to-apples.
const cfgMaxRuleItems = 4

// buildGrid partitions a quest database across n resources on a random
// tree and returns the engine, the resources, and the ground truth.
func buildGrid(t testing.TB, mode Mode, n int, k int64, seed int64) (*sim.Engine, []*Resource, arm.RuleSet, arm.Thresholds) {
	rng := rand.New(rand.NewSource(seed))
	params := quest.Params{NumTransactions: n * 200, NumItems: 40, NumPatterns: 15,
		AvgTransLen: 6, AvgPatternLen: 3, Seed: seed}
	global := quest.Generate(params)
	th := arm.Thresholds{MinFreq: 0.15, MinConf: 0.7}
	universe := arm.Itemset{}
	for i := 0; i < params.NumItems; i++ {
		universe = append(universe, arm.Item(i))
	}
	truth := arm.GroundTruth(global, th, universe, cfgMaxRuleItems)
	parts := hashing.Partition(global, n, rng)
	tree := topology.RandomTree(n, topology.DelayRange{Min: 1, Max: 2}, rng)
	cfg := Config{Th: th, Universe: universe, ScanBudget: 50, CandidateEvery: 5,
		K: k, Mode: mode, MaxRuleItems: cfgMaxRuleItems}
	resources := make([]*Resource, n)
	nodes := make([]sim.Node, n)
	for i := 0; i < n; i++ {
		resources[i] = NewResource(i, cfg, parts[i], nil)
		nodes[i] = resources[i]
	}
	return sim.NewEngine(tree, nodes, seed), resources, truth, th
}

func avgQuality(resources []*Resource, truth arm.RuleSet) (float64, float64) {
	outs := make([]arm.RuleSet, len(resources))
	for i, r := range resources {
		outs[i] = r.Output()
	}
	return metrics.Average(outs, truth)
}

func TestPlainConvergesToGroundTruth(t *testing.T) {
	e, resources, truth, _ := buildGrid(t, ModePlain, 8, 0, 1)
	e.Run(800)
	rec, prec := avgQuality(resources, truth)
	if rec < 0.95 || prec < 0.95 {
		t.Fatalf("plain mode: recall=%.3f precision=%.3f after run (truth size %d)", rec, prec, len(truth))
	}
}

func TestKPrivateConvergesToGroundTruth(t *testing.T) {
	e, resources, truth, _ := buildGrid(t, ModeKPrivate, 8, 3, 2)
	e.Run(1500)
	rec, prec := avgQuality(resources, truth)
	if rec < 0.9 || prec < 0.9 {
		t.Fatalf("k-private mode: recall=%.3f precision=%.3f (truth size %d)", rec, prec, len(truth))
	}
}

func TestKPrivateSlowerThanPlain(t *testing.T) {
	// Figure 2's qualitative ordering: gating delays convergence.
	reach := func(mode Mode, k int64) int {
		e, resources, truth, _ := buildGrid(t, mode, 8, k, 3)
		for step := 0; step < 4000; step += 25 {
			e.Run(25)
			rec, _ := avgQuality(resources, truth)
			if rec >= 0.9 {
				return step
			}
		}
		return 1 << 30
	}
	plain := reach(ModePlain, 0)
	gated := reach(ModeKPrivate, 8)
	if plain >= 1<<30 {
		t.Fatal("plain never reached 90% recall")
	}
	if gated < plain {
		t.Fatalf("k-private (%d steps) converged faster than plain (%d steps)", gated, plain)
	}
}

// keyedOutput is the reference for Output: each confidence rule's
// companion is looked up by key among the passing frequency rules, as
// Output did before it linked companions once.
func keyedOutput(r *Resource) arm.RuleSet {
	out := arm.RuleSet{}
	for _, c := range r.cands {
		if c.rule.Kind == arm.ThresholdFreq && r.peekDecision(c) {
			out.Add(c.rule)
		}
	}
	for _, c := range r.cands {
		comp := arm.NewRule(nil, c.rule.Union(), arm.ThresholdFreq)
		if c.rule.Kind == arm.ThresholdConf && r.peekDecision(c) && out.Has(comp) {
			out.Add(c.rule)
		}
	}
	return out
}

// TestOutputCompanionLinks holds Output to the keyed reference in both
// modes while candidates still arrive: a confidence rule received from a
// neighbour is created before its companion.
func TestOutputCompanionLinks(t *testing.T) {
	for _, mode := range []Mode{ModePlain, ModeKPrivate} {
		e, resources, _, _ := buildGrid(t, mode, 6, 2, 5)
		for step := 10; step <= 200; step += 10 {
			e.Run(10)
			for i, r := range resources {
				got, want := r.Output(), keyedOutput(r)
				if len(got) != len(want) || got.IntersectCount(want) != len(want) {
					t.Fatalf("%s step %d resource %d: output has %d rules, keyed reference %d (%d shared)",
						mode, step, i, len(got), len(want), got.IntersectCount(want))
				}
			}
		}
		// The receive handler's order, which a mid-run grid seldom
		// reaches: the confidence rule first, then its companion.
		r := resources[0]
		late := r.addCandidate(arm.NewRule(arm.Itemset{98}, arm.Itemset{99}, arm.ThresholdConf))
		if late.companion != nil {
			t.Fatal("companion linked before it exists")
		}
		if comp := r.addCandidate(arm.NewRule(nil, arm.Itemset{98, 99}, arm.ThresholdFreq)); late.companion != comp {
			t.Fatal("late companion not linked")
		}
	}
}

func TestSingleResourceMatchesApriori(t *testing.T) {
	// One resource, no neighbors: after scanning its whole database the
	// output must equal the centralized ground truth of its partition.
	params := quest.Params{NumTransactions: 300, NumItems: 25, NumPatterns: 10,
		AvgTransLen: 5, AvgPatternLen: 2, Seed: 4}
	db := quest.Generate(params)
	th := arm.Thresholds{MinFreq: 0.2, MinConf: 0.7}
	universe := arm.Itemset{}
	for i := 0; i < params.NumItems; i++ {
		universe = append(universe, arm.Item(i))
	}
	truth := arm.GroundTruth(db, th, universe, 0)
	cfg := Config{Th: th, Universe: universe, ScanBudget: 50, CandidateEvery: 2, Mode: ModePlain}
	r := NewResource(0, cfg, db, nil)
	g := topology.NewGraph(1)
	e := sim.NewEngine(g, []sim.Node{r}, 1)
	e.Run(200)
	out := r.Output()
	rec, prec := metrics.RecallPrecision(out, truth)
	if rec != 1 || prec != 1 {
		t.Fatalf("single resource: recall=%.3f precision=%.3f; out=%d truth=%d",
			rec, prec, len(out), len(truth))
	}
}

func TestDynamicGrowthShiftsResult(t *testing.T) {
	// Start with a database where {1,2} is infrequent, feed in
	// transactions that make it frequent; the miner must pick it up.
	th := arm.Thresholds{MinFreq: 0.6, MinConf: 0.9}
	universe := arm.NewItemset(1, 2, 3)
	initial := &arm.Database{}
	for i := 0; i < 50; i++ {
		initial.Append(arm.NewItemset(3))
	}
	feed := make([]arm.Transaction, 400)
	for i := range feed {
		feed[i] = arm.NewItemset(1, 2)
	}
	cfg := Config{Th: th, Universe: universe, ScanBudget: 50, CandidateEvery: 2,
		GrowthPerStep: 10, Mode: ModePlain}
	r := NewResource(0, cfg, initial, feed)
	g := topology.NewGraph(1)
	e := sim.NewEngine(g, []sim.Node{r}, 1)
	e.Run(3)
	early := r.Output()
	if early.Has(arm.NewRule(nil, arm.NewItemset(1, 2), arm.ThresholdFreq)) {
		t.Fatal("{1,2} should not be frequent before growth")
	}
	e.Run(200)
	late := r.Output()
	if !late.Has(arm.NewRule(nil, arm.NewItemset(1, 2), arm.ThresholdFreq)) {
		t.Fatal("{1,2} should become frequent after growth")
	}
	if r.DBSize() != 450 {
		t.Fatalf("db size %d want 450", r.DBSize())
	}
}

func TestMaxRuleItemsCap(t *testing.T) {
	th := arm.Thresholds{MinFreq: 0.01, MinConf: 0.01}
	universe := arm.NewItemset(1, 2, 3, 4, 5)
	db := &arm.Database{}
	for i := 0; i < 50; i++ {
		db.Append(arm.NewItemset(1, 2, 3, 4, 5))
	}
	cfg := Config{Th: th, Universe: universe, ScanBudget: 100, CandidateEvery: 1,
		Mode: ModePlain, MaxRuleItems: 2}
	r := NewResource(0, cfg, db, nil)
	g := topology.NewGraph(1)
	e := sim.NewEngine(g, []sim.Node{r}, 1)
	e.Run(50)
	for key := range r.cands {
		rule, err := arm.ParseRuleKey(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(rule.LHS)+len(rule.RHS) > 2 {
			t.Fatalf("candidate %v exceeds cap", rule)
		}
	}
}

func TestGatedStatsAccumulate(t *testing.T) {
	e, resources, _, _ := buildGrid(t, ModeKPrivate, 6, 5, 7)
	e.Run(300)
	var fresh, gated int64
	for _, r := range resources {
		s := r.Stats()
		fresh += s.FreshDecisions
		gated += s.GatedDecisions
	}
	if fresh == 0 {
		t.Fatal("no fresh decisions were ever granted")
	}
	if gated == 0 {
		t.Fatal("the k-gate never intervened at k=5")
	}
}

func TestNoPingPongStorm(t *testing.T) {
	// After convergence on a static database, message traffic must stop
	// (livelock regression test for the gated default-true rule).
	e, resources, _, _ := buildGrid(t, ModeKPrivate, 6, 4, 8)
	e.Run(1200)
	var before int64
	for _, r := range resources {
		before += r.Stats().MessagesSent
	}
	e.Run(200)
	var after int64
	for _, r := range resources {
		after += r.Stats().MessagesSent
	}
	if after != before {
		t.Fatalf("messages still flowing on a static converged system: %d -> %d", before, after)
	}
}

func TestModeString(t *testing.T) {
	if ModePlain.String() != "plain" || ModeKPrivate.String() != "k-private" {
		t.Fatal("mode names")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should still render")
	}
}

func TestRational(t *testing.T) {
	n, d := arm.Rational(0.5)
	if float64(n)/float64(d) != 0.5 {
		t.Fatalf("rational(0.5) = %d/%d", n, d)
	}
	n, d = arm.Rational(0.3)
	if diff := float64(n)/float64(d) - 0.3; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("rational(0.3) = %d/%d (err %g)", n, d, diff)
	}
}

func BenchmarkPlainGrid16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, _, _, _ := buildGrid(b, ModePlain, 16, 0, 1)
		e.Run(400)
	}
}
