package arm

import (
	"math/rand"
	"testing"
)

func TestRuleSetOps(t *testing.T) {
	r1 := NewRule(nil, NewItemset(1), ThresholdFreq)
	r2 := NewRule(nil, NewItemset(2), ThresholdFreq)
	r3 := NewRule(NewItemset(1), NewItemset(2), ThresholdConf)
	rs := NewRuleSet(r1, r2)
	if !rs.Add(r3) {
		t.Fatal("Add of new rule returned false")
	}
	if rs.Add(r3) {
		t.Fatal("Add of duplicate returned true")
	}
	other := NewRuleSet(r2, r3)
	if got := rs.IntersectCount(other); got != 2 {
		t.Fatalf("IntersectCount = %d want 2", got)
	}
	sorted := rs.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Key() >= sorted[i].Key() {
			t.Fatal("Sorted not in key order")
		}
	}
}

func TestCorrectEvaluation(t *testing.T) {
	db := NewDatabase(
		NewItemset(1, 2),
		NewItemset(1, 2),
		NewItemset(1, 3),
		NewItemset(4),
	)
	th := Thresholds{MinFreq: 0.5, MinConf: 0.6}
	// Freq(1) = 3/4 >= 0.5 -> frequent.
	if !Correct(db, NewRule(nil, NewItemset(1), ThresholdFreq), th) {
		t.Error("{1} should be frequent")
	}
	// Freq(4) = 1/4 < 0.5.
	if Correct(db, NewRule(nil, NewItemset(4), ThresholdFreq), th) {
		t.Error("{4} should be infrequent")
	}
	// conf(1=>2) = 2/3 >= 0.6.
	if !Correct(db, NewRule(NewItemset(1), NewItemset(2), ThresholdConf), th) {
		t.Error("1=>2 should be confident")
	}
	// conf(1=>3) = 1/3 < 0.6.
	if Correct(db, NewRule(NewItemset(1), NewItemset(3), ThresholdConf), th) {
		t.Error("1=>3 should not be confident")
	}
}

func TestGroundTruthHandCrafted(t *testing.T) {
	// 10 transactions: {1,2} x6, {1,3} x2, {2,3} x2.
	db := &Database{}
	for i := 0; i < 6; i++ {
		db.Append(NewItemset(1, 2))
	}
	for i := 0; i < 2; i++ {
		db.Append(NewItemset(1, 3))
		db.Append(NewItemset(2, 3))
	}
	th := Thresholds{MinFreq: 0.5, MinConf: 0.7}
	truth := GroundTruth(db, th, nil, 0)

	// Frequent: {1} (8/10), {2} (8/10), {1,2} (6/10). {3} has 4/10 < 5.
	mustHave := []Rule{
		NewRule(nil, NewItemset(1), ThresholdFreq),
		NewRule(nil, NewItemset(2), ThresholdFreq),
		NewRule(nil, NewItemset(1, 2), ThresholdFreq),
		// conf(1=>2) = 6/8 = 0.75 >= 0.7.
		NewRule(NewItemset(1), NewItemset(2), ThresholdConf),
		NewRule(NewItemset(2), NewItemset(1), ThresholdConf),
	}
	for _, r := range mustHave {
		if !truth.Has(r) {
			t.Errorf("ground truth missing %v", r)
		}
	}
	mustNotHave := []Rule{
		NewRule(nil, NewItemset(3), ThresholdFreq),
		NewRule(nil, NewItemset(1, 3), ThresholdFreq),
	}
	for _, r := range mustNotHave {
		if truth.Has(r) {
			t.Errorf("ground truth should not contain %v", r)
		}
	}
}

func TestGroundTruthRulesAreActuallyCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		db := &Database{}
		for i := 0; i < 60; i++ {
			tx := make([]Item, 1+rng.Intn(5))
			for j := range tx {
				tx[j] = Item(rng.Intn(6))
			}
			db.Append(NewItemset(tx...))
		}
		th := Thresholds{MinFreq: 0.2, MinConf: 0.5}
		truth := GroundTruth(db, th, nil, 0)
		for _, r := range truth {
			if !Correct(db, r, th) {
				t.Fatalf("trial %d: ground truth contains incorrect rule %v", trial, r)
			}
			if !r.LHS.Disjoint(r.RHS) {
				t.Fatalf("trial %d: rule with overlapping sides %v", trial, r)
			}
		}
		// Every frequent itemset found by Apriori must appear as a
		// frequency rule (the lattice covers the full frequent space).
		ap := Apriori(db, th.MinFreq)
		for _, s := range ap.Sets {
			if !truth.Has(NewRule(nil, s, ThresholdFreq)) {
				t.Fatalf("trial %d: frequent %v missing from ground truth", trial, s)
			}
		}
	}
}

func TestGroundTruthEmptyAndUniverse(t *testing.T) {
	truth := GroundTruth(&Database{}, Thresholds{MinFreq: 0.5, MinConf: 0.5}, NewItemset(1, 2), 0)
	if len(truth) != 0 {
		t.Fatalf("empty db should have empty truth, got %d", len(truth))
	}
	// Universe wider than observed items must not invent rules.
	db := NewDatabase(NewItemset(1), NewItemset(1))
	truth = GroundTruth(db, Thresholds{MinFreq: 0.5, MinConf: 0.5}, NewItemset(1, 2, 3), 0)
	if !truth.Has(NewRule(nil, NewItemset(1), ThresholdFreq)) {
		t.Fatal("missing {1}")
	}
	if truth.Has(NewRule(nil, NewItemset(2), ThresholdFreq)) {
		t.Fatal("invented {2}")
	}
}

func TestGroundTruthEqualsClosedFormProperty(t *testing.T) {
	// The fixpoint emulation of Algorithm 4 must converge to exactly
	// the closed-form characterization of R[DB] (see ClosedFormTruth's
	// doc comment for the monotonicity argument).
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		db := &Database{}
		nTx := 20 + rng.Intn(80)
		for i := 0; i < nTx; i++ {
			tx := make([]Item, 1+rng.Intn(5))
			for j := range tx {
				tx[j] = Item(rng.Intn(7))
			}
			db.Append(NewItemset(tx...))
		}
		th := Thresholds{MinFreq: 0.1 + 0.3*rng.Float64(), MinConf: 0.3 + 0.5*rng.Float64()}
		maxItems := rng.Intn(3) * 3 // 0, 3 or 6
		fix := GroundTruth(db, th, nil, maxItems)
		closed := ClosedFormTruth(db, th, maxItems)
		if len(fix) != len(closed) {
			for k := range closed {
				if !fix.Has(closed[k]) {
					t.Logf("fixpoint missing %v", closed[k])
				}
			}
			for k := range fix {
				if !closed.Has(fix[k]) {
					t.Logf("fixpoint extra %v", fix[k])
				}
			}
			t.Fatalf("trial %d (minFreq=%.2f minConf=%.2f cap=%d): fixpoint %d rules, closed form %d",
				trial, th.MinFreq, th.MinConf, maxItems, len(fix), len(closed))
		}
		for k := range closed {
			if !fix.Has(closed[k]) {
				t.Fatalf("trial %d: sets differ at %v", trial, closed[k])
			}
		}
	}
}

func TestGenerateCandidatesAddsFreqCompanions(t *testing.T) {
	truth := NewRuleSet(NewRule(nil, NewItemset(1, 2), ThresholdFreq))
	cands := RuleSet{}
	GenerateCandidates(truth, cands)
	// Rule 1 generates {1}=>{2} and {2}=>{1}; each must bring the
	// frequency companion of its union ({1,2}).
	if !cands.Has(NewRule(NewItemset(1), NewItemset(2), ThresholdConf)) ||
		!cands.Has(NewRule(NewItemset(2), NewItemset(1), ThresholdConf)) {
		t.Fatal("rule 1 candidates missing")
	}
	if !cands.Has(NewRule(nil, NewItemset(1, 2), ThresholdFreq)) {
		t.Fatal("frequency companion missing")
	}
}

func TestThresholdLambda(t *testing.T) {
	th := Thresholds{MinFreq: 0.3, MinConf: 0.8}
	if th.Lambda(ThresholdFreq) != 0.3 || th.Lambda(ThresholdConf) != 0.8 {
		t.Fatal("Lambda mapping wrong")
	}
}

func BenchmarkGroundTruth(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	db := &Database{}
	for i := 0; i < 2000; i++ {
		tx := make([]Item, 2+rng.Intn(8))
		for j := range tx {
			tx[j] = Item(rng.Intn(30))
		}
		db.Append(NewItemset(tx...))
	}
	th := Thresholds{MinFreq: 0.1, MinConf: 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GroundTruth(db, th, nil, 0)
	}
}
