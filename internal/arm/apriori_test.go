package arm

import (
	"math/rand"
	"testing"
)

func TestAprioriKnownAnswer(t *testing.T) {
	// Classic textbook example.
	db := NewDatabase(
		NewItemset(1, 3, 4),
		NewItemset(2, 3, 5),
		NewItemset(1, 2, 3, 5),
		NewItemset(2, 5),
	)
	f := Apriori(db, 0.5)
	wantSupports := map[string]int{
		"1": 2, "2": 3, "3": 3, "5": 3,
		"1,3": 2, "2,3": 2, "2,5": 3, "3,5": 2,
		"2,3,5": 2,
	}
	if len(f.Support) != len(wantSupports) {
		t.Fatalf("found %d frequent itemsets, want %d: %v", len(f.Support), len(wantSupports), f.Support)
	}
	for k, w := range wantSupports {
		if f.Support[k] != w {
			t.Errorf("support[%s]=%d want %d", k, f.Support[k], w)
		}
	}
}

func TestAprioriEmptyDB(t *testing.T) {
	f := Apriori(&Database{}, 0.5)
	if len(f.Sets) != 0 {
		t.Fatal("empty database should yield no frequent itemsets")
	}
}

func TestAprioriThresholdOne(t *testing.T) {
	db := NewDatabase(NewItemset(1, 2), NewItemset(1, 2), NewItemset(1))
	f := Apriori(db, 1.0)
	if !f.Contains(NewItemset(1)) || f.Contains(NewItemset(2)) || f.Contains(NewItemset(1, 2)) {
		t.Fatalf("minFreq=1.0 wrong: %v", f.Support)
	}
}

func TestMinSupportRounding(t *testing.T) {
	// 0.5 * 5 = 2.5 -> need 3 transactions.
	if ms := minSupport(5, 0.5); ms != 3 {
		t.Errorf("minSupport(5,0.5)=%d want 3", ms)
	}
	// exact boundary: 0.5 * 4 = 2 -> 2.
	if ms := minSupport(4, 0.5); ms != 2 {
		t.Errorf("minSupport(4,0.5)=%d want 2", ms)
	}
	if ms := minSupport(10, 0.0); ms != 1 {
		t.Errorf("minSupport(10,0)=%d want 1", ms)
	}
}

func TestAprioriAgainstBruteForceProperty(t *testing.T) {
	type input struct {
		db      *Database
		minFreq float64
	}
	var inputs []input
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		db := &Database{}
		nTx := 10 + rng.Intn(150)
		nItems := 4 + rng.Intn(11)
		for i := 0; i < nTx; i++ {
			tx := make([]Item, 1+rng.Intn(7))
			for j := range tx {
				tx[j] = Item(rng.Intn(nItems))
			}
			db.Append(NewItemset(tx...))
		}
		inputs = append(inputs, input{db, 0.05 + 0.4*rng.Float64()})
	}
	// Every transaction sharing a long prefix: all 2^6−1 subsets of
	// {1..6} have support 20 ≥ ceil(0.9·21) = 19.
	deep := &Database{}
	for i := 0; i < 20; i++ {
		deep.Append(NewItemset(1, 2, 3, 4, 5, 6))
	}
	deep.Append(NewItemset(1, 2, 3))
	inputs = append(inputs, input{deep, 0.9})

	for trial, in := range inputs {
		fast := Apriori(in.db, in.minFreq)
		slow := BruteForceFrequent(in.db, in.minFreq)
		if len(fast.Support) != len(slow.Support) || len(fast.Sets) != len(slow.Sets) {
			t.Fatalf("trial %d (minFreq=%.3f): apriori %d sets/%d supports, brute force %d/%d",
				trial, in.minFreq, len(fast.Sets), len(fast.Support), len(slow.Sets), len(slow.Support))
		}
		for k, v := range slow.Support {
			if fast.Support[k] != v {
				t.Fatalf("trial %d: support[%s]=%d want %d", trial, k, fast.Support[k], v)
			}
		}
		for i := range slow.Sets {
			if !fast.Sets[i].Equal(slow.Sets[i]) {
				t.Fatalf("trial %d: set order differs at %d: %v vs %v",
					trial, i, fast.Sets[i], slow.Sets[i])
			}
		}
	}
	if f := Apriori(deep, 0.9); len(f.Sets) != 63 || f.Support["1,2,3"] != 21 {
		t.Fatalf("deep prefix: %d sets, support(1,2,3)=%d; want 63 and 21",
			len(f.Sets), f.Support["1,2,3"])
	}
}

func TestAprioriDownwardClosureInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := &Database{}
	for i := 0; i < 200; i++ {
		tx := make([]Item, 2+rng.Intn(6))
		for j := range tx {
			tx[j] = Item(rng.Intn(15))
		}
		db.Append(NewItemset(tx...))
	}
	f := Apriori(db, 0.1)
	for _, s := range f.Sets {
		for _, it := range s {
			if len(s) > 1 && !f.Contains(s.Without(it)) {
				t.Fatalf("downward closure violated: %v frequent but %v not", s, s.Without(it))
			}
		}
		// Reported support must match a direct count.
		if got, want := f.Support[s.Key()], db.Support(s); got != want {
			t.Fatalf("support mismatch for %v: %d want %d", s, got, want)
		}
	}
}

func TestAprioriDeterministicOrder(t *testing.T) {
	db := sampleDB()
	a := Apriori(db, 0.4)
	b := Apriori(db, 0.4)
	if len(a.Sets) != len(b.Sets) {
		t.Fatal("nondeterministic set count")
	}
	for i := range a.Sets {
		if !a.Sets[i].Equal(b.Sets[i]) {
			t.Fatalf("order differs at %d: %v vs %v", i, a.Sets[i], b.Sets[i])
		}
	}
}

func BenchmarkApriori(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	db := &Database{}
	for i := 0; i < 5000; i++ {
		tx := make([]Item, 1+rng.Intn(9))
		for j := range tx {
			tx[j] = Item(rng.Intn(50))
		}
		db.Append(NewItemset(tx...))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Apriori(db, 0.05)
	}
}
