package secmr

import (
	"math/rand"
	"sort"
	"testing"

	"secmr/internal/hashing"
)

// scoreByRescan is the reference for Grid.ScoredOutput: it rescans db
// once per rule of out, as the facade did before it read the miners'
// running counts.
func scoreByRescan(out RuleSet, db *Database) []RuleScore {
	scored := make([]RuleScore, 0, len(out))
	for _, r := range out {
		s := RuleScore{Rule: r, Confidence: 1}
		if len(r.LHS) > 0 {
			countLHS, countBoth := db.SupportPair(r.LHS, r.RHS)
			if countLHS > 0 {
				s.Confidence = float64(countBoth) / float64(countLHS)
			} else {
				s.Confidence = 0
			}
			if n := db.Len(); n > 0 {
				s.Support = float64(countBoth) / float64(n)
			}
		} else {
			s.Support = db.Freq(r.Union())
		}
		scored = append(scored, s)
	}
	sort.Slice(scored, func(a, b int) bool {
		if scored[a].Support != scored[b].Support {
			return scored[a].Support > scored[b].Support
		}
		return scored[a].Rule.Key() < scored[b].Rule.Key()
	})
	return scored
}

// scoredFixture rebuilds a grid's live databases without asking its
// miners for them: resource i holds its hash partition of the initial
// database (the first draw NewGrid makes from the seed) followed by the
// prefix of its feed it has absorbed so far.
type scoredFixture struct {
	parts []*Database
	feeds [][]Transaction
}

func newScoredFixture(db *Database, feeds [][]Transaction, cfg GridConfig) *scoredFixture {
	return &scoredFixture{
		parts: hashing.Partition(db, cfg.Resources, rand.New(rand.NewSource(cfg.Seed))),
		feeds: feeds,
	}
}

func (f *scoredFixture) live(t *testing.T, g *Grid, i int) *Database {
	t.Helper()
	n := g.miners[i].DBSize()
	absorbed := n - f.parts[i].Len()
	if absorbed < 0 || absorbed > len(f.feeds[i]) {
		t.Fatalf("resource %d holds %d txns: not its partition (%d) plus a feed prefix (%d)",
			i, n, f.parts[i].Len(), len(f.feeds[i]))
	}
	tx := append(append([]Transaction(nil), f.parts[i].Tx...), f.feeds[i][:absorbed]...)
	return &Database{Tx: tx}
}

// check compares resource i's ScoredOutput against the rescan of its
// live database row by row — rule, support, confidence and order — and
// returns the number of rows compared.
func (f *scoredFixture) check(t *testing.T, g *Grid, i, step int) int {
	t.Helper()
	got := g.ScoredOutput(i)
	want := scoreByRescan(g.Output(i), f.live(t, g, i))
	if len(got) != len(want) {
		t.Fatalf("step %d resource %d: %d scored rules, rescan has %d", step, i, len(got), len(want))
	}
	for j := range got {
		if got[j].Rule.Key() != want[j].Rule.Key() || got[j].Support != want[j].Support ||
			got[j].Confidence != want[j].Confidence {
			t.Fatalf("step %d resource %d row %d: got %s %v/%v, rescan %s %v/%v", step, i, j,
				got[j].Rule.Key(), got[j].Support, got[j].Confidence,
				want[j].Rule.Key(), want[j].Support, want[j].Confidence)
		}
	}
	return len(got)
}

// feedsFor splits extra into per-resource feeds.
func feedsFor(extra *Database, resources int) [][]Transaction {
	feeds := make([][]Transaction, resources)
	for i, tx := range extra.Tx {
		feeds[i%resources] = append(feeds[i%resources], tx)
	}
	return feeds
}

// TestScoredOutputMatchesRescan holds the running-count scores to the
// rescan they replace, on every algorithm and on the Shamir and Paillier
// backends, with feeds growing the databases. Every step is compared: a
// per-resource partition of ~600 txns at ScanBudget 20 keeps a new
// candidate's scan mid-partition for 30 steps, so rules are scored
// while part of their database is still unscanned, and candidates
// appear every CandidateEvery steps.
func TestScoredOutputMatchesRescan(t *testing.T) {
	cases := []struct {
		name  string
		cfg   GridConfig
		steps int
	}{
		{"plain", GridConfig{Algorithm: AlgorithmPlain}, 150},
		{"k-private", GridConfig{Algorithm: AlgorithmKPrivate}, 150},
		{"shamir", GridConfig{Algorithm: AlgorithmSecure, Crypto: CryptoShamir}, 150},
		{"paillier", GridConfig{Algorithm: AlgorithmSecure, Crypto: CryptoPaillier, PaillierBits: 128}, 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.Crypto == CryptoPaillier && testing.Short() {
				t.Skip("real crypto end-to-end")
			}
			cfg := tc.cfg
			cfg.Resources, cfg.K, cfg.Seed = 5, 2, 23
			cfg.MinFreq, cfg.MinConf = 0.15, 0.7
			cfg.ScanBudget, cfg.GrowthPerStep, cfg.MaxRuleItems = 20, 2, 3
			db := smallDB(3000, 23)
			feeds := feedsFor(smallDB(cfg.Resources*cfg.GrowthPerStep*tc.steps, 24), cfg.Resources)
			grid, err := NewGridWithFeed(db, feeds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer grid.Close()
			fx := newScoredFixture(db, feeds, cfg)
			rows := 0
			for step := 1; step <= tc.steps; step++ {
				grid.Step(1)
				for i := 0; i < cfg.Resources; i++ {
					rows += fx.check(t, grid, i, step)
				}
			}
			if rows == 0 {
				t.Fatal("no rule was ever scored")
			}
			t.Logf("%d rows identical over %d steps", rows, tc.steps)
		})
	}
}

// TestScoredOutputAfterAmnesiaRecovery is the regression for scoring a
// recovered resource: persistence rebuilds it from disk with a database
// of its own, which keeps growing from its feed after the restart. Its
// scores must come from that live database, not the partition it was
// built with.
func TestScoredOutputAfterAmnesiaRecovery(t *testing.T) {
	const steps = 400
	cfg := GridConfig{
		Algorithm: AlgorithmSecure, Resources: 5, K: 2,
		MinFreq: 0.15, MinConf: 0.7, ScanBudget: 50, GrowthPerStep: 2,
		MaxRuleItems: 2, Seed: 42,
		Persist: &PersistConfig{Dir: t.TempDir(), SnapshotEvery: 40, FsyncEvery: 8},
		Faults: &FaultConfig{Seed: 42, Schedule: []FaultEvent{
			{At: 120, Crash: []int{2}, Amnesia: true},
			{At: 220, Restart: []int{2}},
		}},
	}
	db := smallDB(1200, 42)
	feeds := feedsFor(smallDB(cfg.Resources*cfg.GrowthPerStep*steps, 43), cfg.Resources)
	grid, err := NewGridWithFeed(db, feeds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()
	fx := newScoredFixture(db, feeds, cfg)
	grid.Step(steps)
	if grid.Recoveries() != 1 {
		t.Fatalf("recoveries = %d, want 1", grid.Recoveries())
	}
	if grown := grid.miners[2].DBSize() - fx.parts[2].Len(); grown <= cfg.GrowthPerStep*120 {
		t.Fatalf("recovered resource absorbed %d txns: it never grew after the restart", grown)
	}
	if fx.check(t, grid, 2, steps) == 0 {
		t.Fatal("recovered resource scored no rules")
	}
}

// TestScoredOutputAllocs pins a read on a converged grid to one
// allocation, its result slice: nothing in it grows with the partition.
func TestScoredOutputAllocs(t *testing.T) {
	for _, alg := range []Algorithm{AlgorithmPlain, AlgorithmSecure} {
		grid, err := NewGrid(smallDB(1200, 7), GridConfig{
			Algorithm: alg, Crypto: CryptoShamir, Resources: 4, K: 2,
			MinFreq: 0.1, MinConf: 0.7, ScanBudget: 50, MaxRuleItems: 3, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !grid.RunUntilQuality(0.9, 2500) {
			t.Fatalf("%s: never converged", alg)
		}
		for i := 0; i < grid.Resources(); i++ {
			if len(grid.ScoredOutput(i)) == 0 {
				t.Fatalf("%s resource %d: nothing to score", alg, i)
			}
			if n := testing.AllocsPerRun(50, func() { grid.ScoredOutput(i) }); n != 1 {
				t.Fatalf("%s resource %d: ScoredOutput allocates %v times per call, want 1", alg, i, n)
			}
		}
		grid.Close()
	}
}
