package secmr

import (
	"math"
	"math/big"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"secmr/internal/core"
)

func smallDB(n int, seed int64) *Database {
	return GenerateQuestWith(QuestParams{NumTransactions: n, NumItems: 30,
		NumPatterns: 12, AvgTransLen: 5, AvgPatternLen: 2, Seed: seed})
}

func TestFacadeEndToEndSecure(t *testing.T) {
	db := smallDB(1500, 7)
	grid, err := NewGrid(db, GridConfig{
		Algorithm: AlgorithmSecure, Resources: 6, K: 2,
		MinFreq: 0.1, MinConf: 0.7, ScanBudget: 50,
		MaxRuleItems: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !grid.RunUntilQuality(0.9, 2500) {
		r, p := grid.Quality()
		t.Fatalf("never reached 90/90: recall=%.3f precision=%.3f", r, p)
	}
	if len(grid.Reports()) != 0 {
		t.Fatalf("honest grid produced reports: %v", grid.Reports())
	}
	if grid.Resources() != 6 || grid.Steps() == 0 {
		t.Fatal("accessors wrong")
	}
	if len(grid.Output(0)) == 0 || len(grid.Truth()) == 0 {
		t.Fatal("empty outputs")
	}
}

func TestFacadeAllAlgorithmsAndTopologies(t *testing.T) {
	db := smallDB(800, 3)
	for _, alg := range []Algorithm{AlgorithmPlain, AlgorithmKPrivate, AlgorithmSecure} {
		for _, topo := range []Topology{TopologyBA, TopologyWaxman, TopologyRandomTree, TopologyLine} {
			grid, err := NewGrid(db, GridConfig{
				Algorithm: alg, Topology: topo, Resources: 5, K: 2,
				MinFreq: 0.15, MinConf: 0.7, ScanBudget: 50, MaxRuleItems: 2, Seed: 3,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", alg, topo, err)
			}
			grid.Step(50)
			if r, p := grid.Quality(); r < 0 || r > 1 || p < 0 || p > 1 {
				t.Fatalf("%s/%s: quality out of range", alg, topo)
			}
		}
	}
}

func TestFacadeValidation(t *testing.T) {
	db := smallDB(100, 1)
	cases := []GridConfig{
		{MinFreq: 0, MinConf: 0.5},
		{MinFreq: 0.5, MinConf: 1.5},
		{MinFreq: 0.5, MinConf: 0.5, Algorithm: "bogus"},
		{MinFreq: 0.5, MinConf: 0.5, Topology: "bogus"},
	}
	for i, cfg := range cases {
		if _, err := NewGrid(db, cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := NewGrid(&Database{}, GridConfig{MinFreq: 0.5, MinConf: 0.5}); err == nil {
		t.Error("empty database accepted")
	}
	if _, err := NewGrid(smallDB(50, 2), GridConfig{MinFreq: 0.5, MinConf: 0.5,
		Resources: 4, K: 10}); err == nil {
		t.Error("k > resources accepted: the grid could never release anything")
	}
	if _, err := GenerateQuest("T0I0", 10, 1); err == nil {
		t.Error("bad preset accepted")
	}
}

func TestGenerateQuestPresetWorks(t *testing.T) {
	db, err := GenerateQuest("T10I4", 500, 1)
	if err != nil || db.Len() != 500 {
		t.Fatalf("preset generation: len=%d err=%v", db.Len(), err)
	}
}

func TestMineCentralMatchesGridFixpoint(t *testing.T) {
	db := smallDB(600, 11)
	th := Thresholds{MinFreq: 0.15, MinConf: 0.6}
	truth := MineCentral(db, th)
	if len(truth) == 0 {
		t.Fatal("no rules at 20% support; generator broken?")
	}
	for _, r := range truth.Sorted() {
		if len(r.RHS) == 0 {
			t.Fatalf("rule without RHS: %v", r)
		}
	}
}

func TestFacadeDynamicFeed(t *testing.T) {
	db := smallDB(600, 5)
	feeds := make([][]Transaction, 4)
	extra := smallDB(400, 6)
	for i := range feeds {
		feeds[i] = extra.Tx[i*100 : (i+1)*100]
	}
	grid, err := NewGridWithFeed(db, feeds, GridConfig{
		Algorithm: AlgorithmSecure, Resources: 4, K: 2, GrowthPerStep: 5,
		MinFreq: 0.15, MinConf: 0.7, ScanBudget: 50, MaxRuleItems: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid.Step(200)
	if r, _ := grid.Quality(); r < 0 {
		t.Fatal("quality broken")
	}
}

func TestPaillierBackedGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("real crypto end-to-end")
	}
	db := smallDB(400, 9)
	grid, err := NewGrid(db, GridConfig{
		Algorithm: AlgorithmSecure, Resources: 3, K: 1, PaillierBits: 128,
		MinFreq: 0.2, MinConf: 0.7, ScanBudget: 50, MaxRuleItems: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !grid.RunUntilQuality(0.85, 1500) {
		r, p := grid.Quality()
		t.Fatalf("paillier grid stuck at recall=%.3f precision=%.3f", r, p)
	}
}

func TestShamirBackedGrid(t *testing.T) {
	db := smallDB(400, 31)
	grid, err := NewGrid(db, GridConfig{
		Algorithm: AlgorithmSecure, Resources: 3, K: 1,
		Crypto:  CryptoShamir,
		MinFreq: 0.2, MinConf: 0.7, ScanBudget: 50, MaxRuleItems: 2, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !grid.RunUntilQuality(0.85, 1500) {
		r, p := grid.Quality()
		t.Fatalf("shamir grid stuck at recall=%.3f precision=%.3f", r, p)
	}
}

// TestSecureStepAllocBudgetShamir holds the secure step, not just the
// plain sim tick, to an allocation budget, on BENCHMARK.json's churn
// grid (mine_churn_shamir's geometry, thresholds and growth). Nearly
// all of a step's mallocs are Shamir results, one heap object each.
// What is left is what a step keeps or sends — accountant replies,
// outgoing payloads and their stamps: the broker's SFE inputs are
// fused ops into ciphertexts it owns and the controller decrypts into
// one integer, so neither allocates. Per step over these early steps:
// 770k with the operand-copying kernel, 288k with the in-place one,
// 92k with the SFE inputs destination-passed, 32k with payloads dealt
// into superseded counters, 22k with one-object ciphertexts.
func TestSecureStepAllocBudgetShamir(t *testing.T) {
	const (
		resources, growth = 8, 10
		seedTxns          = 1200
		warm, measured    = 10, 20
		budget            = 120_000 // 1.3 × the 92,287 measured per step
	)
	all := GenerateQuestWith(QuestParams{NumTransactions: seedTxns + resources*growth*(warm+measured),
		NumItems: 24, NumPatterns: 10, AvgTransLen: 5, AvgPatternLen: 2, Seed: 7})
	db := &Database{Tx: all.Tx[:seedTxns]}
	feeds := make([][]Transaction, resources)
	for i, tx := range all.Tx[seedTxns:] {
		feeds[i%resources] = append(feeds[i%resources], tx)
	}
	grid, err := NewGridWithFeed(db, feeds, GridConfig{
		Algorithm: AlgorithmSecure, Crypto: CryptoShamir, Resources: resources, K: 3,
		MinFreq: 0.12, MinConf: 0.6, ScanBudget: 50, MaxRuleItems: 3,
		GrowthPerStep: growth, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()
	grid.Step(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	grid.Step(measured)
	runtime.ReadMemStats(&after)
	perStep := (after.Mallocs - before.Mallocs) / measured
	t.Logf("%d mallocs per secure step", perStep)
	if perStep > budget {
		t.Fatalf("secure step costs %d mallocs, budget %d", perStep, budget)
	}
}

// TestShamirPaillierMinedRulesParity is the scheme-independence
// criterion: on a fixed seed the scheme choice must not perturb the
// protocol — the sim RNG stream is independent of the cryptosystem
// (encryption randomness comes from separate sources) — so the mined
// rule set of every resource must match rule-for-rule between the
// transparent Plain oracle and the Paillier and Shamir backends after
// the same number of steps.
func TestShamirPaillierMinedRulesParity(t *testing.T) {
	if testing.Short() {
		t.Skip("real crypto end-to-end")
	}
	db := smallDB(400, 37)
	run := func(c Crypto) []RuleSet {
		cfg := GridConfig{
			Algorithm: AlgorithmSecure, Resources: 3, K: 1, Crypto: c,
			MinFreq: 0.2, MinConf: 0.7, ScanBudget: 50, MaxRuleItems: 2, Seed: 37,
		}
		if c == CryptoPaillier {
			cfg.PaillierBits = 128
		}
		grid, err := NewGrid(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		grid.Step(600)
		outs := make([]RuleSet, cfg.Resources)
		for i := range outs {
			outs[i] = grid.Output(i)
		}
		return outs
	}
	plain := run(CryptoPlain)
	for _, c := range []Crypto{CryptoPaillier, CryptoShamir} {
		got := run(c)
		for i := range plain {
			if len(plain[i]) != len(got[i]) {
				t.Fatalf("resource %d: plain mined %d rules, %s %d", i, len(plain[i]), c, len(got[i]))
			}
			for _, r := range plain[i].Sorted() {
				if !got[i].Has(r) {
					t.Fatalf("resource %d: rule %s mined under plain but not %s", i, r.Key(), c)
				}
			}
		}
	}
}

func TestCryptoValidation(t *testing.T) {
	db := smallDB(100, 1)
	// "elgamal" was a backend once; it is refused like any unknown name,
	// by an error that lists what is accepted.
	for _, c := range []Crypto{"rot13", "elgamal"} {
		_, err := NewGrid(db, GridConfig{MinFreq: 0.5, MinConf: 0.5, Crypto: c})
		if err == nil {
			t.Fatalf("crypto scheme %q accepted", c)
		}
		for _, want := range []Crypto{CryptoPlain, CryptoPaillier, CryptoShamir} {
			if !strings.Contains(err.Error(), strconv.Quote(string(want))) {
				t.Fatalf("error for %q does not list %q: %v", c, want, err)
			}
		}
	}
	// PaillierBits alone implies CryptoPaillier (compatibility).
	g, err := NewGrid(db, GridConfig{MinFreq: 0.5, MinConf: 0.5, PaillierBits: 64, Resources: 2, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	g.Step(5)
}

// TestPlaintextRangeBound pins the |DB| ceiling every backend is held
// to at construction: the widest value a controller decrypts is
// 2·λd·|DB|·2^16 and must not pass (M−1)/2. Fixed plaintext spaces get
// the exact number; Paillier's N is random, so every row is also held
// to the defining inequality on both sides.
func TestPlaintextRangeBound(t *testing.T) {
	pins := map[Crypto][3]string{
		CryptoPlain:  {"30223145490365729367654", "3022314549036572936765", "288230376151711743"},
		CryptoShamir: {"879609302220", "87960930222", "8388607"}, // 2^23−1 at MinFreq = 1/3
	}
	ths := []struct {
		th  Thresholds
		den int64
	}{
		{Thresholds{MinFreq: 0.5, MinConf: 0.7}, 10},
		{Thresholds{MinFreq: 0.15, MinConf: 0.7}, 100},
		{Thresholds{MinFreq: 1.0 / 3, MinConf: 0.7}, 1 << 20},
	}
	for _, c := range []Crypto{CryptoPlain, CryptoPaillier, CryptoShamir} {
		scheme, err := buildScheme(GridConfig{Crypto: c, PaillierBits: 128, K: 2, Resources: 4})
		if err != nil {
			t.Fatal(err)
		}
		half := new(big.Int).Sub(scheme.PlaintextSpace(), big.NewInt(1))
		half.Rsh(half, 1)
		for i, row := range ths {
			got := core.MaxDBLen(scheme.PlaintextSpace(), row.th)
			if pin, ok := pins[c]; ok && got.String() != pin[i] {
				t.Errorf("%s λd=%d: MaxDBLen = %v, want %s", c, row.den, got, pin[i])
			}
			width := big.NewInt(2 * row.den << 16)
			at := new(big.Int).Mul(width, got)
			if over := new(big.Int).Add(at, width); at.Cmp(half) > 0 || over.Cmp(half) <= 0 {
				t.Errorf("%s λd=%d: MaxDBLen = %v is not the last |DB| with 2·λd·|DB|·2^16 ≤ %v", c, row.den, got, half)
			}
		}
	}

	// Through the facade: a 48-bit Paillier modulus at λd = 2^20 admits
	// fewer than 2^47/2^37 = 1024 transactions, and says so.
	_, err := NewGrid(smallDB(1100, 3), GridConfig{Resources: 2, K: 1,
		Crypto: CryptoPaillier, PaillierBits: 48, MinFreq: 1.0 / 3, MinConf: 0.7})
	if err == nil || !strings.Contains(err.Error(), "1100 transactions overflow paillier-48") ||
		!strings.Contains(err.Error(), "at most") {
		t.Fatalf("oversized database not refused by name and bound: %v", err)
	}
}

// TestGridMaxDBLen: the facade exposes the ceiling it checked the seed
// database against, so that whoever grows the database can keep to it:
// core.MaxDBLen for a secure grid, math.MaxInt64 where no scheme bounds
// the votes.
func TestGridMaxDBLen(t *testing.T) {
	db := smallDB(300, 5)
	for _, tc := range []struct {
		alg  Algorithm
		want int64
	}{
		{AlgorithmSecure, 8_388_607}, // Shamir at MinFreq = 1/3: 2^23−1
		{AlgorithmPlain, math.MaxInt64},
	} {
		g, err := NewGrid(db, GridConfig{Algorithm: tc.alg, Crypto: CryptoShamir, Resources: 4, K: 2,
			MinFreq: 1.0 / 3, MinConf: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		if got := g.MaxDBLen(); got != tc.want {
			t.Errorf("%s: MaxDBLen = %d, want %d", tc.alg, got, tc.want)
		}
		g.Close()
	}
}

func TestGridStats(t *testing.T) {
	db := smallDB(600, 17)
	for _, alg := range []Algorithm{AlgorithmSecure, AlgorithmPlain} {
		grid, err := NewGrid(db, GridConfig{Algorithm: alg, Resources: 4, K: 2,
			MinFreq: 0.15, MinConf: 0.7, ScanBudget: 50, MaxRuleItems: 2, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		grid.Step(80)
		st := grid.Stats()
		if st.MessagesSent == 0 || st.EngineSent == 0 {
			t.Fatalf("%s: no traffic recorded: %+v", alg, st)
		}
		if alg == AlgorithmSecure {
			if st.SFEs == 0 || st.BytesSent == 0 {
				t.Fatalf("secure: SFE/bytes counters idle: %+v", st)
			}
			if st.Violations != 0 {
				t.Fatalf("honest grid recorded violations: %+v", st)
			}
		}
	}
}

func TestFacadeFaultInjection(t *testing.T) {
	db := smallDB(1200, 21)
	grid, err := NewGrid(db, GridConfig{
		Algorithm: AlgorithmSecure, Resources: 6, K: 2,
		MinFreq: 0.15, MinConf: 0.7, ScanBudget: 50,
		MaxRuleItems: 2, Seed: 21,
		Faults: &FaultConfig{
			Seed:     21,
			DropProb: 0.10,
			DupProb:  0.05,
			Schedule: []FaultEvent{
				{At: 80, Crash: []int{2}},
				{At: 160, Restart: []int{2}},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Step through the crash window before polling quality, or the fast
	// small-grid convergence declares victory before the crash fires.
	grid.Step(170)
	if !grid.RunUntilQuality(0.9, 3000) {
		r, p := grid.Quality()
		t.Fatalf("lossy grid never reached 90/90: recall=%.3f precision=%.3f (faults %+v)",
			r, p, grid.FaultStats())
	}
	st := grid.FaultStats()
	if st.Dropped == 0 || st.Duplicated == 0 || st.CrashDrops == 0 {
		t.Fatalf("fault regime did not bite: %+v", st)
	}
	if len(grid.Reports()) != 0 {
		t.Fatalf("honest lossy grid produced reports: %v", grid.Reports())
	}
	// Fault-free grids report zero stats and keep the legacy behaviour.
	plain, err := NewGrid(db, GridConfig{Algorithm: AlgorithmSecure, Resources: 4, K: 2,
		MinFreq: 0.15, MinConf: 0.7, ScanBudget: 50, MaxRuleItems: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	plain.Step(20)
	if plain.FaultStats() != (FaultStats{}) {
		t.Fatalf("uninjected grid has fault stats: %+v", plain.FaultStats())
	}
}
