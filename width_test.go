package secmr

import (
	"reflect"
	"runtime"
	"testing"
)

// widthRun is everything a finished facade run reports.
type widthRun struct {
	Stats     GridStats
	Outputs   []RuleSet
	Evictions []int
	Faults    FaultStats
}

// TestGridWidthIndependence: a facade grid steps its resources on
// min(GOMAXPROCS, Resources) engine workers. Under every backend, with
// probabilistic link faults, an adversary switched on by the fault
// schedule and quarantine, one seed must give the same run at
// GOMAXPROCS 1, 2 and 8: the same Stats, every resource's Output, the
// same Evictions and FaultStats. The Majority-Rule and k-private miners
// face the same faults; adversaries and quarantine are secure-only.
func TestGridWidthIndependence(t *testing.T) {
	db := GenerateQuestWith(QuestParams{NumTransactions: 600, NumItems: 12,
		NumPatterns: 6, AvgTransLen: 4, AvgPatternLen: 2, Seed: 11})
	base := GridConfig{Resources: 5, K: 2, MinFreq: 0.15, MinConf: 0.7,
		ScanBudget: 20, MaxRuleItems: 2, Seed: 11,
		Faults: &FaultConfig{Seed: 11, DropProb: 0.05, DupProb: 0.05, DelayJitter: 1}}
	type widthCase struct {
		name string
		cfg  GridConfig
	}
	var cases []widthCase
	for _, c := range []Crypto{CryptoPlain, CryptoShamir, CryptoPaillier} {
		cfg := base
		cfg.Algorithm, cfg.Crypto = AlgorithmSecure, c
		cfg.Quarantine = QuarantineConfig{Enabled: true}
		cfg.Adversaries = []AdversarySpec{{Node: 3, Kind: "forge-share", From: 15}}
		if c == CryptoPaillier {
			cfg.PaillierBits = 128
		}
		cases = append(cases, widthCase{string(c), cfg})
	}
	for _, alg := range []Algorithm{AlgorithmPlain, AlgorithmKPrivate} {
		cfg := base
		cfg.Algorithm = alg
		cases = append(cases, widthCase{string(alg), cfg})
	}
	for _, tc := range cases {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			run := func(procs int) widthRun {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				grid, err := NewGrid(db, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer grid.Close()
				grid.Step(50)
				r := widthRun{Stats: grid.Stats(), Evictions: grid.Evictions(), Faults: grid.FaultStats()}
				if cfg.Crypto == CryptoPaillier {
					// A Paillier ciphertext's length varies by a byte or two with
					// its randomness; every other counter is a function of the seed.
					r.Stats.BytesSent = 0
				}
				for i := 0; i < cfg.Resources; i++ {
					r.Outputs = append(r.Outputs, grid.Output(i))
				}
				return r
			}
			want := run(1)
			if (cfg.Quarantine.Enabled && len(want.Evictions) == 0) || want.Faults.Dropped == 0 || want.Faults.Duplicated == 0 {
				t.Fatalf("one worker: evictions %v, faults %+v — the scenario exercises nothing", want.Evictions, want.Faults)
			}
			for _, procs := range []int{2, 8} {
				got := run(procs)
				g, w := reflect.ValueOf(got), reflect.ValueOf(want)
				for i := 0; i < g.NumField(); i++ {
					if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
						t.Fatalf("GOMAXPROCS %d: %s %+v, one worker %+v", procs, g.Type().Field(i).Name,
							g.Field(i).Interface(), w.Field(i).Interface())
					}
				}
			}
		})
	}
}
