// Package experiments contains the harnesses that regenerate every
// figure of the paper's evaluation (§6), shared by the repository-root
// benchmarks and by cmd/experiments. Each harness reproduces the
// experimental setup described in the paper — workload generation,
// partitioning, topology, step semantics — at a configurable scale,
// because the paper's full scale (2,000 resources × 10,000 local
// transactions, one-million-transaction databases) is available but
// not CI-sized. See EXPERIMENTS.md for measured-vs-paper comparisons.
package experiments

import (
	"secmr"
	"secmr/internal/arm"
	"secmr/internal/metrics"
	"secmr/internal/quest"
)

// Scale bundles every size knob of the §6 setup.
type Scale struct {
	Name           string
	Resources      int
	LocalDB        int // transactions per resource at t=0
	K              int64
	ScanBudget     int // transactions processed per step (paper: 100)
	CandidateEvery int // controller consultation period (paper: 5)
	GrowthPerStep  int // dynamic growth (paper: 20)
	MaxSteps       int
	SampleEvery    int
	NumItems       int
	NumPatterns    int
	MaxRuleItems   int
	MinFreq        float64
	MinConf        float64
	Seed           int64
}

// CI is the test/bench-sized scale: minutes, not days.
func CI() Scale {
	return Scale{
		Name: "ci", Resources: 12, LocalDB: 200, K: 4,
		ScanBudget: 50, CandidateEvery: 5, GrowthPerStep: 4,
		MaxSteps: 1500, SampleEvery: 25,
		NumItems: 24, NumPatterns: 10, MaxRuleItems: 3,
		MinFreq: 0.15, MinConf: 0.7, Seed: 1,
	}
}

// Paper is the §6 configuration: 2,000 resources, 10,000-transaction
// local databases sampled from a million-transaction global database,
// k = 10, 100 transactions per step, candidate generation every fifth
// step, +20 transactions per step.
func Paper() Scale {
	return Scale{
		Name: "paper", Resources: 2000, LocalDB: 10000, K: 10,
		ScanBudget: 100, CandidateEvery: 5, GrowthPerStep: 20,
		MaxSteps: 60000, SampleEvery: 100,
		NumItems: 1000, NumPatterns: 2000, MaxRuleItems: 0,
		MinFreq: 0.01, MinConf: 0.5, Seed: 1,
	}
}

// scans converts a step count to local-database scans (§6: one scan
// per LocalDB/ScanBudget steps).
func (sc Scale) scans(step int) float64 {
	if sc.LocalDB == 0 {
		return 0
	}
	return float64(step) * float64(sc.ScanBudget) / float64(sc.LocalDB)
}

// gridConfig is the facade configuration every figure starts from:
// the scale's knobs, and the secure miner over real Paillier when
// paillierBits > 0, otherwise over the plain stand-in (the figures
// count protocol steps, which are scheme independent).
func gridConfig(alg secmr.Algorithm, sc Scale, paillierBits int) secmr.GridConfig {
	crypto := secmr.CryptoPlain
	if paillierBits > 0 {
		crypto = secmr.CryptoPaillier
	}
	return secmr.GridConfig{
		Algorithm: alg, Resources: sc.Resources, K: int(sc.K),
		MinFreq: sc.MinFreq, MinConf: sc.MinConf,
		ScanBudget: sc.ScanBudget, CandidateEvery: sc.CandidateEvery,
		GrowthPerStep: sc.GrowthPerStep, MaxRuleItems: sc.MaxRuleItems,
		Crypto: crypto, PaillierBits: paillierBits, Seed: sc.Seed,
	}
}

// newGrid assembles one Figure 2/4 simulation through the facade: a
// Quest database of Resources×LocalDB transactions, partitioned with
// the pairwise-independent hasher over a BA-overlay spanning tree,
// plus per-resource feeds of fresh transactions from the same
// generator when the scale grows the database.
func newGrid(alg secmr.Algorithm, sc Scale, preset string, paillierBits int) (*secmr.Grid, error) {
	params, err := quest.Preset(preset, sc.Resources*sc.LocalDB, sc.Seed)
	if err != nil {
		return nil, err
	}
	params.NumItems = sc.NumItems
	params.NumPatterns = sc.NumPatterns
	gen := quest.NewGenerator(params)
	global := gen.Generate(params.NumTransactions)
	var feeds [][]arm.Transaction
	if sc.GrowthPerStep > 0 {
		feeds = make([][]arm.Transaction, sc.Resources)
		perResource := sc.MaxSteps * sc.GrowthPerStep / 50 // bounded feed
		for i := range feeds {
			feeds[i] = gen.Generate(perResource).Tx
		}
	}
	return secmr.NewGridWithFeed(global, feeds, gridConfig(alg, sc, paillierBits))
}

// convergenceRun drives a grid until recall and precision reach the
// target (or MaxSteps), sampling a metrics.Series along the way.
func convergenceRun(g *secmr.Grid, sc Scale, label string, target float64) *metrics.Series {
	s := &metrics.Series{Label: label}
	for step := 0; step <= sc.MaxSteps; step += sc.SampleEvery {
		rec, prec := g.Quality()
		s.Add(metrics.Point{Step: int64(step), Scans: sc.scans(step), Recall: rec, Precision: prec})
		if rec >= target && prec >= target {
			break
		}
		g.Step(sc.SampleEvery)
	}
	return s
}
