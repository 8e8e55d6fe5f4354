// Malicious-participant demo — the paper's headline property (§5.2):
// a taken-over broker that deviates from the protocol in any way that
// could threaten privacy is caught by the share and timestamp
// verification, broadcast to the whole grid, and cut off; a broker
// that merely injects garbage values harms only result validity, which
// is exactly the paper's claimed security boundary.
//
// The facade plants the same adversaries through GridConfig.Adversaries,
// but this example wires them into the protocol layer (internal/core,
// internal/attack) because it prints each resource's halt state and how
// many resources saw the report, which the facade does not expose.
//
// Run with: go run ./examples/malicious
package main

import (
	"fmt"
	"math/rand"

	"secmr/internal/arm"
	"secmr/internal/attack"
	"secmr/internal/core"
	"secmr/internal/hashing"
	"secmr/internal/homo"
	"secmr/internal/quest"
	"secmr/internal/sim"
	"secmr/internal/topology"
)

func main() {
	scenarios := []struct {
		name     string
		adv      core.Adversary
		expected string
	}{
		{"double-count a neighbour's votes", &attack.DoubleCount{Victim: 2},
			"caught by the share field (Σ shares ≠ 1)"},
		{"omit a neighbour's votes", &attack.Omit{Victim: 0},
			"caught by the share field (Σ shares ≠ 1)"},
		{"isolate one neighbour (sub-k privacy attack)", &attack.Isolate{Victim: 2},
			"caught by the share field before any sign is revealed"},
		{"replay stale counters (differencing attack)", &attack.Replay{Victim: 0},
			"caught by the timestamp vector"},
		{"inject garbage values", &attack.Garbage{Rng: rand.New(rand.NewSource(1))},
			"NOT detectable — harms validity only, never privacy (§5.2)"},
	}
	for _, sc := range scenarios {
		fmt.Printf("=== attack: %s ===\n", sc.name)
		runScenario(sc.adv)
		fmt.Printf("    (paper: %s)\n\n", sc.expected)
	}
}

func runScenario(adv core.Adversary) {
	const n = 5
	const evil = 1
	seed := int64(7)
	rng := rand.New(rand.NewSource(seed))
	global := quest.Generate(quest.Params{NumTransactions: n * 150, NumItems: 15,
		NumPatterns: 8, AvgTransLen: 4, AvgPatternLen: 2, Seed: seed})
	th := arm.Thresholds{MinFreq: 0.2, MinConf: 0.7}
	universe := arm.Itemset{}
	for i := 0; i < 15; i++ {
		universe = append(universe, arm.Item(i))
	}
	parts := hashing.Partition(global, n, rng)
	tree := topology.Line(n, topology.DelayRange{Min: 1, Max: 1}, rng)
	cfg := core.Config{Th: th, Universe: universe, ScanBudget: 40,
		CandidateEvery: 5, K: 2, MaxRuleItems: 3, IntraDelay: true}
	scheme := homo.NewPlain(96)
	resources := make([]*core.Resource, n)
	nodes := make([]sim.Node, n)
	for i := 0; i < n; i++ {
		var a core.Adversary
		if i == evil {
			a = adv
		}
		resources[i] = core.NewResource(i, cfg, scheme, parts[i], nil, a)
		nodes[i] = resources[i]
	}
	engine := sim.NewEngine(tree, nodes, seed)
	engine.Run(400)

	detected := false
	for _, r := range resources {
		for _, rep := range r.Reports() {
			if !detected {
				fmt.Printf("    DETECTED: %s\n", rep)
				detected = true
			}
		}
	}
	if !detected {
		fmt.Println("    no detection broadcast")
	}
	if resources[evil].Halted() {
		fmt.Println("    the malicious resource has been halted")
	}
	aware := 0
	for _, r := range resources {
		if len(r.Reports()) > 0 {
			aware++
		}
	}
	fmt.Printf("    %d/%d resources saw the report\n", aware, n)
}
