package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	mrand "math/rand"
	"sort"
	"strings"
	"testing"

	"secmr/internal/arm"
	"secmr/internal/forensics"
	"secmr/internal/hashing"
	"secmr/internal/homo"
	"secmr/internal/obs"
	"secmr/internal/quest"
	"secmr/internal/sim"
	"secmr/internal/topology"
)

// stepRunner is the surface the parity test needs from either engine.
type stepRunner interface{ Run(int) }

// buildParityGrid assembles the same secure grid over either the
// single-threaded engine (shards == 0) or the sharded engine, with a
// private high-capacity trace sink per resource — the configuration
// under which the sharded engine guarantees bit-identical per-node
// traces (see internal/sim/shard.go).
func buildParityGrid(t *testing.T, scheme homo.Scheme, shards int) (stepRunner, []*Resource, []*obs.Sink) {
	t.Helper()
	const n, seed = 5, 3
	rng := mrand.New(mrand.NewSource(seed))
	params := quest.Params{NumTransactions: n * 150, NumItems: 25, NumPatterns: 10,
		AvgTransLen: 5, AvgPatternLen: 2, Seed: seed}
	global := quest.Generate(params)
	universe := arm.Itemset{}
	for i := 0; i < params.NumItems; i++ {
		universe = append(universe, arm.Item(i))
	}
	parts := hashing.Partition(global, n, rng)
	tree := topology.RandomTree(n, topology.DelayRange{Min: 1, Max: 2}, rng)
	cfg := Config{Th: arm.Thresholds{MinFreq: 0.15, MinConf: 0.7}, Universe: universe,
		ScanBudget: 50, CandidateEvery: 5, K: 2, MaxRuleItems: testMaxRuleItems,
		IntraDelay: true}

	resources := make([]*Resource, n)
	nodes := make([]sim.Node, n)
	sinks := make([]*obs.Sink, n)
	for i := 0; i < n; i++ {
		sinks[i] = &obs.Sink{Tr: obs.NewTracer(1 << 20)}
		c := cfg
		c.Obs = sinks[i]
		resources[i] = NewResource(i, c, scheme, parts[i], nil, nil)
		nodes[i] = resources[i]
	}
	if shards == 0 {
		return sim.NewEngine(tree, nodes, seed), resources, sinks
	}
	return sim.NewShardedEngine(tree, nodes, seed, shards), resources, sinks
}

// parityRun drives one grid for a fixed horizon and reduces it to the
// two comparands: the union of mined rule keys and the forensics DAG
// rendered to text.
func parityRun(t *testing.T, scheme homo.Scheme, shards int) (rules []string, dag []byte) {
	t.Helper()
	e, resources, sinks := buildParityGrid(t, scheme, shards)
	e.Run(300)

	set := map[string]bool{}
	for _, r := range resources {
		for key := range r.Output() {
			set[key] = true
		}
	}
	for key := range set {
		rules = append(rules, key)
	}
	sort.Strings(rules)

	traces := make([][]obs.Event, len(sinks))
	for i, s := range sinks {
		traces[i] = s.Tr.Events(obs.Filter{})
	}
	var buf bytes.Buffer
	if err := forensics.Merge(traces...).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return rules, buf.Bytes()
}

// Golden reference of parityRun on the single-heap engine, recorded at
// commit 8275c4e before the sharded scheduler was folded into
// sim.Engine: SHA-256 of the mined rule keys (sorted, newline-joined)
// and of the merged forensics DAG text (168 rules, 3,842,608 DAG
// bytes; both hashes repeat across processes). The run injects no
// faults, so every engine at every shard count must reproduce it.
const (
	goldenParityRulesSHA = "f26e8671d3ee43331e1007c1d25de3e9d42d1cc88be24d547832d3f21ea3a652"
	goldenParityDAGSHA   = "2de2366a6135330f7bcfb2e79bda2268dd838b42ed270c43d98847434f84eed9"
)

func shaHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestShardedSecureGridParity is the tentpole determinism check at the
// protocol level: the full secure miner (oblivious counters, k-privacy
// gates, share dealings, candidate generation) must produce the same
// mined rules AND a byte-identical merged forensics DAG under the
// single-threaded engine and the sharded engine at 1, 4 and 16 shards.
func TestShardedSecureGridParity(t *testing.T) {
	scheme := homo.NewPlain(96)
	wantRules, wantDAG := parityRun(t, scheme, 0)
	if len(wantRules) == 0 {
		t.Fatal("reference run mined nothing; horizon too short for a meaningful parity check")
	}
	if len(wantDAG) == 0 {
		t.Fatal("reference run traced nothing")
	}
	if got := shaHex([]byte(strings.Join(wantRules, "\n"))); got != goldenParityRulesSHA {
		t.Fatalf("reference rule list (%d rules) hashes to %s, golden %s", len(wantRules), got, goldenParityRulesSHA)
	}
	if got := shaHex(wantDAG); got != goldenParityDAGSHA {
		t.Fatalf("reference DAG (%d bytes) hashes to %s, golden %s", len(wantDAG), got, goldenParityDAGSHA)
	}
	for _, shards := range []int{1, 4, 16} {
		gotRules, gotDAG := parityRun(t, scheme, shards)
		if len(gotRules) != len(wantRules) {
			t.Fatalf("shards=%d: %d rules vs %d single-threaded", shards, len(gotRules), len(wantRules))
		}
		for i := range wantRules {
			if gotRules[i] != wantRules[i] {
				t.Fatalf("shards=%d: rule %d = %q, single-threaded mined %q", shards, i, gotRules[i], wantRules[i])
			}
		}
		if !bytes.Equal(gotDAG, wantDAG) {
			off := 0
			for off < len(gotDAG) && off < len(wantDAG) && gotDAG[off] == wantDAG[off] {
				off++
			}
			t.Fatalf("shards=%d: forensics DAG diverges at byte %d (%d vs %d bytes)",
				shards, off, len(gotDAG), len(wantDAG))
		}
	}
}
