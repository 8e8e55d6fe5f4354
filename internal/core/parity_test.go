package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	mrand "math/rand"
	"sort"
	"strings"
	"testing"

	"secmr/internal/arm"
	"secmr/internal/faults"
	"secmr/internal/forensics"
	"secmr/internal/hashing"
	"secmr/internal/homo"
	"secmr/internal/oblivious"
	"secmr/internal/obs"
	"secmr/internal/quest"
	"secmr/internal/sim"
	"secmr/internal/topology"
)

// buildParityGrid assembles the same secure grid at any shard count,
// with a private high-capacity trace sink per resource — the
// configuration under which per-node traces are bit-identical across
// shard counts (see sim.Engine). mutate and advFor are optional.
func buildParityGrid(t *testing.T, scheme homo.Scheme, shards int, mutate func(*Config),
	advFor func(id int) Adversary) (*sim.Engine, []*Resource, []*obs.Sink, arm.RuleSet) {
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
	if mutate != nil {
		mutate(&cfg)
	}
	truth := arm.GroundTruth(global, cfg.Th, universe, testMaxRuleItems)

	resources := make([]*Resource, n)
	nodes := make([]sim.Node, n)
	sinks := make([]*obs.Sink, n)
	for i := 0; i < n; i++ {
		sinks[i] = &obs.Sink{Tr: obs.NewTracer(1 << 20)}
		c := cfg
		c.Obs = sinks[i]
		var adv Adversary
		if advFor != nil {
			adv = advFor(i)
		}
		resources[i] = NewResource(i, c, scheme, parts[i], nil, adv)
		nodes[i] = resources[i]
	}
	return sim.NewShardedEngine(tree, nodes, seed, shards), resources, sinks, truth
}

// parityDigest reduces a finished run to the two comparands: the union
// of mined rule keys and the forensics DAG of every sink's trace
// rendered to text.
func parityDigest(t *testing.T, resources []*Resource, sinks []*obs.Sink) (rules []string, dag *forensics.DAG, text []byte) {
	t.Helper()
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
	dag = forensics.Merge(traces...)
	var buf bytes.Buffer
	if err := dag.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return rules, dag, buf.Bytes()
}

// parityRun drives one fault-free grid for a fixed horizon.
func parityRun(t *testing.T, scheme homo.Scheme, shards int) (rules []string, dag []byte) {
	t.Helper()
	e, resources, sinks, _ := buildParityGrid(t, scheme, shards, nil, nil)
	e.Run(300)
	rules, _, dag = parityDigest(t, resources, sinks)
	return rules, dag
}

// requireSameRun fails unless the rule lists and DAG texts are equal.
func requireSameRun(t *testing.T, label string, gotRules, wantRules []string, gotDAG, wantDAG []byte) {
	t.Helper()
	if strings.Join(gotRules, "\n") != strings.Join(wantRules, "\n") {
		t.Fatalf("%s: mined %d rules %q, reference %d rules %q", label, len(gotRules), gotRules, len(wantRules), wantRules)
	}
	if !bytes.Equal(gotDAG, wantDAG) {
		off := 0
		for off < len(gotDAG) && off < len(wantDAG) && gotDAG[off] == wantDAG[off] {
			off++
		}
		t.Fatalf("%s: forensics DAG diverges at byte %d (%d vs %d bytes)", label, off, len(gotDAG), len(wantDAG))
	}
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
// mined rules AND a byte-identical merged forensics DAG at 1, 4 and 16
// shards, and the one-shard run must match the recorded reference.
func TestShardedSecureGridParity(t *testing.T) {
	scheme := homo.NewPlain(96)
	wantRules, wantDAG := parityRun(t, scheme, 1)
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
	for _, shards := range []int{4, 16} {
		gotRules, gotDAG := parityRun(t, scheme, shards)
		requireSameRun(t, fmt.Sprintf("shards=%d", shards), gotRules, wantRules, gotDAG, wantDAG)
	}
}

// gatedAdversary keeps an adversary dormant until active reports true —
// a fault schedule's Corrupt event flips a previously honest resource.
type gatedAdversary struct {
	Adversary
	active func() bool
}

func (g gatedAdversary) TamperFull(pub homo.Public, rule string, parts map[int]*oblivious.Counter,
	history func(int) []*oblivious.Counter) *oblivious.Counter {
	if !g.active() {
		return nil
	}
	return g.Adversary.TamperFull(pub, rule, parts, history)
}

func (g gatedAdversary) TamperPayload(pub homo.Public, rule string, to int,
	h *oblivious.Counter) *oblivious.Counter {
	if !g.active() {
		return nil
	}
	return g.Adversary.TamperPayload(pub, rule, to, h)
}

// TestShardedInjectScheduleParity runs the secure miner under an
// injector schedule that draws no randomness — a plain crash, an
// amnesia crash rebuilt through Recover from a saved state image, a
// partition and heal, and a resource corrupted mid-run with quarantine
// on — and requires identical rules, evictions and DAG bytes at 1, 4
// and 16 shards: every verdict depends only on structural state that
// is fixed for the whole step.
func TestShardedInjectScheduleParity(t *testing.T) {
	scheme := homo.NewPlain(96)
	const crashed, amnesiac, evil = 2, 1, 4
	run := func(shards int) (rules []string, evictions string, dag []byte) {
		inj := faults.New(faults.Config{Seed: 3, Schedule: []faults.Event{
			{At: 40, Crash: []int{crashed}},
			{At: 60, Crash: []int{amnesiac}, Amnesia: true},
			{At: 80, Partition: [][]int{{0, 1}, {2, 3, 4}}},
			{At: 90, Restart: []int{crashed}},
			{At: 110, Restart: []int{amnesiac}},
			{At: 120, Heal: true},
			{At: 130, Corrupt: []int{evil}},
		}})
		e, resources, sinks, _ := buildParityGrid(t, scheme, shards,
			func(cfg *Config) { cfg.LossyLinks = true; cfg.Quarantine.Enabled = true },
			func(id int) Adversary {
				if id != evil {
					return nil
				}
				return gatedAdversary{&chaosBadShare{}, func() bool { return inj.Byzantine(evil) }}
			})
		e.Inject = inj
		var image []byte // the amnesiac resource's "disk", written before its crash
		recovered := 0
		e.Recover = func(id int) sim.Node {
			r, err := RestoreResource(id, resources[id].cfg, scheme, image)
			if err != nil {
				t.Errorf("restore %d: %v", id, err)
				return nil
			}
			r.RestageReplies()
			resources[id] = r
			recovered++
			return r
		}
		e.Run(50)
		image = resources[amnesiac].EncodeState()
		e.Run(250)

		fs := inj.Stats()
		if recovered != 1 || fs.AmnesiaWipes != 1 || fs.CrashDrops == 0 || fs.CutDrops == 0 || fs.Corruptions != 1 {
			t.Fatalf("shards=%d: schedule inert: recovered=%d faults=%+v", shards, recovered, fs)
		}
		if es := e.Stats(); es.Dropped != fs.CrashDrops+fs.CutDrops {
			t.Fatalf("shards=%d: engine dropped %d, injector counted %+v", shards, es.Dropped, fs)
		}
		for i, r := range resources {
			evictions += fmt.Sprintf("%d:%v ", i, r.Evicted())
		}
		rules, _, dag = parityDigest(t, resources, sinks)
		return rules, evictions, dag
	}
	wantRules, wantEvictions, wantDAG := run(1)
	if len(wantRules) == 0 || !strings.Contains(wantEvictions, fmt.Sprint([]int{evil})) {
		t.Fatalf("reference run: %d rules, evictions %s — nothing mined or the cheater went unnoticed",
			len(wantRules), wantEvictions)
	}
	for _, shards := range []int{4, 16} {
		gotRules, gotEvictions, gotDAG := run(shards)
		if gotEvictions != wantEvictions {
			t.Fatalf("shards=%d: evictions %s, one shard %s", shards, gotEvictions, wantEvictions)
		}
		requireSameRun(t, fmt.Sprintf("shards=%d", shards), gotRules, wantRules, gotDAG, wantDAG)
	}
}

// TestShardedLossyRunReachesOracle is the boundary case: probabilistic
// injector faults (10% drop, 10% duplication) at 4 shards draw from the
// injector's RNG in barrier order, so the run is not byte-equal to the
// one-shard run — it is held to the oracle instead. Every resource must
// mine exactly the ground-truth rule set, the loss audit over resource
// and engine traces must attribute every lost message to a recorded
// drop, and a repeat with the same (seed, shard count) must be
// byte-identical.
func TestShardedLossyRunReachesOracle(t *testing.T) {
	scheme := homo.NewPlain(96)
	run := func() ([]string, []byte) {
		e, resources, sinks, truth := buildParityGrid(t, scheme, 4,
			func(cfg *Config) { cfg.K = 1; cfg.LossyLinks = true }, nil)
		inj := faults.New(faults.Config{Seed: 5, DropProb: 0.1, DupProb: 0.1})
		e.Inject = inj
		engineSink := &obs.Sink{Tr: obs.NewTracer(1 << 20)}
		e.SetObs(engineSink)
		exact := func() bool {
			rec, prec := avgQuality(resources, truth)
			return rec == 1 && prec == 1
		}
		for step := 0; step < 3000 && !exact(); step += 50 {
			e.Run(50)
		}
		if rec, prec := avgQuality(resources, truth); rec != 1 || prec != 1 {
			t.Fatalf("lossy sharded run stuck at recall=%.3f precision=%.3f (faults %+v)", rec, prec, inj.Stats())
		}
		if fs := inj.Stats(); fs.Dropped == 0 || fs.Duplicated == 0 {
			t.Fatalf("fault injection inert: %+v", fs)
		}
		rules, dag, text := parityDigest(t, resources, append(sinks, engineSink))
		losses := dag.Losses(0)
		if un := losses.Unexplained(); len(un) != 0 {
			t.Fatalf("%d unexplained losses, first %+v", len(un), un[0])
		}
		if len(losses.Lost) == 0 {
			t.Fatal("loss audit saw no attributed drops; the engine trace is missing")
		}
		return rules, text
	}
	rules, dag := run()
	againRules, againDAG := run()
	requireSameRun(t, "repeat", againRules, rules, againDAG, dag)
}
