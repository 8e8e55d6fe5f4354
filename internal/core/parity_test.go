package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	mrand "math/rand"
	"reflect"
	"runtime"
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
	"secmr/internal/shamir"
	"secmr/internal/sim"
	"secmr/internal/topology"
)

// buildParityGrid assembles the same secure grid on an engine of the
// given width, with a private high-capacity trace sink per resource —
// the configuration under which per-node traces are bit-identical
// across widths (see sim.Engine). mutate and advFor are optional.
func buildParityGrid(t *testing.T, scheme homo.Scheme, workers int, mutate func(*Config),
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	return sim.NewParallelEngine(tree, nodes, seed), resources, sinks, truth
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
func parityRun(t *testing.T, scheme homo.Scheme, workers int) (rules []string, dag []byte) {
	t.Helper()
	e, resources, sinks, _ := buildParityGrid(t, scheme, workers, nil, nil)
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
// faults, so every engine at every width must reproduce it.
const (
	goldenParityRulesSHA = "f26e8671d3ee43331e1007c1d25de3e9d42d1cc88be24d547832d3f21ea3a652"
	goldenParityDAGSHA   = "2de2366a6135330f7bcfb2e79bda2268dd838b42ed270c43d98847434f84eed9"
)

// goldenFusedStateSHA is the SHA-256 of every resource's EncodeState
// after TestFusedOpParity's grid ran on the plain scheme, recorded
// before the candidate table moved into internal/arm. Shamir deals from
// crypto/rand, so only the plain run's ciphertext bytes repeat across
// processes (and on 386).
const goldenFusedStateSHA = "cd0abaa14da3313cf636f36b0763cec01e7e5aa2d1a8e5181c92d5bea4e77bbe"

func shaHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// parityWidths are the engine widths the parity tests compare.
var parityWidths = []int{2, 4, 16}

// TestShardedSecureGridParity is the tentpole determinism check at the
// protocol level: the full secure miner (oblivious counters, k-privacy
// gates, share dealings, candidate generation) must produce the same
// mined rules AND a byte-identical merged forensics DAG at 1, 2, 4 and
// 16 workers, and the one-worker run must match the recorded reference.
// A Shamir grid repeats the width comparison with every resource
// dealing on its own worker: its recycled ⊥ replies and transmit sums,
// and the aux draws of concurrent dealers.
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
	for _, w := range parityWidths {
		gotRules, gotDAG := parityRun(t, scheme, w)
		requireSameRun(t, fmt.Sprintf("workers=%d", w), gotRules, wantRules, gotDAG, wantDAG)
	}
	sh := shamir.MustNew(shamir.Params{K: 2, N: 5, W: 1})
	shRules, shDAG := parityRun(t, sh, 1)
	requireSameRun(t, "shamir workers=1", shRules, wantRules, shDAG, shDAG)
	for _, w := range parityWidths {
		gotRules, gotDAG := parityRun(t, sh, w)
		requireSameRun(t, fmt.Sprintf("shamir workers=%d", w), gotRules, shRules, gotDAG, shDAG)
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
// on — and requires identical rules, evictions and DAG bytes at 1, 2, 4
// and 16 workers.
func TestShardedInjectScheduleParity(t *testing.T) {
	scheme := homo.NewPlain(96)
	const crashed, amnesiac, evil = 2, 1, 4
	run := func(workers int) (rules []string, evictions string, dag []byte) {
		inj := faults.New(faults.Config{Seed: 3, Schedule: []faults.Event{
			{At: 40, Crash: []int{crashed}},
			{At: 60, Crash: []int{amnesiac}, Amnesia: true},
			{At: 80, Partition: [][]int{{0, 1}, {2, 3, 4}}},
			{At: 90, Restart: []int{crashed}},
			{At: 110, Restart: []int{amnesiac}},
			{At: 120, Heal: true},
			{At: 130, Corrupt: []int{evil}},
		}})
		e, resources, sinks, _ := buildParityGrid(t, scheme, workers,
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
			t.Fatalf("workers=%d: schedule inert: recovered=%d faults=%+v", workers, recovered, fs)
		}
		if es := e.Stats(); es.Dropped != fs.CrashDrops+fs.CutDrops {
			t.Fatalf("workers=%d: engine dropped %d, injector counted %+v", workers, es.Dropped, fs)
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
	for _, w := range parityWidths {
		gotRules, gotEvictions, gotDAG := run(w)
		if gotEvictions != wantEvictions {
			t.Fatalf("workers=%d: evictions %s, one worker %s", w, gotEvictions, wantEvictions)
		}
		requireSameRun(t, fmt.Sprintf("workers=%d", w), gotRules, wantRules, gotDAG, wantDAG)
	}
}

// TestShardedLossyRunReachesOracle: probabilistic injector faults (10%
// drop, 10% duplication) with an engine-wide tracer, which holds the
// engine at one worker. Every resource must mine exactly the
// ground-truth rule set, the loss audit over resource and engine traces
// must attribute every lost message to a recorded drop, and a repeat
// must be byte-identical.
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

// fusedRunState is everything plaintext-level a finished secure run
// leaves behind, per resource: what the fused-op tests compare.
type fusedRunState struct {
	Rules  [][]string
	Broker []BrokerStats
	Ctl    []ControllerStats
	Aggs   []map[string][3]int64
	Audit  [][]AuditEntry
}

// fusedRun drives the parity grid with auditing on and collects its
// fusedRunState, plus the digest of every resource's EncodeState in
// order (ciphertext bytes: only a run on the same scheme path matches).
func fusedRun(t *testing.T, scheme homo.Scheme) (fusedRunState, string) {
	t.Helper()
	e, resources, _, _ := buildParityGrid(t, scheme, 1, func(c *Config) { c.Audit = true }, nil)
	e.Run(300)
	var st fusedRunState
	var state []byte
	for _, r := range resources {
		state = append(state, r.EncodeState()...)
		if r.Halted() {
			t.Fatalf("resource halted: %+v", r.Reports())
		}
		rules := []string{}
		for key := range r.Output() {
			rules = append(rules, key)
		}
		sort.Strings(rules)
		aggs := map[string][3]int64{}
		for _, c := range r.Broker.cands {
			sum, count, num, ok := r.Broker.DebugAggregate(c.Key)
			if !ok {
				t.Fatalf("no aggregate for candidate %s", c.Key)
			}
			aggs[c.Key] = [3]int64{sum, count, num}
		}
		st.Rules = append(st.Rules, rules)
		st.Broker = append(st.Broker, r.Stats())
		st.Ctl = append(st.Ctl, r.Controller.Stats())
		st.Aggs = append(st.Aggs, aggs)
		st.Audit = append(st.Audit, r.Controller.AuditTrail())
	}
	return st, shaHex(state)
}

// requireSameFusedRun fails on the first field two runs disagree in.
func requireSameFusedRun(t *testing.T, label string, got, want fusedRunState) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			t.Fatalf("%s: %s differs from the native run", label, g.Type().Field(i).Name)
		}
	}
}

// countingShamir counts what reaches the scheme underneath an
// instrumented wrapper: fused ops, decrypts of every flavour, and the
// per-op Add/Sub/ScalarMul chain the fused op replaced.
type countingShamir struct {
	*shamir.Scheme
	lin, dec, chain int64
}

func (c *countingShamir) LinCombInto(dst *homo.Ciphertext, ms []int64, xs []*homo.Ciphertext) *homo.Ciphertext {
	c.lin++
	return c.Scheme.LinCombInto(dst, ms, xs)
}

func (c *countingShamir) DecryptSignedInto(dst *big.Int, x *homo.Ciphertext) *big.Int {
	c.dec++
	return c.Scheme.DecryptSignedInto(dst, x)
}

func (c *countingShamir) DecryptSigned(x *homo.Ciphertext) *big.Int {
	c.dec++
	return c.Scheme.DecryptSigned(x)
}

func (c *countingShamir) Decrypt(x *homo.Ciphertext) *big.Int {
	c.dec++
	return c.Scheme.Decrypt(x)
}

func (c *countingShamir) Add(a, b *homo.Ciphertext) *homo.Ciphertext {
	c.chain++
	return c.Scheme.Add(a, b)
}

func (c *countingShamir) Sub(a, b *homo.Ciphertext) *homo.Ciphertext {
	c.chain++
	return c.Scheme.Sub(a, b)
}

func (c *countingShamir) ScalarMul(m int64, a *homo.Ciphertext) *homo.Ciphertext {
	c.chain++
	return c.Scheme.ScalarMul(m, a)
}

// TestFusedOpParity: the broker's SFE inputs and the controller's reads
// go through homo.LinCombInto / homo.DecryptSignedInto, which Shamir
// runs natively in place and every other scheme through the helpers'
// serial fallback. The same seeded secure grid run both ways — natively,
// and with the capability hidden behind a bare struct{ homo.Scheme }
// (the path Plain, Paillier and any foreign wrapper take) — must agree
// on every resource's rule set, every stats counter, the decrypted
// aggregate of every candidate and the k-TTP audit trail entry for
// entry. A third run behind oblivious.InstrumentScheme (secmrd's
// wiring) must agree too, keep both capabilities, and account under
// op="lincomb" and op="decrypt" for every call that reached the scheme,
// with no per-op chain beside the fused one. The same grid on the plain
// scheme pins its snapshot bytes (goldenFusedStateSHA): a change to
// candidate order, companion links or any other encoded field fails.
func TestFusedOpParity(t *testing.T) {
	sh := shamir.MustNew(shamir.Params{K: 2, N: 5, W: 1})
	if _, state := fusedRun(t, homo.NewPlain(96)); state != goldenFusedStateSHA {
		t.Fatalf("plain run's snapshot bytes hash to %s, golden %s", state, goldenFusedStateSHA)
	}
	native, _ := fusedRun(t, sh)
	var mined, fresh int64
	for i := range native.Rules {
		mined += int64(len(native.Rules[i]))
		fresh += native.Ctl[i].FreshDecisions
	}
	if mined == 0 || fresh == 0 {
		t.Fatalf("native run mined %d rules with %d fresh decisions; nothing to compare", mined, fresh)
	}
	hidden, _ := fusedRun(t, struct{ homo.Scheme }{sh})
	requireSameFusedRun(t, "capability hidden", hidden, native)

	counting, sink := &countingShamir{Scheme: sh}, obs.NewSink()
	instrumented := oblivious.InstrumentScheme(counting, sink)
	if _, ok := instrumented.(homo.LinCombiner); !ok {
		t.Fatal("instrumented scheme lost LinCombInto")
	}
	if _, ok := instrumented.(homo.IntoDecryptor); !ok {
		t.Fatal("instrumented scheme lost DecryptSignedInto")
	}
	inst, _ := fusedRun(t, instrumented)
	requireSameFusedRun(t, "instrumented", inst, native)
	ops := map[string]int64{}
	for _, p := range sink.Reg.Snapshot() {
		if p.Name == "secmr_crypto_ops_total" {
			op := strings.TrimPrefix(p.Labels, `op="`)
			ops[op[:strings.IndexByte(op, '"')]] = int64(p.Value)
		}
	}
	if counting.lin == 0 || ops["lincomb"] != counting.lin {
		t.Fatalf(`op="lincomb" counts %d of %d fused ops`, ops["lincomb"], counting.lin)
	}
	if counting.dec == 0 || ops["decrypt"] != counting.dec {
		t.Fatalf(`op="decrypt" counts %d of %d decrypts`, ops["decrypt"], counting.dec)
	}
	if counting.chain != 0 {
		t.Fatalf("%d Add/Sub/ScalarMul calls beside the fused op", counting.chain)
	}
}
