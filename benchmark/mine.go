package main

import (
	crand "crypto/rand"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"secmr"
	"secmr/internal/arm"
	"secmr/internal/core"
	"secmr/internal/hashing"
	"secmr/internal/homo"
	"secmr/internal/metrics"
	"secmr/internal/paillier"
	"secmr/internal/shamir"
	"secmr/internal/sim"
	"secmr/internal/topology"
)

// qualityTarget is the paper's §6.1 / Fig. 2 criterion: mean recall and
// mean precision both at or above 0.9.
const qualityTarget = 0.9

// minedGrid is the program under test as a mine episode drives it: the
// facade for end-to-end numbers, the hand-assembled twin for traced ones.
type minedGrid interface {
	Step()
	Output(i int) arm.RuleSet
	Stats() secmr.GridStats
	Close()
}

type facadeGrid struct{ g *secmr.Grid }

func (f facadeGrid) Step()                    { f.g.Step(1) }
func (f facadeGrid) Output(i int) arm.RuleSet { return f.g.Output(i) }
func (f facadeGrid) Stats() secmr.GridStats   { return f.g.Stats() }
func (f facadeGrid) Close()                   { f.g.Close() }

// tracedGrid is the facade's AlgorithmSecure wiring assembled from the
// internal packages with the timing wrappers on: the same partition,
// overlay, spanning tree, resources and engine secmr.NewGridWithFeed
// builds for the same GridConfig (TestWiringParity holds it to that).
type tracedGrid struct {
	engine    *sim.Engine
	resources []*core.Resource
	scheme    homo.Scheme // unwrapped, for the micro-timings
	t         *tracer

	ruleMsgs, grantMsgs int64
	captured            []core.RuleCipherMsg
}

func newScheme(w *workload) (homo.Scheme, error) {
	switch w.Crypto {
	case secmr.CryptoShamir:
		// The facade's committee rule: k plus up to four spare holders.
		return shamir.New(shamir.Params{K: w.K, N: w.K + min(4, w.Resources-w.K), W: 1})
	case secmr.CryptoPaillier:
		return paillier.GenerateKey(crand.Reader, w.PaillierBits)
	case secmr.CryptoPlain:
		return homo.NewPlain(96), nil
	}
	return nil, fmt.Errorf("benchmark: no scheme for crypto %q", w.Crypto)
}

func assembleTracedGrid(w *workload, in *mineInputs, t *tracer) (*tracedGrid, error) {
	cfg := w.gridConfig()
	rng := rand.New(rand.NewSource(cfg.Seed))
	parts := hashing.Partition(in.db, cfg.Resources, rng)
	overlay := topology.BarabasiAlbert(cfg.Resources, 2, topology.DelayRange{Min: 1, Max: 3}, rng)
	tree := overlay.SpanningTree(0)
	raw, err := newScheme(w)
	if err != nil {
		return nil, err
	}
	g := &tracedGrid{scheme: raw, t: t}
	scheme := &tracedScheme{inner: raw, t: t}
	nodes := make([]sim.Node, cfg.Resources)
	for i := range nodes {
		var feed core.Feed
		if i < len(in.feeds) && len(in.feeds[i]) > 0 {
			feed = core.NewSliceFeed(in.feeds[i])
		}
		r := core.NewResourceFeed(i, core.Config{
			Th:       arm.Thresholds{MinFreq: cfg.MinFreq, MinConf: cfg.MinConf},
			Universe: in.universe, ScanBudget: cfg.ScanBudget, CandidateEvery: 5,
			GrowthPerStep: cfg.GrowthPerStep, K: int64(cfg.K),
			MaxRuleItems: cfg.MaxRuleItems, IntraDelay: true,
		}, scheme, parts[i], feed, nil)
		g.resources = append(g.resources, r)
		nodes[i] = &tracedNode{inner: r, t: t, ruleMsgs: &g.ruleMsgs,
			grantMsgs: &g.grantMsgs, captured: &g.captured}
	}
	g.engine = sim.NewEngine(tree, nodes, cfg.Seed)
	return g, nil
}

func (g *tracedGrid) Step() {
	g.t.step++
	id, s := g.t.begin()
	g.engine.Step()
	g.t.end(spStep, id, s)
}

func (g *tracedGrid) Output(i int) arm.RuleSet { return g.resources[i].Output() }
func (g *tracedGrid) Close()                   {}

func (g *tracedGrid) Stats() secmr.GridStats {
	var st secmr.GridStats
	for _, r := range g.resources {
		bs, cs := r.Stats(), r.Controller.Stats()
		st.MessagesSent += bs.MessagesSent
		st.BytesSent += bs.BytesSent
		st.SFEs += cs.SFEs
		st.Fresh += cs.FreshDecisions
		st.Gated += cs.GatedDecisions
		st.Violations += cs.Violations
	}
	es := g.engine.Stats()
	st.EngineSent, st.EngineDelivered = es.Sent, es.Delivered
	return st
}

// checkEvery is the quality-check cadence in steps; reading all outputs
// costs about 15 ms on the churn workload, too much to pay every step.
const checkEvery = 5

// outputLog keeps every resource's rule set at every check as small
// integer ids, so the time to the quality target can be read off after
// the run against the truth of the database the grid ended up holding.
type outputLog struct {
	ids   map[string]uint32
	steps [][][]uint32
	step  []int
	at    []time.Duration // time spent in Step so far
	speed []float64       // the calibrator's factor over the steps so far
}

func (l *outputLog) record(outs []arm.RuleSet, step int, at time.Duration, speed float64) {
	if l.ids == nil {
		l.ids = map[string]uint32{}
	}
	row := make([][]uint32, len(outs))
	for i, rs := range outs {
		ids := make([]uint32, 0, len(rs))
		for key := range rs {
			id, ok := l.ids[key]
			if !ok {
				id = uint32(len(l.ids))
				l.ids[key] = id
			}
			ids = append(ids, id)
		}
		row[i] = ids
	}
	l.steps = append(l.steps, row)
	l.step = append(l.step, step)
	l.at = append(l.at, at)
	l.speed = append(l.speed, speed)
}

// firstReach returns the first check at which mean recall and precision
// met target.
func (l *outputLog) firstReach(truth arm.RuleSet, target float64) (check int, ok bool) {
	in := make([]bool, len(l.ids))
	for key := range truth {
		if id, ok := l.ids[key]; ok {
			in[id] = true
		}
	}
	for s, row := range l.steps {
		var recall, precision float64
		for _, ids := range row {
			hit := 0
			for _, id := range ids {
				if in[id] {
					hit++
				}
			}
			r, p := 1.0, 1.0
			if len(truth) > 0 {
				r = float64(hit) / float64(len(truth))
			}
			if len(ids) > 0 {
				p = float64(hit) / float64(len(ids))
			}
			recall += r
			precision += p
		}
		n := float64(len(row))
		if recall/n >= target && precision/n >= target {
			return s, true
		}
	}
	return 0, false
}

// episode is one grid's life: set-up, timed steps, reference check.
type episode struct {
	setup, gen, oracle, newgrid time.Duration

	steps    int
	stepMs   []float64
	wall     time.Duration // sum of the timed Step calls
	t90      time.Duration
	t90Step  int
	t90Speed float64 // the calibrator's factor over the steps up to t90
	reached  bool

	queryMs    []float64 // per resource, the median ScoredOutput call
	querySpeed float64   // the factor of the calibrator that ran beside the reads

	badResources int
	outSizes     []int // rules every resource holds at the end
	stats        secmr.GridStats
	truthSize    int

	// Filled when the episode reads runtime.MemStats around its steps.
	mallocs, allocBytes, gcPauseNs uint64
	gcCycles                       uint32

	traced *tracedGrid
}

type episodeOpts struct {
	steps     int     // exactly this many steps
	reads     bool    // time ScoredOutput on the final state
	memstats  bool    // read allocation and GC counters before and after the steps
	tracer    *tracer // non-nil: run the hand-assembled traced grid
	cal       *calibrator
	setupOnly bool
}

func runEpisode(w *workload, seed int64, o episodeOpts) (*episode, error) {
	ep := &episode{}
	th := w.thresholds()

	t0 := time.Now()
	in := makeMineInputs(w, seed, o.steps)
	ep.gen = in.genTime
	var truth arm.RuleSet
	if in.feeds == nil {
		// A static database has its reference before the first step.
		tOr := time.Now()
		truth = arm.GroundTruth(in.db, th, in.universe, w.MaxRuleItems)
		ep.oracle = time.Since(tOr)
	}
	tGrid := time.Now()
	var grid minedGrid
	var facade *secmr.Grid
	if o.tracer != nil {
		tg, err := assembleTracedGrid(w, in, o.tracer)
		if err != nil {
			return nil, err
		}
		grid, ep.traced = tg, tg
	} else {
		g, err := secmr.NewGridWithFeed(in.db, in.feeds, w.gridConfig())
		if err != nil {
			return nil, err
		}
		grid, facade = facadeGrid{g}, g
	}
	defer grid.Close()
	ep.newgrid = time.Since(tGrid)
	ep.setup = time.Since(t0)
	if o.setupOnly {
		return ep, nil
	}

	var before runtime.MemStats
	if o.memstats {
		runtime.ReadMemStats(&before)
	}
	var log outputLog
	outs := make([]arm.RuleSet, w.Resources)
	for ep.steps < o.steps {
		t := time.Now()
		grid.Step()
		d := time.Since(t)
		ep.steps++
		ep.wall += d
		ep.stepMs = append(ep.stepMs, ms(d))
		o.cal.beside(d)
		if ep.steps%checkEvery == 0 {
			for i := range outs {
				outs[i] = grid.Output(i)
			}
			log.record(outs, ep.steps, ep.wall, o.cal.factor())
		}
	}
	if o.memstats {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		ep.mallocs = after.Mallocs - before.Mallocs
		ep.allocBytes = after.TotalAlloc - before.TotalAlloc
		ep.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
		ep.gcCycles = after.NumGC - before.NumGC
	}
	if facade != nil && o.reads {
		var cal *calibrator
		if o.cal != nil {
			cal = newReadCalibrator()
		}
		ep.queryMs = medians(timeReads(facade, w.Resources, cal))
		ep.querySpeed = cal.factor()
	}

	if truth == nil {
		tOr := time.Now()
		truth = arm.GroundTruth(in.absorbed(w, ep.steps), th, in.universe, w.MaxRuleItems)
		ep.oracle = time.Since(tOr)
	}
	ep.truthSize = len(truth)
	if c, ok := log.firstReach(truth, qualityTarget); ok {
		ep.t90, ep.t90Step, ep.t90Speed, ep.reached = log.at[c], log.step[c], log.speed[c], true
	}
	for i := 0; i < w.Resources; i++ {
		out := grid.Output(i)
		ep.outSizes = append(ep.outSizes, len(out))
		if r, p := metrics.RecallPrecision(out, truth); r < qualityTarget || p < qualityTarget {
			ep.badResources++
		}
	}
	ep.stats = grid.Stats()
	return ep, nil
}

// timeReads times Grid.ScoredOutput for readBudget (at least
// minReadSamples samples of every resource): a mine episode calls it after
// its last step, on a grid nothing else touches; a traced serve run calls
// it on the running service, lock waits included. It returns every
// resource's samples. One sample is the mean of the fewest calls on one
// resource that last readSample: a single call is tens of microseconds on
// the static workload, and a sample that short measures the clock and the
// scheduler (its median moved by a third between runs). cal, when not nil,
// runs its slices between the samples.
func timeReads(g *secmr.Grid, resources int, cal *calibrator) [][]float64 {
	callMs := make([][]float64, resources)
	var spent time.Duration
	for i := 0; i < resources*minReadSamples || spent < readBudget; i++ {
		t := time.Now()
		calls := 0
		for time.Since(t) < readSample {
			g.ScoredOutput(i % resources)
			calls++
		}
		d := time.Since(t)
		spent += d
		cal.beside(d)
		callMs[i%resources] = append(callMs[i%resources], ms(d)/float64(calls))
	}
	return callMs
}

// medians returns the median of each sample.
func medians(samples [][]float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = median(s)
	}
	return out
}

// startPoller runs one open-loop reader: call k is due at start+k/hz
// whatever happened before, and is timed from that due time, so a reader
// stalled behind a slow call charges the stall to the calls it delayed.
// lag records how late each call began. The returned func stops the
// reader and waits for it.
func startPoller(hz int, start time.Time, latMs, lagMs *[]float64, call func(k int)) func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		period := time.Second / time.Duration(hz)
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * period)
			select {
			case <-stop:
				return
			case <-time.After(time.Until(due)):
			}
			*lagMs = append(*lagMs, ms(time.Since(due)))
			call(k)
			*latMs = append(*latMs, ms(time.Since(due)))
		}
	}()
	return func() {
		close(stop)
		wg.Wait()
	}
}

// setupSamples is how many set-ups a run times; the median is setup_s.
const setupSamples = 5

// timeReads takes samples of readSample each for readBudget, at least
// minReadSamples of every resource.
const (
	minReadSamples = 5
	readSample     = 5 * time.Millisecond
	readBudget     = 2 * time.Second
)

// moreSetups reports whether a run should time another set-up: at least
// setupSamples, then as many as fit in a second (25 at most), because a
// 30 ms set-up with a random prime search in it needs more than five
// samples for its median to repeat.
func moreSetups(n int, began time.Time) bool {
	return n < setupSamples || (n < 25 && time.Since(began) < time.Second)
}

// mineFailures counts a mine episode's reference-check misses: resources
// whose final rule set is under the target, any verification violation,
// and never reaching the target at all.
func mineFailures(w *workload, ep *episode) (attempted, failed int) {
	attempted = w.Resources + 2
	failed = ep.badResources
	if ep.stats.Violations != 0 {
		failed++
	}
	if !ep.reached {
		failed++
	}
	return
}

// runMine is the untraced run of a mine workload: one grid stepped
// steps times, then timed reads of its final state, then set-ups.
//
//	op     one Grid.Step(1) call
//	query  one Grid.ScoredOutput(i) call on the final state, nothing else
//	       running (a reader beside a running Step waits for the facade lock:
//	       that wait is the op metric's). Each resource's call is the median
//	       of its samples over time; p50 and p95 are taken over the
//	       resources, so the tail is the resource that is slowest to read,
//	       not the moment the machine stalled
//	fresh  time spent in Step until mean recall and precision are >= 0.9
//	       against arm.GroundTruth of the database the grid holds at the end
func runMine(w *workload, seed int64, steps int) (*report, error) {
	rep := newReport(w, seed, false)
	cal := newCalibrator()
	ep, err := runEpisode(w, seed, episodeOpts{steps: steps, reads: true, cal: cal})
	if err != nil {
		return nil, err
	}
	peakRSS := peakRSSMiB() // before the extra set-ups add theirs
	setups, setupCal := []float64{sec(ep.setup)}, newCalibrator()
	for began := time.Now(); moreSetups(len(setups), began); {
		s, err := runEpisode(w, seed, episodeOpts{steps: steps, setupOnly: true})
		if err != nil {
			return nil, err
		}
		setups = append(setups, sec(s.setup))
		setupCal.beside(s.setup)
	}
	rep.attempted, rep.failed = mineFailures(w, ep)
	rep.note("episode: steps=%d wall=%.2fs t90=%.2fs@step%d truth=%d mined=%v sfes=%d msgs=%d bad_resources=%d violations=%d",
		ep.steps, sec(ep.wall), sec(ep.t90), ep.t90Step, ep.truthSize, ep.outSizes, ep.stats.SFEs,
		ep.stats.MessagesSent, ep.badResources, ep.stats.Violations)
	f := cal.factor()
	rep.note("calibration: %d slices between the steps; to read at reference speed, step times x %.4f, time to target x %.4f, read times x %.4f, set-ups x %.4f",
		cal.slices, f, ep.t90Speed, ep.querySpeed, setupCal.factor())
	rep.set("setup_s", median(setups)*setupCal.factor())
	rep.set("steps_per_s", float64(ep.steps)/sec(ep.wall)/f)
	rep.set("fresh_s", sec(ep.t90)*ep.t90Speed)
	rep.set("op_p50_ms", quantile(ep.stepMs, 0.50)*f)
	rep.set("op_p95_ms", quantile(ep.stepMs, 0.95)*f)
	rep.set("query_p50_ms", quantile(ep.queryMs, 0.50)*ep.querySpeed)
	rep.set("query_p95_ms", quantile(ep.queryMs, 0.95)*ep.querySpeed)
	rep.set("peak_rss_mb", peakRSS)
	rep.note("samples: setups=%d steps=%d resources read=%d", len(setups), len(ep.stepMs), len(ep.queryMs))
	return rep, nil
}

// runMineTraced is the traced run: a facade pass (untraced stepping, with
// allocation counters read around it) over the inputs and steps of the
// untraced run, then the hand-assembled traced twin over the same.
func runMineTraced(w *workload, seed int64, steps int, spansPath string) (*report, error) {
	rep := newReport(w, seed, true)
	// A throwaway episode first, so the facade pass does not pay for the
	// cold heap alone and the two passes compare like with like.
	if _, err := runEpisode(w, seed, episodeOpts{steps: min(10, steps)}); err != nil {
		return nil, err
	}
	// The per-layer times are printed as measured. Each pass has a
	// calibrator of its own all the same: the passes run one after the
	// other, so comparing them needs both at reference speed.
	plainCal, tracedCal := newCalibrator(), newCalibrator()
	plain, err := runEpisode(w, seed, episodeOpts{steps: steps, memstats: true, reads: true, cal: plainCal})
	if err != nil {
		return nil, err
	}
	t := newTracer()
	traced, err := runEpisode(w, seed, episodeOpts{steps: steps, tracer: t, cal: tracedCal})
	if err != nil {
		return nil, err
	}
	for _, ep := range []*episode{plain, traced} {
		a, f := mineFailures(w, ep)
		rep.attempted += a
		rep.failed += f
	}
	// The two passes ran the same program on the same inputs: their
	// protocol counters must agree.
	rep.attempted++
	if w.Crypto == secmr.CryptoPaillier {
		// Paillier ciphertexts vary in length by a byte or two with their
		// randomness; every other counter is a pure function of the seed.
		traced.stats.BytesSent = plain.stats.BytesSent
	}
	if plain.stats != traced.stats {
		rep.failed++
		rep.note("MISMATCH facade stats %+v != traced stats %+v", plain.stats, traced.stats)
	}

	n := float64(traced.steps)
	g := traced.traced
	rep.set("secmr.step_allocs", float64(plain.mallocs)/float64(plain.steps))
	rep.set("secmr.step_alloc_kb", float64(plain.allocBytes)/1024/float64(plain.steps))
	rep.set("secmr.gc_pause_ms", float64(plain.gcPauseNs)/1e6)
	rep.set("secmr.gc_cycles", float64(plain.gcCycles))
	rep.set("secmr.scored_output_us", median(plain.queryMs)*1e3)
	rep.set("secmr.newgrid_ms", ms(plain.newgrid))
	rep.set("secmr.step_p50_ms", quantile(plain.stepMs, 0.50))
	rep.set("secmr.step_p95_ms", quantile(plain.stepMs, 0.95))

	stepMs := t.totalMs(spStep)
	nodeMs := t.totalMs(spInit, spTick, spMsg)
	homoMs := t.totalMs(homoKinds...)
	rep.set("secmr.traced_step_ms", stepMs/n)
	rep.set("sim.self_ms_per_step", (stepMs-nodeMs)/n)
	rep.set("sim.msgs_per_step", float64(traced.stats.EngineSent)/n)
	rep.set("core.tick_ms_per_step", t.totalMs(spTick, spInit)/n)
	rep.set("core.msg_ms_per_step", t.totalMs(spMsg)/n)
	rep.set("core.self_ms_per_step", (nodeMs-homoMs)/n)
	rep.set("core.rulecipher_msgs_per_step", float64(g.ruleMsgs)/n)
	rep.set("core.grant_msgs", float64(g.grantMsgs))
	rep.set("core.sfe_per_step", float64(traced.stats.SFEs)/n)
	if d := traced.stats.Fresh + traced.stats.Gated; d > 0 {
		rep.set("core.gate_fresh_ratio", float64(traced.stats.Fresh)/float64(d))
	}
	rep.set("core.wire_bytes_per_step", float64(traced.stats.BytesSent)/n)
	for _, op := range []struct {
		name string
		kind uint8
	}{
		{"add_vec", spAddVec}, {"scalar_vec", spScalarVec}, {"rerandomize_vec", spRerandVec},
		{"encrypt_vec", spEncVec}, {"encrypt_zero_vec", spEncZeroVec},
		{"encrypt", spEncrypt}, {"decrypt", spDecrypt}, {"scalar_op", spScalarOp},
	} {
		rep.set("homo."+op.name+"_calls_per_step", float64(t.calls[op.kind])/n)
		rep.set("homo."+op.name+"_ms_per_step", t.totalMs(op.kind)/n)
	}
	rep.set("homo.total_ms_per_step", homoMs/n)
	microCodec(rep, g.captured, g.scheme)
	microOblivious(rep, g.scheme, w)
	rep.set("arm.oracle_ms", ms(plain.oracle))
	rep.set("quest.gen_ms", ms(plain.gen))
	plainStep := ms(plain.wall) / n * plainCal.factor()
	tracedStep := ms(traced.wall) / n * tracedCal.factor()
	spanNs := spanOverheadNs()
	rep.set("bench.trace_overhead_frac", 1-plainStep/tracedStep)
	rep.set("bench.span_overhead_ns", spanNs)
	rep.note("passes: facade steps=%d wall=%.2fs x %.3f; traced steps=%d wall=%.2fs x %.3f spans=%d",
		plain.steps, sec(plain.wall), plainCal.factor(), traced.steps, sec(traced.wall), tracedCal.factor(), len(t.spans))
	// The self times add up to the traced step by construction; what can
	// be wrong is the traced step itself, so it is held against the
	// untraced facade step, both at reference speed, less what the spans
	// cost. A note, not a failed check: it compares two timings.
	sum := stepMs / n * tracedCal.factor()
	less := float64(t.nextID) / n * spanNs / 1e6 * tracedCal.factor()
	off := (sum-less)/plainStep - 1
	verdict := "within"
	if math.Abs(off) > 0.10 {
		verdict = "WARN outside"
	}
	rep.note("self-time check: sim %.2f + core %.2f + homo %.2f = %.2f ms/step as measured; at reference speed %.2f less %.2f for %.0f spans = %.2f against the untraced facade step %.2f: %+.1f%%, %s 10%%",
		(stepMs-nodeMs)/n, (nodeMs-homoMs)/n, homoMs/n, stepMs/n, sum, less, float64(t.nextID)/n, sum-less, plainStep, 100*off, verdict)
	if spansPath != "" {
		if err := t.writeJSONL(spansPath); err != nil {
			return nil, err
		}
		rep.note("spans written to %s", spansPath)
	}
	return rep, nil
}
