package main

import (
	"math"
	"time"

	"secmr"
	"secmr/internal/arm"
)

// metricDef names one metric of the benchmark. The two tables below are
// the single source of truth: BENCHMARK.json must list exactly these
// (TestBenchmarkJSONMatchesDefs), and every run prints every one of
// them for the mode it ran in.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the library or of secmrd sees,
// measured with tracing off. Every workload reports every one of them;
// the per-workload meaning of the generic names (op, query, fresh) is
// fixed in README.md and in the comments of mine.go / serve.go.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"steps_per_s", "1/s", "higher", 0.25},
	{"fresh_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer are the traced-run numbers, <module>.<metric>. A metric a
// workload does not reach reads 0 there (README lists which).
var perLayer = []metricDef{
	{"secmr.step_allocs", "count", "lower", 0},
	{"secmr.step_alloc_kb", "KiB", "lower", 0},
	{"secmr.gc_pause_ms", "ms", "lower", 0},
	{"secmr.gc_cycles", "count", "lower", 0},
	{"secmr.scored_output_us", "us", "lower", 0},
	{"secmr.newgrid_ms", "ms", "lower", 0},
	{"secmr.step_p50_ms", "ms", "lower", 0},
	{"secmr.step_p95_ms", "ms", "lower", 0},
	{"secmr.traced_step_ms", "ms", "lower", 0},

	{"sim.self_ms_per_step", "ms", "lower", 0},
	{"sim.msgs_per_step", "count", "lower", 0},

	{"core.tick_ms_per_step", "ms", "lower", 0},
	{"core.msg_ms_per_step", "ms", "lower", 0},
	{"core.self_ms_per_step", "ms", "lower", 0},
	{"core.rulecipher_msgs_per_step", "count", "lower", 0},
	{"core.grant_msgs", "count", "lower", 0},
	{"core.sfe_per_step", "count", "lower", 0},
	{"core.gate_fresh_ratio", "ratio", "higher", 0},
	{"core.wire_bytes_per_step", "B", "lower", 0},
	{"core.codec_encode_ns_per_msg", "ns", "lower", 0},
	{"core.codec_decode_ns_per_msg", "ns", "lower", 0},
	{"core.codec_bytes_per_msg", "B", "lower", 0},

	{"oblivious.add_us", "us", "lower", 0},
	{"oblivious.rerandomize_us", "us", "lower", 0},
	{"oblivious.blind_signof_us", "us", "lower", 0},

	{"homo.add_vec_calls_per_step", "count", "lower", 0},
	{"homo.add_vec_ms_per_step", "ms", "lower", 0},
	{"homo.scalar_vec_calls_per_step", "count", "lower", 0},
	{"homo.scalar_vec_ms_per_step", "ms", "lower", 0},
	{"homo.rerandomize_vec_calls_per_step", "count", "lower", 0},
	{"homo.rerandomize_vec_ms_per_step", "ms", "lower", 0},
	{"homo.encrypt_vec_calls_per_step", "count", "lower", 0},
	{"homo.encrypt_vec_ms_per_step", "ms", "lower", 0},
	{"homo.encrypt_zero_vec_calls_per_step", "count", "lower", 0},
	{"homo.encrypt_zero_vec_ms_per_step", "ms", "lower", 0},
	{"homo.encrypt_calls_per_step", "count", "lower", 0},
	{"homo.encrypt_ms_per_step", "ms", "lower", 0},
	{"homo.decrypt_calls_per_step", "count", "lower", 0},
	{"homo.decrypt_ms_per_step", "ms", "lower", 0},
	{"homo.scalar_op_calls_per_step", "count", "lower", 0},
	{"homo.scalar_op_ms_per_step", "ms", "lower", 0},
	{"homo.total_ms_per_step", "ms", "lower", 0},

	{"service.ingest_handler_us", "us", "lower", 0},
	{"service.ingest_handler_allocs", "count", "lower", 0},
	{"service.rules_handler_us", "us", "lower", 0},
	{"service.steps_per_s", "1/s", "higher", 0},
	{"service.publishes_per_s", "1/s", "higher", 0},
	{"service.backlog_txns_max", "count", "lower", 0},
	{"service.inflight_bytes_max", "B", "lower", 0},
	{"service.shed_rate_count", "count", "lower", 0},
	{"service.shed_inflight_count", "count", "lower", 0},
	{"service.shed_frac", "ratio", "lower", 0},
	{"service.ingest_req_per_s", "1/s", "higher", 0},
	{"service.absorb_txns_per_s", "1/s", "higher", 0},
	{"service.ingest_p99_ms", "ms", "lower", 0},
	{"service.query_p99_ms", "ms", "lower", 0},
	{"service.fresh_p90_s", "s", "lower", 0},

	{"store.put_ms_p50", "ms", "lower", 0},
	{"store.put_ms_p99", "ms", "lower", 0},
	{"store.put_calls", "count", "lower", 0},
	{"store.query_us_p50", "us", "lower", 0},
	{"store.query_calls", "count", "lower", 0},
	{"store.wal_bytes", "B", "lower", 0},
	{"store.snapshots", "count", "lower", 0},

	{"arm.oracle_ms", "ms", "lower", 0},
	{"quest.gen_ms", "ms", "lower", 0},
	{"bench.gen_lag_p99_ms", "ms", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
	{"bench.span_overhead_ns", "ns", "lower", 0},
}

// Values every workload shares. They are constants, not workload fields,
// because nothing sets them apart: the Quest shape (T5 I2) and pattern
// table, the confidence threshold, the scan budget, and the GridConfig.Seed
// that draws the overlay, the spanning tree and the partition hash.
const (
	questAvgTrans = 5
	questAvgPat   = 2
	questSeed     = 7
	minConf       = 0.6
	scanBudget    = 50
	gridSeed      = 1
	tenants       = 16  // serve: tenant ids t0..t15, two per resource
	pollHz        = 100 // serve: rule reads per second on a fixed schedule (open loop)
)

// workload is one named input mix. Everything that shapes the cost of a
// run other than the arrangement of its transactions is fixed here:
// probes of the seed code showed the overlay drawn from GridConfig.Seed
// alone moves a mine run's wall time by 2x (194k vs 737k protocol
// messages for the same data), so --seed deals the transactions out
// (see sampler) and changes nothing else.
type workload struct {
	Name string
	Why  string
	Kind string // "mine" or "serve"

	Crypto       secmr.Crypto
	PaillierBits int
	Resources, K int

	// Quest distribution: a pool of PoolTxns transactions is generated
	// at every set-up; --seed orders it block by block.
	Items, Patterns int
	PoolTxns        int
	SeedTxns        int
	MinFreq         float64
	MaxRuleItems    int
	GrowthPerStep   int

	// mine: a run is StepsPerSecond*seconds steps, whatever the machine
	// makes of them, so two runs of one seed do the same work and are
	// checked against the same reference.
	StepsPerSecond float64

	IngestHz         int // serve_steady: background ingest requests per second (open loop)
	IngestBatch      int
	Markers          int // serve_steady: marker items seeded just under MinFreq, one wave each
	MarkerSeedFreq   float64
	MarkerBatch      int
	WaveDeadline     time.Duration
	MaxInflightBytes int64 // serve_overload: closed-loop clients against this byte budget
}

var workloads = []workload{
	{
		Name: "mine_churn_shamir",
		Why:  "dynamic database through the facade: every step absorbs 10 txns per resource and re-votes, the paper's anytime regime; the shamir backend keeps single crypto calls cheap, so call counts matter",
		Kind: "mine", Crypto: secmr.CryptoShamir, Resources: 8, K: 3,
		Items: 24, Patterns: 10, PoolTxns: 20000, SeedTxns: 1200, MinFreq: 0.12, MaxRuleItems: 3,
		GrowthPerStep: 10, StepsPerSecond: 10,
	},
	{
		Name: "mine_static_paillier",
		Why:  "the paper's cryptosystem on a static database: Paillier-1024 does nearly all the work, so a core change should not move it and a Paillier change should not move the shamir workloads",
		Kind: "mine", Crypto: secmr.CryptoPaillier, PaillierBits: 1024, Resources: 4, K: 2,
		Items: 10, Patterns: 4, PoolTxns: 2000, SeedTxns: 400, MinFreq: 0.4, MaxRuleItems: 2,
		StepsPerSecond: 1.2,
	},
	{
		Name: "serve_steady",
		Why:  "secmrd under a steady open-loop mix: trickle ingest, cursor polls beside it, 20 marker waves back to back timing accepted txn to readable rule; markers sit at 0.93xMinFreq so the db stays below 4x",
		Kind: "serve", Crypto: secmr.CryptoShamir, Resources: 8, K: 3,
		Items: 24, Patterns: 10, PoolTxns: 20000, SeedTxns: 1200, MinFreq: 0.12, MaxRuleItems: 3,
		GrowthPerStep: 10, IngestHz: 32, IngestBatch: 1,
		Markers: 20, MarkerSeedFreq: 0.93, MarkerBatch: 16, WaveDeadline: 10 * time.Second,
	},
	{
		Name: "serve_overload",
		Why:  "secmrd with the front door saturated: closed-loop keep-alive clients flat out against a 4 MiB in-flight budget, so decode and admission fill a core and every step absorbs a full GrowthPerStep",
		Kind: "serve", Crypto: secmr.CryptoShamir, Resources: 8, K: 3,
		Items: 24, Patterns: 10, PoolTxns: 20000, SeedTxns: 1200, MinFreq: 0.12, MaxRuleItems: 3,
		GrowthPerStep: 10, IngestBatch: 16,
		MaxInflightBytes: 4 << 20,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// steps is the length of a mine run.
func (w *workload) steps(seconds float64) int {
	return max(1, int(math.Round(w.StepsPerSecond*seconds)))
}

func (w *workload) thresholds() arm.Thresholds {
	return arm.Thresholds{MinFreq: w.MinFreq, MinConf: minConf}
}

func (w *workload) gridConfig() secmr.GridConfig {
	return secmr.GridConfig{
		Algorithm: secmr.AlgorithmSecure, Crypto: w.Crypto, PaillierBits: w.PaillierBits,
		Resources: w.Resources, K: w.K, MinFreq: w.MinFreq, MinConf: minConf,
		ScanBudget: scanBudget, MaxRuleItems: w.MaxRuleItems,
		GrowthPerStep: w.GrowthPerStep, Seed: gridSeed,
	}
}
