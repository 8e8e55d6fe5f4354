// Package secmr is a from-scratch Go implementation of
// Secure-Majority-Rule — the k-secure distributed association-rule
// mining algorithm of Gilburd, Schuster and Wolff, "Privacy-Preserving
// Data Mining on Data Grids in the Presence of Malicious Participants"
// (HPDC 2004) — together with every substrate the paper builds on:
// Paillier oblivious counters, the Scalable-Majority voting protocol,
// the plain Majority-Rule and k-private baselines, an IBM-Quest-style
// data generator, a BRITE-style topology generator, a deterministic
// grid simulator and a TCP transport.
//
// This package is the public facade. Typical use:
//
//	db, _ := secmr.GenerateQuest("T10I4", 100_000, 1)
//	grid, _ := secmr.NewGrid(db, secmr.GridConfig{
//		Algorithm: secmr.AlgorithmSecure,
//		Resources: 64,
//		K:         10,
//		MinFreq:   0.02,
//		MinConf:   0.6,
//	})
//	grid.Step(2_000)
//	recall, precision := grid.Quality()
//	rules := grid.Output(0)
//
// The heavy lifting lives in internal packages (see DESIGN.md for the
// full inventory); executables under cmd/ and runnable scenarios under
// examples/ exercise this facade.
package secmr

import (
	"cmp"
	crand "crypto/rand"
	"fmt"
	"math/big"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"secmr/internal/arm"
	"secmr/internal/attack"
	"secmr/internal/core"
	"secmr/internal/faults"
	"secmr/internal/hashing"
	"secmr/internal/homo"
	"secmr/internal/majorityrule"
	"secmr/internal/metrics"
	"secmr/internal/oblivious"
	"secmr/internal/obs"
	"secmr/internal/paillier"
	"secmr/internal/persist"
	"secmr/internal/quest"
	"secmr/internal/shamir"
	"secmr/internal/sim"
	"secmr/internal/topology"
)

// Re-exported mining vocabulary.
type (
	// Item is a single item identifier.
	Item = arm.Item
	// Itemset is a sorted duplicate-free set of items.
	Itemset = arm.Itemset
	// Transaction is one customer transaction.
	Transaction = arm.Transaction
	// Database is an append-only list of transactions.
	Database = arm.Database
	// Rule is an association rule (or itemset-frequency fact).
	Rule = arm.Rule
	// RuleSet is a set of rules keyed canonically.
	RuleSet = arm.RuleSet
	// Thresholds carries MinFreq and MinConf.
	Thresholds = arm.Thresholds
	// MaliciousReport is the detection broadcast raised by controllers.
	MaliciousReport = core.MaliciousReport
	// QuarantineConfig enables eviction instead of halt on corroborated
	// malicious reports (see core.QuarantineConfig).
	QuarantineConfig = core.QuarantineConfig
	// FeedSource is a live dynamic-database growth stream: the resource
	// pulls up to GridConfig.GrowthPerStep transactions from it per step.
	// Implementations written from other goroutines (a live ingestion
	// endpoint) must do their own locking; see arm.Feed.
	FeedSource = arm.Feed
)

// NewSliceFeed wraps a fixed transaction slice as a FeedSource — the
// static shape NewGridWithFeed uses under the hood.
func NewSliceFeed(txs []Transaction) FeedSource { return arm.NewSliceFeed(txs) }

// AdversarySpec plants a live adversary inside one resource of an
// AlgorithmSecure grid: the resource runs the full honest protocol but
// its broker tampers with outbound counters according to Kind. Specs
// compose with GridConfig.Quarantine for end-to-end detect-and-evict
// runs, and with GridConfig.Faults for combined chaos regimes.
type AdversarySpec struct {
	// Node is the resource to corrupt.
	Node int
	// Kind selects the tamper strategy: "double-count", "omit",
	// "isolate", "replay", "garbage", "forge-share", "equivocate" or
	// "random" (see internal/attack).
	Kind string
	// Victim is the targeted neighbor for kinds that aim at one peer
	// (omit, isolate, replay); ignored by the rest.
	Victim int
	// From, when positive, delays the corruption: the node runs honestly
	// until simulation step From and turns Byzantine then (a scheduled
	// faults.Event.Corrupt under the hood). Zero corrupts from the start.
	From int64
}

// Fault-injection vocabulary (see internal/faults): a FaultConfig
// describes a seeded, deterministic link-fault regime — independent
// drop/duplication probabilities, bounded delay jitter, and a schedule
// of crashes, restarts, partitions and heals.
type (
	// FaultConfig configures the chaos regime for a Grid.
	FaultConfig = faults.Config
	// FaultEvent is one scheduled fault (crash/restart/partition/heal).
	FaultEvent = faults.Event
	// FaultStats counts what the injector actually did to the run.
	FaultStats = faults.Stats
)

// Telemetry vocabulary (see internal/obs): a Telemetry sink bundles a
// metrics registry and an event tracer, and a nil *Telemetry disables
// observation everywhere at near-zero cost (nil-safe instruments).
type (
	// Telemetry is the observability sink threaded through every layer
	// of a Grid when set on GridConfig.
	Telemetry = obs.Sink
	// TraceEvent is one structured protocol/transport event.
	TraceEvent = obs.Event
	// TraceEventType names a TraceEvent kind (obs.EvGrantSend, ...).
	TraceEventType = obs.EventType
	// TraceFilter selects trace events by type, node and rule.
	TraceFilter = obs.Filter
	// IntrospectionServer is a running /metrics + /healthz + /trace +
	// pprof HTTP endpoint.
	IntrospectionServer = obs.Server
)

// NewTelemetry builds an enabled telemetry sink (fresh registry,
// default-capacity trace ring).
func NewTelemetry() *Telemetry { return obs.NewSink() }

// NewItemset builds a canonical itemset.
func NewItemset(items ...Item) Itemset { return arm.NewItemset(items...) }

// Algorithm selects the mining protocol a Grid runs.
type Algorithm string

const (
	// AlgorithmSecure is the paper's Secure-Majority-Rule (malicious-
	// participant-tolerant, k-secure).
	AlgorithmSecure Algorithm = "secure"
	// AlgorithmKPrivate is the honest-but-curious k-private baseline.
	AlgorithmKPrivate Algorithm = "k-private"
	// AlgorithmPlain is non-private Majority-Rule.
	AlgorithmPlain Algorithm = "majority-rule"
)

// Crypto selects the homomorphic scheme for AlgorithmSecure grids.
type Crypto string

const (
	// CryptoPlain is the transparent stand-in (no privacy; identical
	// protocol behaviour; fast).
	CryptoPlain Crypto = "plain"
	// CryptoPaillier is the Paillier cryptosystem the paper uses.
	CryptoPaillier Crypto = "paillier"
	// CryptoShamir is packed Shamir secret sharing over GF(2^61−1):
	// counters are share vectors, homomorphic adds are componentwise
	// field additions (≈1000× cheaper than Paillier), and privacy is
	// information-theoretic — any coalition below the grid's k
	// threshold learns nothing, unconditionally. The trade-off: there
	// is no public/private key split, so it defends against sub-k
	// share-holder coalitions, not a curious broker holding a full
	// vector. See DESIGN.md §13.
	CryptoShamir Crypto = "shamir"
)

// buildScheme constructs the grid-wide cryptosystem.
func buildScheme(cfg GridConfig) (homo.Scheme, error) {
	switch cfg.Crypto {
	case CryptoPlain:
		return homo.NewPlain(96), nil
	case CryptoPaillier:
		s, err := paillier.GenerateKey(crand.Reader, cfg.PaillierBits)
		if err != nil {
			return nil, fmt.Errorf("secmr: paillier keygen: %w", err)
		}
		return s, nil
	case CryptoShamir:
		// The hiding threshold is matched to the protocol's k-gate: a
		// coalition that cannot open a counter cryptographically is
		// exactly one the k-gate would refuse anyway. Committee size
		// adds a little headroom above K (capped so share vectors stay
		// small on tiny grids).
		k := cfg.K
		if k < 1 {
			k = 1
		}
		n := k + min(4, cfg.Resources-k)
		if n < k {
			n = k
		}
		s, err := shamir.New(shamir.Params{K: k, N: n, W: 1})
		if err != nil {
			return nil, fmt.Errorf("secmr: shamir setup: %w", err)
		}
		return s, nil
	default:
		return nil, fmt.Errorf("secmr: unknown crypto scheme %q (want %q, %q or %q)",
			cfg.Crypto, CryptoPlain, CryptoPaillier, CryptoShamir)
	}
}

// Topology selects the overlay shape. The protocol runs on a spanning
// tree of the generated graph, as the paper assumes.
type Topology string

const (
	// TopologyBA is Barabási–Albert preferential attachment (the
	// paper's BRITE-generated topologies).
	TopologyBA Topology = "ba"
	// TopologyWaxman is the Waxman random geometric model.
	TopologyWaxman Topology = "waxman"
	// TopologyRandomTree is a uniform random recursive tree.
	TopologyRandomTree Topology = "tree"
	// TopologyLine is a path (worst-case diameter).
	TopologyLine Topology = "line"
)

// QuestParams exposes the synthetic-data generator's full parameter
// set (item universe size, pattern table size, correlation, ...).
type QuestParams = quest.Params

// GenerateQuest produces a synthetic market-basket database with the
// paper's generator presets ("T5I2", "T10I4", "T20I6") at their
// default 1000-item universe.
func GenerateQuest(preset string, transactions int, seed int64) (*Database, error) {
	p, err := quest.Preset(preset, transactions, seed)
	if err != nil {
		return nil, err
	}
	return quest.Generate(p), nil
}

// GenerateQuestWith produces a database from explicit generator
// parameters (zero fields take the Agrawal–Srikant defaults).
func GenerateQuestWith(p QuestParams) *Database { return quest.Generate(p) }

// MineCentral computes R[DB] exactly on one machine — the ground truth
// the distributed algorithms converge to (and the reference for
// Quality).
func MineCentral(db *Database, th Thresholds) RuleSet {
	return arm.GroundTruth(db, th, nil, 0)
}

// GridConfig configures a simulated data grid.
type GridConfig struct {
	// Algorithm defaults to AlgorithmSecure.
	Algorithm Algorithm
	// Resources is the number of grid resources (default 16).
	Resources int
	// K is the privacy parameter (default 10; ignored by
	// AlgorithmPlain).
	K int
	// MinFreq and MinConf are the mining thresholds (required).
	MinFreq, MinConf float64
	// ScanBudget is transactions processed per resource per step
	// (default 100, as in §6).
	ScanBudget int
	// CandidateEvery is the candidate-generation period in steps
	// (default 5).
	CandidateEvery int
	// GrowthPerStep feeds this many fresh transactions per resource
	// per step when Feed is set on NewGridWithFeed (default 0). Feeds
	// grow |DB| past what construction checked against the scheme's
	// plaintext range (see NewGridWithFeedSources).
	GrowthPerStep int
	// MaxRuleItems caps |LHS∪RHS| of candidate rules (0 = unlimited).
	MaxRuleItems int
	// Topology defaults to TopologyBA.
	Topology Topology
	// Crypto selects the homomorphic scheme backing the oblivious
	// counters (AlgorithmSecure only): CryptoPlain (default) is the
	// transparent stand-in — convergence figures are measured in
	// protocol steps, which are scheme independent; CryptoPaillier is
	// the paper's cryptosystem; CryptoShamir is packed Shamir secret
	// sharing — the constant-time raw-speed backend with
	// information-theoretic sub-k hiding.
	Crypto Crypto
	// PaillierBits sizes the Paillier modulus (default 1024).
	// Deprecated alias: setting it without Crypto implies
	// CryptoPaillier, preserving the original API.
	PaillierBits int
	// PaddingDance enables Algorithm 1's ±E(1) obfuscation sequence on
	// local vote changes (AlgorithmSecure only).
	PaddingDance bool
	// Seed makes the run reproducible.
	Seed int64
	// Faults, when non-nil, subjects every link of the simulated grid
	// to the configured chaos regime (drops, duplication, jitter,
	// crashes, partitions). AlgorithmSecure grids automatically enable
	// the loss-recovery timers (core.Config.LossyLinks) so the protocol
	// stays live; inspect the damage afterwards with FaultStats.
	Faults *FaultConfig
	// Telemetry, when non-nil, threads the observability sink through
	// every layer: protocol counters and trace events from the
	// resources, engine message/fault telemetry, and crypto-op timings
	// (the scheme is wrapped with an instrumenting decorator). nil
	// disables all observation at near-zero cost.
	Telemetry *Telemetry
	// StallPatience is how many consecutive SampleQuality samples
	// without recall improvement flag a resource as stalled (convergence
	// watchdog; default 8). Diagnostics only — it never alters the run.
	StallPatience int
	// FlightDir, when set, arms the black-box flight recorder (requires
	// Telemetry): on every notable incident — a convergence stall, an
	// eviction, a crash-with-amnesia recovery — the grid dumps the trace
	// ring, a metrics snapshot and the watchdog state into a bounded
	// directory of atomic per-incident dumps, readable post-mortem with
	// `secmr-trace flight` even when nothing was scraping the live
	// introspection endpoint. See obs.FlightRecorder.
	FlightDir string
	// NoisePool, when positive, starts a background precomputed-
	// randomness pool of that capacity on the grid's cryptosystem
	// (Paillier noise factors r^N; ignored by the other schemes). Only
	// useful with spare cores. Stop the workers with Grid.Close.
	NoisePool int
	// Persist, when non-nil, turns on durable state (AlgorithmSecure
	// only): snapshots + WAL per resource under Persist.Dir, and
	// crash-with-amnesia recovery — an amnesiac crash (FaultEvent.
	// Amnesia) wipes the in-memory resource, and its restart rebuilds
	// it from disk and rejoins it through the grid runtime.
	Persist *PersistConfig
	// Audit records every controller gate decision for offline k-TTP
	// admissibility checking (AlgorithmSecure only; see
	// core.Config.Audit). Costs memory linear in decisions.
	Audit bool
	// Quarantine, when Enabled, turns malicious-report handling from
	// halt into detect-and-evict (AlgorithmSecure only): resources
	// quarantine an accused member once a report carries cryptographic
	// evidence or EvictQuorum independent reporters corroborate it,
	// re-deal shares among the survivors and keep mining. The facade
	// additionally patches the overlay around evicted cut vertices so
	// the honest survivors stay connected. See Grid.Evictions.
	Quarantine QuarantineConfig
	// Adversaries plants live Byzantine participants (AlgorithmSecure
	// only). With Quarantine off a detection halts the victimized
	// resources, as the paper specifies; with Quarantine on the grid
	// evicts the cheaters and converges on the honest majority.
	Adversaries []AdversarySpec
}

// PersistConfig enables the durability subsystem (internal/persist) on
// an AlgorithmSecure grid: each resource journals its protocol state
// to Dir/node-<i> — key material, versioned snapshots written
// atomically, and an fsync-batched write-ahead log of every
// state-mutating event in between. A resource crashed with amnesia
// (FaultEvent.Amnesia, or the secmr-sim `!` crash prefix) is rebuilt
// from its directory alone on restart and rejoins the grid; without
// persistence an amnesiac resource stays down for good.
type PersistConfig struct {
	// Dir is the root state directory (one subdirectory per resource).
	Dir string
	// SnapshotEvery is the snapshot cadence in protocol ticks
	// (default 256). Each snapshot truncates the WAL.
	SnapshotEvery int
	// FsyncEvery batches WAL fsyncs: the log is flushed to disk every
	// this many records (default 64; 1 = synchronous). Clock-lease
	// records always fsync immediately regardless.
	FsyncEvery int
}

func (c GridConfig) withDefaults() GridConfig {
	if c.Algorithm == "" {
		c.Algorithm = AlgorithmSecure
	}
	if c.Resources == 0 {
		c.Resources = 16
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.ScanBudget == 0 {
		c.ScanBudget = 100
	}
	if c.CandidateEvery == 0 {
		c.CandidateEvery = 5
	}
	if c.Topology == "" {
		c.Topology = TopologyBA
	}
	if c.Crypto == "" {
		if c.PaillierBits > 0 {
			c.Crypto = CryptoPaillier
		} else {
			c.Crypto = CryptoPlain
		}
	}
	if c.PaillierBits == 0 {
		c.PaillierBits = 1024
	}
	return c
}

// miner is the common face of the resource implementations.
type miner interface {
	sim.Node
	Output() RuleSet
	// AppendOutputCounts appends every rule of Output with its counts
	// over the resource's whole current database.
	AppendOutputCounts(dst []arm.RuleCount) []arm.RuleCount
	DBSize() int
}

// Grid is a simulated data grid mining one (conceptually global)
// database that has been partitioned across its resources.
//
// All methods are safe for concurrent use: a monitoring goroutine may
// poll Stats, Quality, FaultStats, Output or Reports while another
// drives Step; the mutex serialises facade access. Inside a step the
// resources run on min(GOMAXPROCS, Resources) engine workers, one
// worker while Telemetry is set (sim.Engine), and a fixed Seed gives
// the same run at every width.
type Grid struct {
	mu     sync.Mutex
	cfg    GridConfig
	engine *sim.Engine
	miners []miner
	secure []*core.Resource // non-nil entries only for AlgorithmSecure
	// counts is ScoredOutput's scratch, reused so that a read allocates
	// only its result.
	counts []arm.RuleCount
	closed bool
	inject *faults.Injector // non-nil when cfg.Faults or a scheduled adversary is set
	truth  RuleSet
	step   int
	// healed marks evicted members whose overlay gap has been patched
	// (see healQuarantined).
	healed map[int]bool

	// stopPool stops the cryptosystem's background noise workers
	// (non-nil only when cfg.NoisePool > 0 started one).
	stopPool func()
	// intros tracks introspection servers started via ServeIntrospection
	// so Close can stop them deterministically.
	intros []*IntrospectionServer

	// Durability plumbing; populated only when cfg.Persist is set.
	coreCfg  core.Config // per-resource config sans feed, for recovery
	scheme   homo.Scheme // the (possibly instrumented) grid scheme
	journals []*persist.Journal
	recovers int64 // successful crash-with-amnesia recoveries

	// Telemetry plumbing; all nil (and all hooks no-ops) when
	// cfg.Telemetry is nil.
	obs          *obs.Sink
	watchdog     *obs.Watchdog
	flight       *obs.FlightRecorder
	recallGauges []*obs.Gauge
	gRecall      *obs.Gauge
	gPrecision   *obs.Gauge
	cStalls      *obs.Counter
}

// NewGrid partitions db across cfg.Resources resources (using the
// paper's pairwise-independent hashing) and assembles the simulation.
func NewGrid(db *Database, cfg GridConfig) (*Grid, error) {
	return NewGridWithFeed(db, nil, cfg)
}

// NewGridWithFeed additionally supplies per-resource feeds of future
// transactions, absorbed at cfg.GrowthPerStep per step — the paper's
// dynamic-database model. feeds may be nil or shorter than Resources.
func NewGridWithFeed(db *Database, feeds [][]Transaction, cfg GridConfig) (*Grid, error) {
	var srcs []FeedSource
	if feeds != nil {
		srcs = make([]FeedSource, len(feeds))
		for i, f := range feeds {
			if len(f) > 0 {
				srcs[i] = NewSliceFeed(f)
			}
		}
	}
	return NewGridWithFeedSources(db, srcs, cfg)
}

// NewGridWithFeedSources is NewGridWithFeed with live growth sources:
// each resource pulls from its FeedSource as it steps, so feeds backed
// by a queue (e.g. a mining service's ingestion endpoint) grow the
// grid's database while the anytime protocol runs. feeds may be nil,
// shorter than Resources, or contain nil entries (static resources).
//
// An AlgorithmSecure grid is refused when db is larger than the
// scheme's signed plaintext range can vote on: the widest value a
// controller decrypts is 2·λd·|DB|·2^16 (core.MaxDBLen derives it), and
// past (M−1)/2 the sign SFE would wrap silently. Only db is checked;
// transactions the feeds add later are the caller's to bound.
func NewGridWithFeedSources(db *Database, feeds []FeedSource, cfg GridConfig) (*Grid, error) {
	cfg = cfg.withDefaults()
	if cfg.MinFreq <= 0 || cfg.MinFreq > 1 || cfg.MinConf <= 0 || cfg.MinConf > 1 {
		return nil, fmt.Errorf("secmr: thresholds must be in (0,1]: MinFreq=%v MinConf=%v", cfg.MinFreq, cfg.MinConf)
	}
	if db.Len() == 0 {
		return nil, fmt.Errorf("secmr: empty database")
	}
	if cfg.Algorithm != AlgorithmPlain && cfg.K > cfg.Resources {
		return nil, fmt.Errorf("secmr: k=%d exceeds the %d resources: no resource could ever aggregate k participants, so nothing would ever be released (lower K or add resources)", cfg.K, cfg.Resources)
	}
	if cfg.Persist != nil {
		if cfg.Algorithm != AlgorithmSecure {
			return nil, fmt.Errorf("secmr: Persist requires AlgorithmSecure (got %q)", cfg.Algorithm)
		}
		if cfg.Persist.Dir == "" {
			return nil, fmt.Errorf("secmr: Persist.Dir must be set")
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	th := Thresholds{MinFreq: cfg.MinFreq, MinConf: cfg.MinConf}
	universe := db.Items()
	truth := arm.GroundTruth(db, th, universe, cfg.MaxRuleItems)
	parts := hashing.Partition(db, cfg.Resources, rng)
	overlay, err := buildTopology(cfg.Topology, cfg.Resources, rng)
	if err != nil {
		return nil, err
	}
	tree := overlay.SpanningTree(0)

	var scheme, rawScheme homo.Scheme
	var stopPool func()
	if cfg.Algorithm == AlgorithmSecure {
		scheme, err = buildScheme(cfg)
		if err != nil {
			return nil, err
		}
		if limit := core.MaxDBLen(scheme.PlaintextSpace(), th); limit.Cmp(big.NewInt(int64(db.Len()))) < 0 {
			return nil, fmt.Errorf("secmr: %d transactions overflow %s at MinFreq=%v MinConf=%v: a blinded vote must stay within ±(M−1)/2 of its plaintext space M=%v, which admits at most %v transactions",
				db.Len(), scheme.Name(), cfg.MinFreq, cfg.MinConf, scheme.PlaintextSpace(), limit)
		}
		rawScheme = scheme // pre-instrumentation, for key-material export
		if sc, ok := scheme.(*paillier.Scheme); ok && cfg.NoisePool > 0 {
			stopPool = sc.StartNoisePool(cfg.NoisePool, 1)
		}
		// Crypto-op counters/latency histograms ride on the scheme
		// itself; with a nil sink this returns scheme unwrapped.
		scheme = oblivious.InstrumentScheme(scheme, cfg.Telemetry)
	}

	g := &Grid{cfg: cfg, truth: truth, obs: cfg.Telemetry, stopPool: stopPool,
		scheme: scheme}
	// Fault injection and live adversaries share one injector: scheduled
	// corruptions (AdversarySpec.From) ride the fault schedule, so one
	// seed replays the whole chaos run, Byzantine flips included. The
	// injector must exist before the resources so delayed adversaries
	// can close over its Byzantine predicate.
	if len(cfg.Adversaries) > 0 && cfg.Algorithm != AlgorithmSecure {
		return nil, fmt.Errorf("secmr: Adversaries require AlgorithmSecure (got %q)", cfg.Algorithm)
	}
	var advFor map[int]core.Adversary
	{
		faultCfg := faults.Config{Seed: cfg.Seed}
		if cfg.Faults != nil {
			faultCfg = *cfg.Faults
		}
		needInject := cfg.Faults != nil
		if len(cfg.Adversaries) > 0 {
			advFor = map[int]core.Adversary{}
			sched := append([]FaultEvent(nil), faultCfg.Schedule...)
			for _, spec := range cfg.Adversaries {
				if spec.Node < 0 || spec.Node >= cfg.Resources {
					return nil, fmt.Errorf("secmr: adversary node %d outside [0,%d)", spec.Node, cfg.Resources)
				}
				if _, dup := advFor[spec.Node]; dup {
					return nil, fmt.Errorf("secmr: resource %d has two adversaries", spec.Node)
				}
				adv, err := attack.New(spec.Kind, cfg.Seed+int64(spec.Node)*1_000_003, spec.Victim)
				if err != nil {
					return nil, fmt.Errorf("secmr: %w", err)
				}
				advFor[spec.Node] = adv
				if spec.From > 0 {
					needInject = true
					sched = append(sched, FaultEvent{At: spec.From, Corrupt: []int{spec.Node}})
				}
			}
			sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
			faultCfg.Schedule = sched
		}
		if needInject {
			g.inject = faults.New(faultCfg)
			if cfg.Telemetry != nil {
				g.inject.SetObs(cfg.Telemetry)
			}
		}
		for _, spec := range cfg.Adversaries {
			if spec.From > 0 {
				node, inj := spec.Node, g.inject
				advFor[node] = &attack.Scheduled{Inner: advFor[node],
					Active: func() bool { return inj.Byzantine(node) }}
			}
		}
	}
	if reg := cfg.Telemetry.Registry(); reg != nil {
		g.gRecall = reg.Gauge("secmr_grid_recall", "Average recall against R[DB] at the last quality sample.")
		g.gPrecision = reg.Gauge("secmr_grid_precision", "Average precision against R[DB] at the last quality sample.")
		g.cStalls = reg.Counter("secmr_stalled_resources_total", "Resources flagged by the convergence watchdog (edge-triggered).")
		g.recallGauges = make([]*obs.Gauge, cfg.Resources)
		for i := range g.recallGauges {
			g.recallGauges[i] = reg.Gauge("secmr_resource_recall",
				"Per-resource recall against R[DB] at the last quality sample.",
				"resource", strconv.Itoa(i))
		}
		g.watchdog = obs.NewWatchdog(cfg.StallPatience, 1e-9, 0.99)
	}
	if cfg.FlightDir != "" {
		if cfg.Telemetry == nil {
			return nil, fmt.Errorf("secmr: FlightDir requires GridConfig.Telemetry")
		}
		fr, err := obs.NewFlightRecorder(cfg.FlightDir, cfg.Telemetry, g.watchdog, obs.FlightOptions{})
		if err != nil {
			return nil, fmt.Errorf("secmr: flight recorder: %w", err)
		}
		g.flight = fr
	}
	nodes := make([]sim.Node, cfg.Resources)
	for i := 0; i < cfg.Resources; i++ {
		var feed FeedSource
		if i < len(feeds) {
			feed = feeds[i]
		}
		var m miner
		switch cfg.Algorithm {
		case AlgorithmSecure:
			c := core.Config{Th: th, Universe: universe,
				ScanBudget: cfg.ScanBudget, CandidateEvery: cfg.CandidateEvery,
				GrowthPerStep: cfg.GrowthPerStep, K: int64(cfg.K),
				MaxRuleItems: cfg.MaxRuleItems, IntraDelay: true,
				PaddingDance: cfg.PaddingDance, LossyLinks: cfg.Faults != nil,
				Obs: cfg.Telemetry, Audit: cfg.Audit, Quarantine: cfg.Quarantine}
			g.coreCfg = c
			r := core.NewResourceFeed(i, c, scheme, parts[i], feed, advFor[i])
			if cfg.Persist != nil {
				j, err := persist.Open(g.persistDir(i), i, persist.Options{
					SnapshotEvery: cfg.Persist.SnapshotEvery,
					FsyncEvery:    cfg.Persist.FsyncEvery,
					Keys:          rawScheme,
					Obs:           cfg.Telemetry,
				})
				if err != nil {
					return nil, fmt.Errorf("secmr: persistence for resource %d: %w", i, err)
				}
				g.journals = append(g.journals, j)
				r.SetJournal(j)
			}
			g.secure = append(g.secure, r)
			m = r
		case AlgorithmKPrivate, AlgorithmPlain:
			mode := majorityrule.ModeKPrivate
			if cfg.Algorithm == AlgorithmPlain {
				mode = majorityrule.ModePlain
			}
			c := majorityrule.Config{Th: th, Universe: universe,
				ScanBudget: cfg.ScanBudget, CandidateEvery: cfg.CandidateEvery,
				GrowthPerStep: cfg.GrowthPerStep, K: int64(cfg.K), Mode: mode,
				MaxRuleItems: cfg.MaxRuleItems}
			m = majorityrule.NewResourceFeed(i, c, parts[i], feed)
		default:
			return nil, fmt.Errorf("secmr: unknown algorithm %q", cfg.Algorithm)
		}
		g.miners = append(g.miners, m)
		nodes[i] = m
	}
	g.engine = sim.NewParallelEngine(tree, nodes, cfg.Seed)
	if cfg.Persist != nil {
		g.engine.Recover = g.recoverNode
	}
	if cfg.Telemetry != nil {
		g.engine.SetObs(cfg.Telemetry)
	}
	if g.inject != nil {
		g.engine.Inject = g.inject
	}
	return g, nil
}

func buildTopology(t Topology, n int, rng *rand.Rand) (*topology.Graph, error) {
	d := topology.DelayRange{Min: 1, Max: 3}
	switch t {
	case TopologyBA:
		if n < 3 {
			return topology.Line(n, d, rng), nil
		}
		return topology.BarabasiAlbert(n, 2, d, rng), nil
	case TopologyWaxman:
		return topology.Waxman(n, 0.15, 0.2, d, rng), nil
	case TopologyRandomTree:
		return topology.RandomTree(n, d, rng), nil
	case TopologyLine:
		return topology.Line(n, d, rng), nil
	default:
		return nil, fmt.Errorf("secmr: unknown topology %q", t)
	}
}

// persistDir is resource i's durable state directory.
func (g *Grid) persistDir(i int) string {
	return filepath.Join(g.cfg.Persist.Dir, "node-"+strconv.Itoa(i))
}

// recoverNode is the sim.Engine.Recover hook: rebuild an amnesiac
// resource from its snapshot + WAL tail and hand it back to the
// engine, which re-announces it to the grid (Rejoin). Called from
// Step, which already holds g.mu — must not lock. A nil return keeps
// the node down for good (the safe answer when the disk state is
// gone or torn beyond the last snapshot).
func (g *Grid) recoverNode(id int) sim.Node {
	if id >= len(g.journals) || g.journals[id] == nil {
		return nil
	}
	old := g.secure[id]
	old.SetJournal(nil)
	g.journals[id].Close()
	g.journals[id] = nil
	dir := g.persistDir(id)
	r, _, err := persist.Recover(dir, persist.RecoverOptions{
		Cfg: g.coreCfg, Scheme: g.scheme, Obs: g.obs,
	})
	if err != nil {
		return nil
	}
	j, err := persist.Open(dir, id, persist.Options{
		SnapshotEvery: g.cfg.Persist.SnapshotEvery,
		FsyncEvery:    g.cfg.Persist.FsyncEvery,
		Obs:           g.cfg.Telemetry,
	})
	if err != nil {
		return nil
	}
	r.SetJournal(j)
	g.journals[id] = j
	g.secure[id] = r
	g.miners[id] = r
	g.recovers++
	g.flight.Dump("recover", map[string]any{"node": id, "recoveries": g.recovers})
	return r
}

// Recoveries reports how many crash-with-amnesia recoveries the grid
// has performed (resources rebuilt from disk and rejoined).
func (g *Grid) Recoveries() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.recovers
}

// Step advances the grid n simulation steps (§6 semantics: each
// resource processes ScanBudget transactions per step).
func (g *Grid) Step(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.engine.Run(n)
	g.step += n
	g.healQuarantined()
}

// healQuarantined patches the overlay around newly quarantined members.
// The protocol runs on a spanning tree, so an evicted member is usually
// a cut vertex: its honest neighbors would be stranded in separate
// components and never again aggregate k participants. Linking those
// neighbors consecutively (guarded by HasEdge, so healing is
// idempotent) restores one connected tree over the survivors; the
// OnNeighborJoin handshake re-deals shares across each new edge.
// Called with g.mu held, between engine steps.
func (g *Grid) healQuarantined() {
	if !g.cfg.Quarantine.Enabled || g.secure == nil {
		return
	}
	evicted := map[int]bool{}
	for _, r := range g.secure {
		for _, v := range r.Evicted() {
			evicted[v] = true
		}
	}
	fresh := make([]int, 0, len(evicted))
	for v := range evicted {
		if !g.healed[v] {
			fresh = append(fresh, v)
		}
	}
	sort.Ints(fresh) // deterministic healing order for replayable runs
	for _, v := range fresh {
		if g.healed == nil {
			g.healed = map[int]bool{}
		}
		g.healed[v] = true
		// The evicted member will never produce quality samples again;
		// dropping its watchdog state keeps Stalled() (and /healthz)
		// about live resources only.
		g.watchdog.Forget(v)
		g.flight.Dump("evict", map[string]any{"evicted_member": v, "step": g.step})
		var ring []int
		for _, u := range g.engine.Graph.Neighbors(v) {
			if !evicted[u] {
				ring = append(ring, u)
			}
		}
		sort.Ints(ring)
		for i := 0; i+1 < len(ring); i++ {
			if u, w := ring[i], ring[i+1]; !g.engine.Graph.HasEdge(u, w) {
				g.engine.AddLink(u, w, 2)
			}
		}
	}
}

// Evictions returns the members quarantined by at least one resource
// (sorted; empty unless GridConfig.Quarantine is enabled and someone
// cheated).
func (g *Grid) Evictions() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.evictionsLocked()
}

func (g *Grid) evictionsLocked() []int {
	set := map[int]bool{}
	for _, r := range g.secure {
		for _, v := range r.Evicted() {
			set[v] = true
		}
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Close shuts the grid down: stops the background crypto workers (the
// noise pool started by GridConfig.NoisePool), detaches and closes the
// durability journals, flushes a final flight-recorder dump, and stops
// every introspection server started via ServeIntrospection.
// Idempotent and safe to call concurrently with Step or SampleQuality
// — both become no-ops once Close has run (read-only accessors like
// Output, Quality and Stats keep working on the final state).
func (g *Grid) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	if g.stopPool != nil {
		g.stopPool()
		g.stopPool = nil
	}
	for i, j := range g.journals {
		if j == nil {
			continue
		}
		if g.secure[i] != nil {
			g.secure[i].SetJournal(nil)
		}
		j.Close()
		g.journals[i] = nil
	}
	// Final forensic flush: the trace ring and metrics snapshot would
	// otherwise die with the process even though a recorder was asked
	// for. Dump is nil-safe, so this costs nothing without FlightDir.
	g.flight.Dump("close", map[string]any{"step": g.step})
	intros := g.intros
	g.intros = nil
	g.mu.Unlock()
	// Stop servers outside the lock: their health handlers take g.mu,
	// so closing under it could deadlock with an in-flight probe.
	for _, s := range intros {
		s.Close()
	}
}

// Steps returns the number of steps taken.
func (g *Grid) Steps() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.step
}

// Resources returns the resource count.
func (g *Grid) Resources() int { return len(g.miners) }

// Output returns resource i's interim rule set R̃_i.
func (g *Grid) Output(i int) RuleSet {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.miners[i].Output()
}

// RuleScore is one mined rule annotated with the statistics a
// consumer filters on. Support and Confidence are measured against
// the scoring resource's local partition — the protocol never reveals
// other participants' numbers, only the k-secure majority decision,
// so local frequencies are the honest best estimate a resource can
// publish without weakening the privacy model.
type RuleScore struct {
	Rule       Rule
	Support    float64 // local frequency of the rule's item union
	Confidence float64 // local conf(LHS⇒RHS); 1 for frequency facts
}

// ScoredOutput returns resource i's interim rule set annotated with
// local support and confidence, sorted by descending support then
// rule key for deterministic output. The counts come from the
// resource's running scan totals, not a rescan of its database, so a
// read costs O(rules) and allocates only its result.
func (g *Grid) ScoredOutput(i int) []RuleScore {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.miners[i]
	g.counts = m.AppendOutputCounts(g.counts[:0])
	// Support is Sum/|DB| for every rule, so descending Sum is descending
	// Support.
	slices.SortFunc(g.counts, func(a, b arm.RuleCount) int {
		if c := cmp.Compare(b.Sum, a.Sum); c != 0 {
			return c
		}
		return strings.Compare(a.Key, b.Key)
	})
	n := float64(m.DBSize())
	scored := make([]RuleScore, len(g.counts))
	for j, rc := range g.counts {
		s := RuleScore{Rule: rc.Rule, Confidence: 1}
		if n > 0 {
			s.Support = float64(rc.Sum) / n
		}
		if len(rc.Rule.LHS) > 0 {
			s.Confidence = 0
			if rc.Count > 0 {
				s.Confidence = float64(rc.Sum) / float64(rc.Count)
			}
		}
		scored[j] = s
	}
	return scored
}

// Truth returns R[DB] computed centrally at construction time (static
// databases; with feeds the truth shifts as data arrives — recompute
// with MineCentral over the merged current partitions if needed).
func (g *Grid) Truth() RuleSet { return g.truth }

// Telemetry returns the sink the grid was built with (nil when
// observation is disabled).
func (g *Grid) Telemetry() *Telemetry { return g.obs }

// Quality returns the average recall and precision across resources
// against Truth (§6.1's measures).
func (g *Grid) Quality() (recall, precision float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.qualityLocked()
}

func (g *Grid) qualityLocked() (recall, precision float64) {
	outs := make([]RuleSet, len(g.miners))
	for i, m := range g.miners {
		outs[i] = m.Output()
	}
	return metrics.Average(outs, g.truth)
}

// SampleQuality computes per-resource recall/precision, publishes the
// telemetry gauges (secmr_grid_recall, secmr_resource_recall{resource})
// and feeds the convergence watchdog, returning the averages. Quality
// is read-only; SampleQuality is the observed variant — call it at the
// cadence stall patience should be measured in (secmr-sim samples once
// per table row).
func (g *Grid) SampleQuality() (recall, precision float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		// Don't touch the watchdog or flight recorder after Close; the
		// final quality numbers remain observable.
		return g.qualityLocked()
	}
	var sumR, sumP float64
	for i, m := range g.miners {
		r, p := metrics.RecallPrecision(m.Output(), g.truth)
		sumR += r
		sumP += p
		if g.recallGauges != nil {
			g.recallGauges[i].Set(r)
		}
		// Evicted members never converge again by design; keeping them
		// out of the watchdog feed (they were Forgotten on eviction)
		// keeps Stalled() and /healthz about live resources.
		if g.healed[i] {
			continue
		}
		if g.watchdog.Observe(i, r) {
			g.cStalls.Inc()
			g.obs.Emit(obs.Event{Type: obs.EvStall, Step: int64(g.step), Node: i,
				Peer: -1, Value: int64(g.watchdog.FlatSamples(i))})
			g.flight.Dump("stall", map[string]any{
				"node": i, "step": g.step, "flat_samples": g.watchdog.FlatSamples(i)})
		}
	}
	n := float64(len(g.miners))
	recall, precision = sumR/n, sumP/n
	g.gRecall.Set(recall)
	g.gPrecision.Set(precision)
	return recall, precision
}

// Stalled returns the resources the convergence watchdog currently
// flags (recall below target and flat for StallPatience samples); nil
// without telemetry.
func (g *Grid) Stalled() []int { return g.watchdog.Stalled() }

// ServeIntrospection starts the observability HTTP server (Prometheus
// /metrics, JSON /healthz with live step/quality/stall fields, JSONL
// /trace, expvar, pprof) on addr — use "127.0.0.1:0" for an ephemeral
// port and Addr() to discover it. The grid must have been built with
// GridConfig.Telemetry set. Close the returned server when done.
func (g *Grid) ServeIntrospection(addr string) (*IntrospectionServer, error) {
	if g.obs == nil {
		return nil, fmt.Errorf("secmr: introspection needs GridConfig.Telemetry")
	}
	srv, err := obs.Serve(addr, obs.ServerOpts{
		Registry: g.obs.Reg,
		Tracer:   g.obs.Tr,
		Health: func() map[string]any {
			g.mu.Lock()
			step := g.step
			r, p := g.qualityLocked()
			evicted := g.evictionsLocked()
			g.mu.Unlock()
			stalled := g.watchdog.Stalled()
			// A grid that has stalled resources or has evicted members is
			// up but degraded; the health endpoint surfaces that as a 503
			// so orchestration probes see it without parsing the body.
			status := "ok"
			if len(stalled) > 0 || len(evicted) > 0 {
				status = "degraded"
			}
			return map[string]any{
				"status": status,
				"step":   step, "recall": r, "precision": p,
				"stalled": stalled, "evictions": evicted,
			}
		},
	})
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		srv.Close()
		return nil, fmt.Errorf("secmr: grid is closed")
	}
	g.intros = append(g.intros, srv)
	g.mu.Unlock()
	return srv, nil
}

// RunUntilQuality steps the grid (in chunks) until both recall and
// precision reach target or maxSteps elapse; reports success.
func (g *Grid) RunUntilQuality(target float64, maxSteps int) bool {
	const chunk = 25
	for taken := 0; taken <= maxSteps; taken += chunk {
		if r, p := g.SampleQuality(); r >= target && p >= target {
			return true
		}
		g.Step(chunk)
	}
	r, p := g.SampleQuality()
	return r >= target && p >= target
}

// GridStats aggregates protocol-level counters across the grid.
type GridStats struct {
	// MessagesSent is the total protocol messages brokers originated.
	MessagesSent int64
	// BytesSent is the total rule-message bytes on the wire
	// (AlgorithmSecure only): exact compact-codec frame sizes.
	BytesSent int64
	// SFEs counts broker↔controller secure evaluations; Fresh of them
	// were answered with a data-dependent evaluation, Gated with the
	// k-gate's data-independent default or cache (AlgorithmSecure
	// only).
	SFEs, Fresh, Gated int64
	// Violations counts verification failures (share/timestamp) —
	// nonzero only when someone misbehaved.
	Violations int64
	// EngineSent/EngineDelivered are the simulator's message counters
	// (grants and reports included).
	EngineSent, EngineDelivered int64
}

// Stats aggregates counters across all resources.
func (g *Grid) Stats() GridStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	var st GridStats
	for _, r := range g.secure {
		bs := r.Stats()
		st.MessagesSent += bs.MessagesSent
		st.BytesSent += bs.BytesSent
		cs := r.Controller.Stats()
		st.SFEs += cs.SFEs
		st.Fresh += cs.FreshDecisions
		st.Gated += cs.GatedDecisions
		st.Violations += cs.Violations
	}
	if g.cfg.Algorithm != AlgorithmSecure {
		for _, m := range g.miners {
			if r, ok := m.(*majorityrule.Resource); ok {
				st.MessagesSent += r.Stats().MessagesSent
				st.Fresh += r.Stats().FreshDecisions
				st.Gated += r.Stats().GatedDecisions
			}
		}
	}
	es := g.engine.Stats()
	st.EngineSent, st.EngineDelivered = es.Sent, es.Delivered
	return st
}

// FaultStats reports what the fault injector actually did so far —
// zero-valued when GridConfig.Faults was nil.
func (g *Grid) FaultStats() FaultStats {
	if g.inject == nil {
		return FaultStats{}
	}
	return g.inject.Stats()
}

// Reports collects the malicious-participant reports observed anywhere
// in the grid (AlgorithmSecure only; empty otherwise).
func (g *Grid) Reports() []MaliciousReport {
	g.mu.Lock()
	defer g.mu.Unlock()
	seen := map[string]bool{}
	var out []MaliciousReport
	for _, r := range g.secure {
		for _, rep := range r.Reports() {
			key := rep.String()
			if !seen[key] {
				seen[key] = true
				out = append(out, rep)
			}
		}
	}
	return out
}
