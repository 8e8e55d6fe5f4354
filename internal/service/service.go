// Package service hosts a live secmr grid behind a multi-tenant
// HTTP/JSON API: tenants stream transactions into their assigned grid
// resource's dynamic database, the k-secure mining protocol runs
// continuously in the background, and every published rule set lands
// in a durable result store that clients query with support/confidence
// filters and a change cursor.
//
// Admission control happens before anything reaches the grid: a
// per-tenant token bucket bounds each tenant's transaction rate, a
// global in-flight byte budget bounds queued bytes, and every resource
// feed holds at most maxQueueSteps steps of absorption. Each sheds load
// with 429 + Retry-After while the mining loop catches up — so the
// transport send queues behind the grid never overflow, and no admitted
// transaction waits more than maxQueueSteps steps; overload is absorbed
// at the front door and counted in service_shed_total.
package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"secmr"
	"secmr/internal/arm"
	"secmr/internal/obs"
	"secmr/internal/store"
)

// Config assembles a Service.
type Config struct {
	// Grid is the grid template (algorithm, crypto backend, resources,
	// thresholds, K...). GrowthPerStep bounds how many queued
	// transactions each resource absorbs per mining step (default 20).
	Grid secmr.GridConfig
	// Seed is the bootstrap database partitioned across the resources
	// at startup — the protocol needs a non-empty database before the
	// first tenant transaction arrives. Nil generates a small Quest
	// T5I2 set from Grid.Seed.
	Seed *secmr.Database
	// Store receives every published rule set. Required. The service
	// owns it from here: Close closes it.
	Store store.Store
	// StepEvery is the mining-loop cadence (default 25ms).
	StepEvery time.Duration
	// PublishEvery publishes rule sets to the store every N mining
	// steps (default 20).
	PublishEvery int
	// TenantRate is each tenant's sustained admission rate in
	// transactions/second (default 1000); TenantBurst the bucket depth
	// (default 2×rate).
	TenantRate  float64
	TenantBurst int
	// MaxInflightBytes is the global budget for queued-but-unmined
	// transaction bytes; past it every ingest sheds with 429 until the
	// mining loop drains (default 64 MiB). It guards against huge
	// transactions: the transaction count per feed is bounded apart
	// from it, at maxQueueSteps × GrowthPerStep.
	MaxInflightBytes int64
	// MaxTenants caps tenant registrations (default 1<<20).
	MaxTenants int
	// Obs wires the service_* metrics and the /metrics//healthz mux;
	// nil disables telemetry (nil-safe, like the rest of the tree).
	Obs *obs.Sink
	// Now is the clock (default time.Now; injectable for tests).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Grid.GrowthPerStep <= 0 {
		c.Grid.GrowthPerStep = 20
	}
	if c.StepEvery <= 0 {
		c.StepEvery = 25 * time.Millisecond
	}
	if c.PublishEvery <= 0 {
		c.PublishEvery = 20
	}
	if c.TenantRate <= 0 {
		c.TenantRate = 1000
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = int(2 * c.TenantRate)
	}
	if c.MaxInflightBytes <= 0 {
		c.MaxInflightBytes = 64 << 20
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 1 << 20
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// tenant is one registered tenant's admission and routing state.
type tenant struct {
	id       string
	resource int // grid resource its transactions feed
	bucket   *tokenBucket
	ingested atomic.Int64 // transactions admitted
}

// maxTenantGauges caps per-tenant metric registration: beyond this
// many tenants, labelled series would blow up the registry (and every
// scrape), so later tenants ride only the aggregate counters.
const maxTenantGauges = 64

// Service is a running multi-tenant mining service.
type Service struct {
	cfg   Config
	grid  *secmr.Grid
	feeds []*liveFeed
	st    store.Store

	inflight atomic.Int64
	steps    atomic.Int64
	epoch    atomic.Int64 // last published epoch (monotone across restarts)
	// dbLen counts the grid's database as admitted: the seed plus every
	// transaction answered 202, queued or absorbed. maxDB is the ceiling
	// the grid's sign SFE can vote on (Grid.MaxDBLen).
	dbLen atomic.Int64
	maxDB int64
	// backlogRetryAfter is the Retry-After of every backlog shed.
	backlogRetryAfter []string

	mu      sync.Mutex
	tenants map[string]*tenant
	order   []string // registration order, for round-robin assignment

	stop      chan struct{}
	done      chan struct{}
	started   atomic.Bool
	closeOnce sync.Once

	cIngestTxns  *obs.Counter
	cIngestBytes *obs.Counter
	cShedRate    *obs.Counter
	cShedBytes   *obs.Counter
	cShedCeiling *obs.Counter
	cShedBacklog *obs.Counter
	cPublishes   *obs.Counter
	cPubErrors   *obs.Counter
	hIngestBatch *obs.Histogram
}

// New builds the service: grid, feeds, admission state, and tenant
// re-registration from the store (so a restarted service keeps the
// tenant→resource mapping and epoch continuity). Call Start to begin
// mining.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, fmt.Errorf("service: Config.Store is required")
	}
	seed := cfg.Seed
	if seed == nil {
		db, err := secmr.GenerateQuest("T5I2", 1000, cfg.Grid.Seed+1)
		if err != nil {
			return nil, err
		}
		seed = db
	}
	s := &Service{cfg: cfg, st: cfg.Store,
		tenants: map[string]*tenant{},
		stop:    make(chan struct{}), done: make(chan struct{})}

	// One live feed per resource, all charging the shared budget.
	resources := cfg.Grid.Resources
	if resources <= 0 {
		resources = 16 // GridConfig default
	}
	feeds := make([]secmr.FeedSource, resources)
	s.feeds = make([]*liveFeed, resources)
	for i := range feeds {
		s.feeds[i] = newLiveFeed(&s.inflight, maxQueueSteps*cfg.Grid.GrowthPerStep)
		feeds[i] = s.feeds[i]
	}
	cfg.Grid.Telemetry = cfg.Obs
	grid, err := secmr.NewGridWithFeedSources(seed, feeds, cfg.Grid)
	if err != nil {
		return nil, err
	}
	s.grid = grid
	s.dbLen.Store(int64(seed.Len()))
	s.maxDB = grid.MaxDBLen()
	s.backlogRetryAfter = []string{retryAfter(s.retryStep())}

	// Epoch continuity: never publish at or below anything the store
	// already holds, or a restart would wedge every Put as stale.
	for _, id := range s.st.Tenants() {
		res, err := s.st.Query(id, store.Query{Limit: 1})
		if err != nil {
			grid.Close()
			return nil, err
		}
		if res.Epoch > s.epoch.Load() {
			s.epoch.Store(res.Epoch)
		}
	}
	// Re-register known tenants in sorted order so the round-robin
	// resource assignment is deterministic across restarts.
	for _, id := range s.st.Tenants() {
		s.registerLocked(id)
	}

	if reg := cfg.Obs.Registry(); reg != nil {
		s.cIngestTxns = reg.Counter("service_ingest_txns_total", "Transactions admitted into tenant feeds.")
		s.cIngestBytes = reg.Counter("service_ingest_bytes_total", "Byte charge of admitted transactions.")
		s.cShedRate = reg.Counter("service_shed_total", "Ingest batches shed by admission control.", "reason", "rate")
		s.cShedBytes = reg.Counter("service_shed_total", "Ingest batches shed by admission control.", "reason", "inflight")
		s.cShedCeiling = reg.Counter("service_shed_total", "Ingest batches shed by admission control.", "reason", "ceiling")
		s.cShedBacklog = reg.Counter("service_shed_total", "Ingest batches shed by admission control.", "reason", "backlog")
		s.cPublishes = reg.Counter("service_publishes_total", "Rule-set publish rounds completed.")
		s.cPubErrors = reg.Counter("service_publish_errors_total", "Tenant rule-set writes the result store refused during a publish.")
		s.hIngestBatch = reg.Histogram("service_ingest_batch_txns", "Admitted batch sizes.",
			[]float64{1, 4, 16, 64, 256, 1024, 4096})
		reg.GaugeFunc("service_inflight_bytes", "Queued-but-unmined transaction bytes against the budget.",
			func() float64 { return float64(s.inflight.Load()) })
		reg.GaugeFunc("service_backlog_txns", "Transactions queued in the resource feeds, not yet absorbed.",
			func() float64 { return float64(s.backlog()) })
		reg.GaugeFunc("service_tenants", "Registered tenants.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.tenants))
		})
		reg.GaugeFunc("service_steps", "Mining steps taken by the background loop.",
			func() float64 { return float64(s.steps.Load()) })
	}
	return s, nil
}

// registerLocked registers a tenant (idempotent); caller holds s.mu or
// is still single-threaded in New.
func (s *Service) registerLocked(id string) (*tenant, error) {
	if t, ok := s.tenants[id]; ok {
		return t, nil
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, fmt.Errorf("service: tenant limit %d reached", s.cfg.MaxTenants)
	}
	t := &tenant{id: id,
		resource: len(s.order) % len(s.feeds),
		bucket:   newTokenBucket(s.cfg.TenantRate, s.cfg.TenantBurst, s.cfg.Now())}
	s.tenants[id] = t
	s.order = append(s.order, id)
	if reg := s.cfg.Obs.Registry(); reg != nil && len(s.order) <= maxTenantGauges {
		reg.GaugeFunc("service_tenant_ingested_txns", "Transactions admitted for one tenant (first 64 tenants only).",
			func() float64 { return float64(t.ingested.Load()) }, "tenant", id)
	}
	return t, nil
}

// lookup returns the tenant, registering it on first contact.
func (s *Service) lookup(id string) (*tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.registerLocked(id)
}

// known returns the tenant if it is registered, nil if not; it never
// registers one.
func (s *Service) known(id string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[id]
}

// backlog is the transaction count queued across every resource feed.
func (s *Service) backlog() int {
	n := 0
	for _, f := range s.feeds {
		n += f.depth()
	}
	return n
}

// errCeiling refuses a batch that would take the grid's database past
// what its sign SFE can vote on (Grid.MaxDBLen): mined rules would be
// silently wrong from there on, and no retry can help.
var errCeiling = errors.New("service: the grid's database would pass the ceiling its encrypted votes can count to")

// errBacklog sheds a batch that would take its tenant's resource feed
// past maxQueueSteps steps of absorption.
var errBacklog = fmt.Errorf("service: shed: the resource feed holds %d steps of absorption", maxQueueSteps)

// reserve adds n to a counter unless that would take it past limit.
func reserve(v *atomic.Int64, n, limit int64) bool {
	for {
		cur := v.Load()
		if cur+n > limit {
			return false
		}
		if v.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// admit runs admission control for a batch and, when admitted, queues
// it on the tenant's resource feed and returns the feed's depth.
// shedFor > 0 means shed: retry after that long. errBacklog means shed
// because the feed is full (retry after a step); errCeiling means
// refused for good.
func (s *Service) admit(t *tenant, txs []arm.Transaction) (depth int, shedFor time.Duration, err error) {
	n := int64(len(txs))
	// The ceiling first: past it retrying cannot help, so it is no shed.
	if !reserve(&s.dbLen, n, s.maxDB) {
		s.cShedCeiling.Inc()
		return 0, 0, errCeiling
	}
	var bytes int64
	for _, tx := range txs {
		bytes += txCost(tx)
	}
	// Budget next (cheap atomic); bucket last, so a shed-by-budget
	// batch doesn't burn the tenant's tokens.
	if !reserve(&s.inflight, bytes, s.cfg.MaxInflightBytes) {
		s.dbLen.Add(-n)
		s.cShedBytes.Inc()
		return 0, s.retryStep(), nil
	}
	if ok, wait := t.bucket.take(len(txs), s.cfg.Now()); !ok {
		s.inflight.Add(-bytes)
		s.dbLen.Add(-n)
		s.cShedRate.Inc()
		return 0, wait + time.Millisecond, nil
	}
	// The feed bound last, exactly, under the feed's lock: every gate
	// before it gives its reservation back.
	depth, ok := s.feeds[t.resource].push(txs)
	if !ok {
		t.bucket.refund(len(txs))
		s.inflight.Add(-bytes)
		s.dbLen.Add(-n)
		return 0, 0, errBacklog
	}
	t.ingested.Add(int64(len(txs)))
	s.cIngestTxns.Add(int64(len(txs)))
	s.cIngestBytes.Add(bytes)
	s.hIngestBatch.Observe(float64(len(txs)))
	return depth, 0, nil
}

// retryStep is the Retry-After for a shed the mining loop clears: it
// drains GrowthPerStep per resource per StepEvery, so one step is the
// natural retry grain.
func (s *Service) retryStep() time.Duration {
	return s.cfg.StepEvery + time.Millisecond
}

// Start launches the background mining loop (at most once).
func (s *Service) Start() {
	if s.started.CompareAndSwap(false, true) {
		go s.loop()
	}
}

func (s *Service) loop() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.StepEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			// Final publish so the store holds the freshest rules the
			// grid reached before shutdown.
			s.publish()
			return
		case <-ticker.C:
			s.grid.Step(1)
			if n := s.steps.Add(1); n%int64(s.cfg.PublishEvery) == 0 {
				s.publish()
			}
		}
	}
}

// publish writes every tenant's current scored rule set to the store
// at the next epoch. Tenants sharing a resource share the scoring
// work.
func (s *Service) publish() {
	s.mu.Lock()
	assigned := make(map[int][]string) // resource → tenants
	for id, t := range s.tenants {
		assigned[t.resource] = append(assigned[t.resource], id)
	}
	s.mu.Unlock()
	if len(assigned) == 0 {
		return
	}
	epoch := s.epoch.Add(1)
	for resource, ids := range assigned {
		scored := s.grid.ScoredOutput(resource)
		rules := make([]store.Rule, len(scored))
		for i, sc := range scored {
			rules[i] = store.Rule{Key: sc.Rule.Key(), Support: sc.Support, Confidence: sc.Confidence}
		}
		sort.Strings(ids)
		for _, id := range ids {
			// Stale epochs can't happen here (epoch is monotone and
			// seeded from the store); a failed write leaves the tenant's
			// last rule set readable, so it is counted, not fatal.
			if err := s.st.Put(id, epoch, rules); err != nil {
				s.cPubErrors.Inc()
			}
		}
	}
	s.cPublishes.Inc()
}

// Grid exposes the underlying grid (introspection, tests).
func (s *Service) Grid() *secmr.Grid { return s.grid }

// Steps returns the mining steps taken so far.
func (s *Service) Steps() int64 { return s.steps.Load() }

// Close stops the mining loop (publishing one final time), closes the
// grid, and closes the store. Idempotent and safe to call
// concurrently.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		if !s.started.Load() {
			close(s.done)
		}
	})
	<-s.done
	s.grid.Close()
	return s.st.Close()
}
