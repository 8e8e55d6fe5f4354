package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secmr"
	"secmr/internal/arm"
	"secmr/internal/store"
)

// testSeed is a small correlated bootstrap database: {1,2} is frequent
// everywhere, so every resource's mined set is non-empty within a few
// steps.
func testSeed() *secmr.Database {
	var txs []arm.Transaction
	for i := 0; i < 30; i++ {
		txs = append(txs, arm.NewItemset(1, 2))
	}
	for i := 0; i < 10; i++ {
		txs = append(txs, arm.NewItemset(3))
	}
	return arm.NewDatabase(txs...)
}

func testConfig(st store.Store) Config {
	return Config{
		Grid: secmr.GridConfig{
			Algorithm: secmr.AlgorithmPlain, Resources: 4,
			MinFreq: 0.3, MinConf: 0.6, Seed: 7,
		},
		Seed:         testSeed(),
		Store:        st,
		StepEvery:    time.Millisecond,
		PublishEvery: 2,
	}
}

func post(t *testing.T, srv *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestServiceIngestMineQuery(t *testing.T) {
	s, err := New(testConfig(store.NewMem()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Ingest a strongly-correlated batch for tenant "acme".
	batch := map[string]any{"txns": [][]int{{1, 2}, {1, 2}, {1, 2}, {1, 2, 3}, {2}}}
	resp := post(t, srv, "/v1/tenants/acme/txns", batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	ack := decode[ingestResponse](t, resp)
	if ack.Accepted != 5 {
		t.Fatalf("accepted %d", ack.Accepted)
	}

	// Mine until the store holds a publish for acme.
	s.Start()
	deadline := time.Now().Add(10 * time.Second)
	var rules rulesResponse
	for {
		resp, err := http.Get(srv.URL + "/v1/tenants/acme/rules")
		if err != nil {
			t.Fatal(err)
		}
		rules = decode[rulesResponse](t, resp)
		if rules.Epoch > 0 && len(rules.Rules) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no published rules before deadline: %+v", rules)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The ingested transactions must have been drained into the grid.
	if got := s.inflight.Load(); got != 0 {
		t.Fatalf("inflight bytes %d after mining", got)
	}

	// Filters must narrow the result.
	resp, err = http.Get(srv.URL + "/v1/tenants/acme/rules?min_support=1.1")
	if err != nil {
		t.Fatal(err)
	}
	if got := decode[rulesResponse](t, resp); len(got.Rules) != 0 {
		t.Fatalf("min_support=1.1 must filter everything, got %d", len(got.Rules))
	}

	// Cursor semantics: since=current epoch yields an empty delta.
	resp, err = http.Get(srv.URL + fmt.Sprintf("/v1/tenants/acme/rules?since=%d", rules.Epoch))
	if err != nil {
		t.Fatal(err)
	}
	if got := decode[rulesResponse](t, resp); got.Epoch < rules.Epoch {
		t.Fatalf("epoch went backwards: %d < %d", got.Epoch, rules.Epoch)
	}

	// Tenant listing includes acme with its assignment.
	resp, err = http.Get(srv.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	listing := decode[map[string][]tenantInfo](t, resp)
	if len(listing["tenants"]) != 1 || listing["tenants"][0].ID != "acme" {
		t.Fatalf("tenants: %+v", listing)
	}

	// Healthz is 200 with service fields.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}
	health := decode[map[string]any](t, resp)
	if health["status"] != "ok" {
		t.Fatalf("health: %+v", health)
	}
}

func TestServiceRateLimitShedding(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := testConfig(store.NewMem())
	cfg.TenantRate = 10
	cfg.TenantBurst = 5
	cfg.Now = func() time.Time { return now }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	batch := map[string]any{"txns": [][]int{{1}, {2}, {3}}}
	if resp := post(t, srv, "/v1/tenants/a/txns", batch); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first batch: %d", resp.StatusCode)
	}
	// 2 tokens left; a 3-txn batch must shed with a Retry-After hint.
	resp := post(t, srv, "/v1/tenants/a/txns", batch)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()
	if got := s.cShedRate.Value(); cfg.Obs != nil && got != 1 {
		t.Fatalf("shed counter %d", got)
	}
	// Tenants are isolated: tenant b still has a full bucket.
	if resp := post(t, srv, "/v1/tenants/b/txns", batch); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant b: %d", resp.StatusCode)
	}
	// After the refill window the same tenant is admitted again.
	now = now.Add(time.Second)
	if resp := post(t, srv, "/v1/tenants/a/txns", batch); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-refill: %d", resp.StatusCode)
	}
}

func TestServiceInflightBudgetShedding(t *testing.T) {
	cfg := testConfig(store.NewMem())
	cfg.Obs = secmr.NewTelemetry()
	cfg.MaxInflightBytes = 200 // a handful of transactions
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	big := map[string]any{"txns": [][]int{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}}
	if resp := post(t, srv, "/v1/tenants/a/txns", big); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first batch: %d", resp.StatusCode)
	}
	resp := post(t, srv, "/v1/tenants/a/txns", big)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429 over budget, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()
	if got := s.cShedBytes.Value(); got != 1 {
		t.Fatalf("inflight shed counter %d", got)
	}
	// Mining drains the queue and releases the budget; ingest recovers
	// without any client-side state.
	s.Start()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := post(t, srv, "/v1/tenants/a/txns", big)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("budget never released by the mining loop")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceRefusesPastTheCeiling: the service counts the grid's
// database — seed plus every admitted transaction — against the ceiling
// its sign SFE can vote on, and refuses a batch that would pass it with
// 507 (not 429: retrying cannot help), counted under
// service_shed_total{reason="ceiling"}. A refused batch leaves the count
// alone, and a batch that lands exactly on the ceiling is admitted. The
// ceiling is lowered white-box to five transactions above the seed;
// by default it is the grid's own (Grid.MaxDBLen).
func TestServiceRefusesPastTheCeiling(t *testing.T) {
	cfg := testConfig(store.NewMem())
	cfg.Obs = secmr.NewTelemetry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.maxDB != s.grid.MaxDBLen() {
		t.Fatalf("ceiling %d, want the grid's %d", s.maxDB, s.grid.MaxDBLen())
	}
	seedLen := int64(cfg.Seed.Len())
	if s.dbLen.Load() != seedLen {
		t.Fatalf("database counted at %d, want the %d seed transactions", s.dbLen.Load(), seedLen)
	}
	s.maxDB = seedLen + 5
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	three := map[string]any{"txns": [][]int{{1}, {2}, {3}}}
	two := map[string]any{"txns": [][]int{{1}, {2}}}
	for i, step := range []struct {
		batch map[string]any
		want  int
	}{
		{three, http.StatusAccepted},
		{three, http.StatusInsufficientStorage},
		{two, http.StatusAccepted},
		{map[string]any{"txns": [][]int{{1}}}, http.StatusInsufficientStorage},
	} {
		resp := post(t, srv, "/v1/tenants/a/txns", step.batch)
		resp.Body.Close()
		if resp.StatusCode != step.want {
			t.Fatalf("batch %d: status %d, want %d", i, resp.StatusCode, step.want)
		}
		if step.want != http.StatusAccepted && resp.Header.Get("Retry-After") != "" {
			t.Fatalf("batch %d: a refusal past the ceiling invites a retry", i)
		}
	}
	if got := s.dbLen.Load(); got != seedLen+5 {
		t.Fatalf("database counted at %d, want %d", got, seedLen+5)
	}
	if got := s.cShedCeiling.Value(); got != 2 {
		t.Fatalf(`service_shed_total{reason="ceiling"} = %d, want 2`, got)
	}
	if s.cShedRate.Value() != 0 || s.cShedBytes.Value() != 0 {
		t.Fatal("a ceiling refusal was counted as a rate or budget shed")
	}
}

func TestServiceRestartKeepsTenantsAndEpochs(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(st)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	batch := map[string]any{"txns": [][]int{{1, 2}, {1, 2}, {1, 2}}}
	for _, tenant := range []string{"beta", "alpha"} {
		if resp := post(t, srv, "/v1/tenants/"+tenant+"/txns", batch); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %s: %d", tenant, resp.StatusCode)
		}
	}
	s.Start()
	deadline := time.Now().Add(10 * time.Second)
	var before rulesResponse
	for {
		resp, err := http.Get(srv.URL + "/v1/tenants/alpha/rules")
		if err != nil {
			t.Fatal(err)
		}
		before = decode[rulesResponse](t, resp)
		if before.Epoch > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no publish before restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same store directory.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig(st2)
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()

	// Both tenants are known again, rules survive, and the epoch never
	// goes backwards.
	resp, err := http.Get(srv2.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	listing := decode[map[string][]tenantInfo](t, resp)
	if len(listing["tenants"]) != 2 {
		t.Fatalf("tenants after restart: %+v", listing)
	}
	resp, err = http.Get(srv2.URL + "/v1/tenants/alpha/rules")
	if err != nil {
		t.Fatal(err)
	}
	recovered := decode[rulesResponse](t, resp)
	if recovered.Epoch < before.Epoch {
		t.Fatalf("epoch went backwards across restart: %d < %d", recovered.Epoch, before.Epoch)
	}
	if len(recovered.Rules) == 0 {
		t.Fatal("published rules lost across restart")
	}
	// New publishes must be accepted (epoch continuity): run until the
	// epoch advances past the recovered one.
	s2.Start()
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv2.URL + "/v1/tenants/alpha/rules")
		if err != nil {
			t.Fatal(err)
		}
		got := decode[rulesResponse](t, resp)
		if got.Epoch > recovered.Epoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no post-restart publish accepted")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServiceRejectsBadInput(t *testing.T) {
	cfg := testConfig(store.NewMem())
	cfg.Obs = secmr.NewTelemetry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, tc := range []struct {
		path string
		body string
		want int
	}{
		{"/v1/tenants/bad%20id/txns", `{"txns":[[1]]}`, http.StatusBadRequest},
		{"/v1/tenants/a/txns", `{"txns":[]}`, http.StatusBadRequest},
		{"/v1/tenants/a/txns", `{"txns":[[]]}`, http.StatusBadRequest},
		{"/v1/tenants/a/txns", `{"txns":[[-1]]}`, http.StatusBadRequest},
		{"/v1/tenants/a/txns", `not json`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %q: status %d want %d", tc.path, tc.body, resp.StatusCode, tc.want)
		}
	}
	// Neither the pre-decode backlog peek nor a body that does not
	// decode to a batch registers the tenant.
	if got := metric(t, s, "service_tenants", ""); got != 0 {
		t.Fatalf("service_tenants = %v after bad bodies only", got)
	}
	resp, err := http.Get(srv.URL + "/v1/tenants/a/rules?min_support=zzz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad filter: %d", resp.StatusCode)
	}
}

// ingest posts body to tenant id straight through the handler, without
// a socket.
func ingest(h http.Handler, id, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/tenants/"+id+"/txns", strings.NewReader(body)))
	return rec
}

// batchOf encodes n one-item transactions as an ingest body.
func batchOf(n int) string {
	return "{\"txns\":[" + strings.TrimSuffix(strings.Repeat("[1],", n), ",") + "]}"
}

// metric reads one series from the service's registry.
func metric(t *testing.T, s *Service, name, labels string) float64 {
	t.Helper()
	for _, p := range s.cfg.Obs.Registry().Snapshot() {
		if p.Name == name && p.Labels == labels {
			return p.Value
		}
	}
	t.Fatalf("%s{%s} is not exported", name, labels)
	return 0
}

// TestServiceShedsOnBacklog: a feed holds at most maxQueueSteps ×
// GrowthPerStep transactions. A batch past that is answered 429 with a
// Retry-After and counted under service_shed_total{reason="backlog"};
// it gives back its |DB| reservation, its in-flight bytes and its
// bucket tokens. Once the feed is full, a batch is shed before its body
// is decoded. Other resources' feeds are untouched. The service is
// never started, so nothing drains: a kill -9 here would lose exactly
// the feeds' contents, at most maxQueueSteps × GrowthPerStep per
// resource (DESIGN §14.5).
func TestServiceShedsOnBacklog(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := testConfig(store.NewMem())
	cfg.Obs = secmr.NewTelemetry()
	cfg.TenantRate, cfg.TenantBurst = 1, 1<<20
	cfg.Now = func() time.Time { return now }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	bound := maxQueueSteps * s.cfg.Grid.GrowthPerStep
	if got := metric(t, s, "service_shed_total", `reason="backlog"`); got != 0 {
		t.Fatalf(`service_shed_total{reason="backlog"} = %v before any shed`, got)
	}

	// Tenant a lands on resource 0, tenant b on resource 1.
	for _, id := range []string{"a", "b"} {
		if rec := ingest(h, id, batchOf(1)); rec.Code != http.StatusAccepted {
			t.Fatalf("register %s: %d", id, rec.Code)
		}
	}
	a := s.known("a")
	if rec := ingest(h, "a", batchOf(bound-2)); rec.Code != http.StatusAccepted {
		t.Fatalf("filling to one below the bound: %d", rec.Code)
	}
	dbLen, inflight, tokens := s.dbLen.Load(), s.inflight.Load(), a.bucket.tokens

	// Two more do not fit: the feed refuses them and every gate before
	// it gives its reservation back.
	rec := ingest(h, "a", batchOf(2))
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("batch past the bound: %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	if !bytes.Equal(rec.Body.Bytes(), backlogShedBody) || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("backlog shed reply %q (%s)", rec.Body.String(), rec.Header().Get("Content-Type"))
	}
	if s.dbLen.Load() != dbLen || s.inflight.Load() != inflight || a.bucket.tokens != tokens {
		t.Fatalf("shed batch kept its reservations: dbLen %d→%d, inflight %d→%d, tokens %v→%v",
			dbLen, s.dbLen.Load(), inflight, s.inflight.Load(), tokens, a.bucket.tokens)
	}
	if got := s.feeds[a.resource].depth(); got != bound-1 {
		t.Fatalf("feed depth %d after a refused batch, want %d", got, bound-1)
	}

	// One more lands exactly on the bound.
	rec = ingest(h, "a", batchOf(1))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("batch onto the bound: %d", rec.Code)
	}
	var ack ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || ack.Queue != bound {
		t.Fatalf("ack %s (%v), want queue %d", rec.Body.String(), err, bound)
	}

	// A full feed sheds before decoding: a body that is not JSON at all
	// gets the 429, not a 400.
	if rec := ingest(h, "a", "not json"); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full feed, undecodable body: %d, want 429 before decoding", rec.Code)
	}
	if got := metric(t, s, "service_shed_total", `reason="backlog"`); got != 2 {
		t.Fatalf(`service_shed_total{reason="backlog"} = %v, want 2`, got)
	}
	for _, reason := range []string{"rate", "inflight", "ceiling"} {
		if got := metric(t, s, "service_shed_total", `reason="`+reason+`"`); got != 0 {
			t.Fatalf(`a backlog shed was counted as reason=%q (%v)`, reason, got)
		}
	}

	// Tenant b's resource has its own feed.
	if rec := ingest(h, "b", batchOf(3)); rec.Code != http.StatusAccepted {
		t.Fatalf("tenant on another resource: %d", rec.Code)
	}
	if got, want := metric(t, s, "service_backlog_txns", ""), float64(bound+4); got != want {
		t.Fatalf("service_backlog_txns = %v, want %v", got, want)
	}
	if got := len(s.feeds[a.resource].Tail()); got != bound {
		t.Fatalf("resource %d holds %d unabsorbed transactions, want the bound %d", a.resource, got, bound)
	}
}

// TestServiceBacklogBoundUnderFlood: concurrent batches from tenants
// sharing one resource never take its feed past the bound — not even by
// the batches in flight — and every refused batch gives its |DB| and
// byte reservations back.
func TestServiceBacklogBoundUnderFlood(t *testing.T) {
	cfg := testConfig(store.NewMem())
	cfg.Grid.GrowthPerStep = 2
	cfg.TenantRate, cfg.TenantBurst = 1e9, 1<<30
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	bound := maxQueueSteps * cfg.Grid.GrowthPerStep
	// t0..t7 round-robin over 4 resources: t0 and t4 share resource 0.
	for i := 0; i < 8; i++ {
		if rec := ingest(h, fmt.Sprintf("t%d", i), batchOf(1)); rec.Code != http.StatusAccepted {
			t.Fatalf("register t%d: %d", i, rec.Code)
		}
	}
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := []string{"t0", "t4"}[g%2]
			for i := 0; i < 100; i++ {
				n := 1 + (g+i)%3
				switch rec := ingest(h, id, batchOf(n)); rec.Code {
				case http.StatusAccepted:
					accepted.Add(int64(n))
				case http.StatusTooManyRequests:
				default:
					t.Errorf("status %d", rec.Code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	f := s.feeds[0]
	if got := f.depth(); got != bound {
		t.Fatalf("feed depth %d after the flood, want exactly the bound %d", got, bound)
	}
	if got := int64(bound - 2); accepted.Load() != got {
		t.Fatalf("%d transactions answered 202 during the flood, want %d", accepted.Load(), got)
	}
	var cost int64
	for _, tx := range f.Tail() {
		cost += txCost(tx)
	}
	for _, g := range s.feeds[1:] {
		for _, tx := range g.Tail() {
			cost += txCost(tx)
		}
	}
	if s.inflight.Load() != cost {
		t.Fatalf("in-flight bytes %d, queued transactions cost %d", s.inflight.Load(), cost)
	}
	if want := int64(cfg.Seed.Len() + s.backlog()); s.dbLen.Load() != want {
		t.Fatalf("database counted at %d, want seed + queued = %d", s.dbLen.Load(), want)
	}
}

// failingStore is a result store whose every Put fails.
type failingStore struct{ store.Store }

func (failingStore) Put(string, int64, []store.Rule) error { return errors.New("disk full") }

// TestServiceCountsPublishErrors: a Put the store refuses is counted in
// service_publish_errors_total, one per tenant per publish; the series
// is exported, at zero, from New on.
func TestServiceCountsPublishErrors(t *testing.T) {
	cfg := testConfig(failingStore{store.NewMem()})
	cfg.Obs = secmr.NewTelemetry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := metric(t, s, "service_publish_errors_total", ""); got != 0 {
		t.Fatalf("service_publish_errors_total = %v before any publish", got)
	}
	tenants := []string{"a", "b", "c"}
	for _, id := range tenants {
		if _, err := s.lookup(id); err != nil {
			t.Fatal(err)
		}
	}
	s.publish()
	if got := metric(t, s, "service_publish_errors_total", ""); got != float64(len(tenants)) {
		t.Fatalf("service_publish_errors_total = %v after one publish to %d tenants", got, len(tenants))
	}
}
