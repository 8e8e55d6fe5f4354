package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"secmr"
	"secmr/internal/arm"
	"secmr/internal/service"
	"secmr/internal/store"
)

// tmpRoot holds the run's FileStore directories; inside the checkout, as
// the benchmark may write nowhere else, and removed when the run ends.
const tmpRoot = ".bench_tmp"

// warmSteps is how many mining steps a serve workload lets the service
// take before the clock starts: long enough for the cold grid to have
// voted its seed database through (the churn probe reaches 0.9 by step
// 55), so the window measures a running service, not its first seconds.
const warmSteps = 60

// serveEnv is one in-process secmrd: service, durable store, real
// loopback listener — what cmd/secmrd's run() assembles.
type serveEnv struct {
	w       *workload
	dir     string
	sink    *secmr.Telemetry
	svc     *service.Service
	handler http.Handler
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
	tracer  *tracer
	closing sync.Once

	sampler *sampler
	seedDB  *arm.Database

	setup, gen, newSvc time.Duration
}

func markerItem(w *workload, j int) arm.Item { return arm.Item(w.Items + j) }

func setupServe(w *workload, seed int64, traced bool) (*serveEnv, error) {
	e := &serveEnv{w: w, sink: secmr.NewTelemetry()}
	t0 := time.Now()
	e.sampler = newSampler(w, seed)
	e.gen = e.sampler.genTime
	// Marker items ride in MarkerSeedFreq*MinFreq of every stream the
	// sampler produces: in the grid's universe from the seed database on,
	// voted on every step, and just short of frequent until a wave.
	e.seedDB = arm.NewDatabase(e.sampler.draw(w.SeedTxns)...)

	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, w.Name+"-")
	if err != nil {
		return nil, err
	}
	e.dir = dir
	fs, err := store.Open(dir, store.Options{Obs: e.sink})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var st store.Store = fs
	if traced {
		e.tracer = newTracer()
		st = &tracedStore{inner: fs, t: e.tracer}
	}
	tSvc := time.Now()
	e.svc, err = service.New(service.Config{
		Grid: w.gridConfig(), Seed: e.seedDB, Store: st,
		StepEvery: time.Millisecond, PublishEvery: 2,
		// Token buckets set not to bind: admission is the byte budget's.
		TenantRate: 1e9, TenantBurst: 1 << 30,
		MaxInflightBytes: w.MaxInflightBytes, Obs: e.sink,
	})
	if err != nil {
		fs.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	e.newSvc = time.Since(tSvc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	e.handler = e.svc.Handler()
	e.srv = &http.Server{Handler: e.handler}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}, Timeout: 30 * time.Second}
	e.svc.Start()
	e.setup = time.Since(t0)
	return e, nil
}

func (e *serveEnv) close() {
	e.closing.Do(func() {
		e.srv.Close()
		<-e.served
		e.client.CloseIdleConnections()
		e.svc.Close()
		os.RemoveAll(e.dir)
		os.Remove(tmpRoot) // only succeeds once the last run's directory is gone
	})
}

func encodeBatch(txs []arm.Transaction) []byte {
	req := struct {
		Txns [][]int `json:"txns"`
	}{Txns: make([][]int, len(txs))}
	for i, tx := range txs {
		row := make([]int, len(tx))
		for j, it := range tx {
			row[j] = int(it)
		}
		req.Txns[i] = row
	}
	b, _ := json.Marshal(req)
	return b
}

func tenantID(i int) string { return "t" + strconv.Itoa(i) }

// post sends one ingest batch and returns the status code.
func (e *serveEnv) post(tenant int, body []byte) (int, error) {
	resp, err := e.client.Post(e.base+"/v1/tenants/"+tenantID(tenant)+"/txns", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

type rulesReply struct {
	Epoch int64          `json:"epoch"`
	Rules []store.Record `json:"rules"`
}

// poll reads a tenant's rule changes since the cursor.
func (e *serveEnv) poll(tenant int, since int64) (rulesReply, int, error) {
	var out rulesReply
	resp, err := e.client.Get(e.base + "/v1/tenants/" + tenantID(tenant) + "/rules?since=" + strconv.FormatInt(since, 10))
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return out, resp.StatusCode, nil
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, resp.StatusCode, err
}

// scrape reads /metrics over the socket into series -> value.
func (e *serveEnv) scrape() (map[string]float64, error) {
	resp, err := e.client.Get(e.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// series sums every scraped series of a family whose label set contains
// all the given fragments.
func series(m map[string]float64, family string, fragments ...string) float64 {
	total := 0.0
next:
	for key, v := range m {
		if key != family && !strings.HasPrefix(key, family+"{") {
			continue
		}
		for _, f := range fragments {
			if !strings.Contains(key, f) {
				continue next
			}
		}
		total += v
	}
	return total
}

// queued reads GET /v1/tenants and sums the feed depth once per resource.
func queued(h http.Handler) (int, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tenants", nil))
	var body struct {
		Tenants []struct {
			Resource int `json:"resource"`
			Queue    int `json:"queue"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		return 0, err
	}
	seen := map[int]bool{}
	total := 0
	for _, t := range body.Tenants {
		if !seen[t.Resource] {
			seen[t.Resource] = true
			total += t.Queue
		}
	}
	return total, nil
}

// serveRun is the state the load goroutines of one serve run share.
type serveRun struct {
	e   *serveEnv
	rep *report
	w   *workload

	mu       sync.Mutex
	copyDB   *arm.Database // every transaction the service answered 202 for, seed included
	accepted int64         // client-side count of 202'd transactions
	cursor   []int64
	live     []map[string]bool // per tenant: rule keys whose latest polled record is live
	pending  map[string]*wave  // marker waves no poll has returned yet
	freshS   []float64
	waveErrs []string

	ingestMs, queryMs, lagMs []float64
	posts, shed, errors      atomic.Int64
	firstBody                []byte
}

// wave is one marker wave waiting to be seen by a poll.
type wave struct {
	k    int
	rule arm.Rule
	last time.Time // when the last marker batch was answered 202; zero while still posting
	seen time.Time // first poll that returned the rule; may precede last
}

func (r *serveRun) accept(txs []arm.Transaction) {
	r.mu.Lock()
	r.copyDB.Append(txs...)
	r.accepted += int64(len(txs))
	r.mu.Unlock()
}

// doPoll issues poll k of the schedule and folds the answer into the
// cursor, the live-key view and the pending waves.
func (r *serveRun) doPoll(k int) {
	tenant := k % tenants
	r.mu.Lock()
	since := r.cursor[tenant]
	r.mu.Unlock()
	reply, code, err := r.e.poll(tenant, since)
	got := time.Now()
	if err != nil || code != http.StatusOK {
		r.errors.Add(1)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cursor[tenant] = reply.Epoch
	for _, rec := range reply.Rules {
		if rec.Deleted {
			delete(r.live[tenant], rec.Key)
			continue
		}
		r.live[tenant][rec.Key] = true
		if p := r.pending[rec.Key]; p != nil && p.seen.IsZero() {
			p.seen = got
			r.settle(p)
		}
	}
}

// settle closes a wave once it has both been seen and fully posted:
// the sample is last-marker-202 to first sighting (0 when the rule was
// already out before the last batch was answered), and the benchmark's
// own copy of the database must hold the rule. Caller holds r.mu.
func (r *serveRun) settle(p *wave) {
	if p.seen.IsZero() || p.last.IsZero() {
		return
	}
	delete(r.pending, p.rule.Key())
	th := r.w.thresholds()
	if !arm.Correct(r.copyDB, p.rule, th) {
		r.waveErrs = append(r.waveErrs, fmt.Sprintf("wave %d: %s returned but the oracle does not hold it", p.k, p.rule.Key()))
		return
	}
	r.freshS = append(r.freshS, math.Max(0, sec(p.seen.Sub(p.last))))
}

func (r *serveRun) liveAnywhere(key string) bool {
	for _, m := range r.live {
		if m[key] {
			return true
		}
	}
	return false
}

// runServe runs a serve workload, traced or not.
//
//	op     one ingest POST: serve_steady times the background batches from
//	       their due time (open loop); serve_overload times each closed-loop
//	       POST from send to reply
//	query  serve_steady: one GET rules?since=<cursor> on a fixed pollHz
//	       schedule, from due time; serve_overload: one GET rules?since=0 by
//	       a closed-loop reader after the clients have stopped (readBacklogged)
//	fresh  serve_steady: the mean of the middle half of the marker waves'
//	       times from last-marker-202 to the first poll returning the
//	       marker's rule; serve_overload: how long a transaction accepted at
//	       the end of the window will queue, by Little's law (transactions
//	       still queued / absorb rate)
func runServe(w *workload, seed int64, seconds float64, traced bool, spansPath string) (*report, error) {
	rep := newReport(w, seed, traced)
	e, err := setupServe(w, seed, traced)
	if err != nil {
		return nil, err
	}
	defer e.close()

	r := &serveRun{e: e, rep: rep, w: w, copyDB: e.seedDB.Clone(),
		cursor: make([]int64, tenants), live: make([]map[string]bool, tenants)}
	for i := range r.live {
		r.live[i] = map[string]bool{}
	}
	// Before the clock: register every tenant with one small batch and
	// let the service mine its seed database.
	for t := 0; t < tenants; t++ {
		txs := e.sampler.draw(2)
		code, err := e.post(t, encodeBatch(txs))
		if err != nil || code != http.StatusAccepted {
			return nil, fmt.Errorf("warm-up ingest for tenant %d: status %d, %v", t, code, err)
		}
		r.accept(txs)
	}
	for e.svc.Steps() < warmSteps {
		time.Sleep(5 * time.Millisecond)
	}
	for k := 0; k < tenants; k++ {
		r.doPoll(k) // cursors start at the warmed state
	}

	window := time.Duration(seconds * float64(time.Second))
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	gridBefore := e.svc.Grid().Stats()
	scrapeBefore, err := e.scrape()
	if err != nil {
		return nil, err
	}
	stepsBefore := e.svc.Steps()
	var stopSampling func()
	var cal *calibrator
	var samp *svcSampler
	if traced {
		samp = &svcSampler{e: e}
		stopSampling = samp.start()
	} else {
		cal = newCalibrator()
		stopSampling = cal.during()
	}
	start := time.Now()
	if w.MaxInflightBytes > 0 {
		r.overload(start, window)
	} else {
		r.steady(start, window)
	}
	elapsed := time.Since(start)
	steps := e.svc.Steps() - stepsBefore
	stopSampling()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	backlog, err := queued(e.handler)
	if err != nil {
		return nil, err
	}
	var readCal *calibrator
	if w.MaxInflightBytes > 0 {
		if !traced {
			readCal = newCalibrator()
		}
		r.readBacklogged(readCal)
	}
	peakRSS := peakRSSMiB() // before the extra set-ups add theirs

	// Reference check: what the clients were told was accepted is what
	// the server counted in.
	after, err := e.scrape()
	if err != nil {
		return nil, err
	}
	rep.attempted++
	if got := int64(series(after, "service_ingest_txns_total")); got != r.accepted {
		rep.failed++
		rep.note("FAIL client-side accepted %d != service_ingest_txns_total %d", r.accepted, got)
	}
	rep.attempted += int(r.posts.Load())
	rep.failed += int(r.errors.Load())
	if w.MaxInflightBytes == 0 {
		rep.failed += int(r.shed.Load()) // serve_steady must never be shed
	}
	absorbRate := float64(r.accepted-int64(backlog)) / sec(elapsed)
	reqRate := float64(r.posts.Load()) / sec(elapsed)
	shedFrac := float64(r.shed.Load()) / math.Max(1, float64(r.posts.Load()))
	fresh := midmean(r.freshS)
	if w.MaxInflightBytes > 0 {
		fresh = float64(backlog) / absorbRate
	} else {
		rep.note("waves, last marker 202 to rule read, s: %.2f", r.freshS)
	}

	if !traced {
		// The other set-ups come after the window, one service at a time.
		e.close()
		setups, setupCal := []float64{sec(e.setup)}, newCalibrator()
		for began := time.Now(); moreSetups(len(setups), began); {
			again, err := setupServe(w, seed, false)
			if err != nil {
				return nil, err
			}
			setups = append(setups, sec(again.setup))
			again.close()
			setupCal.beside(again.setup)
		}
		rep.note("samples: setups=%d", len(setups))
		f := cal.factor()
		rep.note("calibration: %d slices beside the window; to read at reference speed, compute times x %.4f, set-ups x %.4f, reads after the window x %.4f",
			cal.slices, f, setupCal.factor(), readCal.factor())
		rep.set("setup_s", median(setups)*setupCal.factor())
		rep.set("steps_per_s", float64(steps)/sec(elapsed)/f)
		rep.set("fresh_s", fresh*f)
		rep.set("op_p50_ms", quantile(r.ingestMs, 0.50)*f)
		rep.set("op_p95_ms", quantile(r.ingestMs, 0.95)*f)
		rep.set("query_p50_ms", quantile(r.queryMs, 0.50)*readCal.factor())
		rep.set("query_p95_ms", quantile(r.queryMs, 0.95)*readCal.factor())
		rep.set("peak_rss_mb", peakRSS)
		rep.set("ingest_req_per_s", reqRate)
		rep.set("absorb_txns_per_s", absorbRate)
		rep.set("shed_frac", shedFrac)
		rep.set("backlog_txns_end", float64(backlog))
		rep.set("db_growth_x", float64(r.copyDB.Len())/float64(w.SeedTxns))
	}
	rep.note("samples: ingest=%d queries=%d waves=%d posts=%d shed=%d errors=%d steps=%d accepted=%d backlog=%d db=%.2fx seed",
		len(r.ingestMs), len(r.queryMs), len(r.freshS), r.posts.Load(), r.shed.Load(),
		r.errors.Load(), steps, r.accepted, backlog, float64(r.copyDB.Len())/float64(w.SeedTxns))
	if !traced {
		return rep, nil
	}

	n := math.Max(1, float64(steps))
	grid := e.svc.Grid().Stats()
	rep.set("secmr.gc_pause_ms", float64(msAfter.PauseTotalNs-msBefore.PauseTotalNs)/1e6)
	rep.set("secmr.gc_cycles", float64(msAfter.NumGC-msBefore.NumGC))
	rep.set("secmr.newgrid_ms", ms(e.newSvc))
	rep.set("secmr.step_p50_ms", quantile(samp.stepMs, 0.50))
	rep.set("secmr.step_p95_ms", quantile(samp.stepMs, 0.95))
	rep.set("secmr.scored_output_us", median(medians(timeReads(e.svc.Grid(), w.Resources, nil)))*1e3)
	rep.set("sim.msgs_per_step", float64(grid.EngineSent-gridBefore.EngineSent)/n)
	rep.set("core.sfe_per_step", float64(grid.SFEs-gridBefore.SFEs)/n)
	if d := grid.Fresh + grid.Gated - gridBefore.Fresh - gridBefore.Gated; d > 0 {
		rep.set("core.gate_fresh_ratio", float64(grid.Fresh-gridBefore.Fresh)/float64(d))
	}
	rep.set("core.wire_bytes_per_step", float64(grid.BytesSent-gridBefore.BytesSent)/n)
	// The service runs its grid with telemetry on, so the scheme is
	// already instrumented: read its histograms instead of wrapping it.
	delta := func(family string, fragments ...string) float64 {
		return series(after, family, fragments...) - series(scrapeBefore, family, fragments...)
	}
	for _, op := range [][2]string{
		{"add_vec", "add_vec"}, {"scalar_vec", "scalar_mul_vec"}, {"rerandomize_vec", "rerandomize_vec"},
		{"encrypt_vec", "encrypt_vec"}, {"encrypt_zero_vec", "encrypt_zero_vec"},
		{"encrypt", "encrypt"}, {"decrypt", "decrypt"},
	} {
		label := `op="` + op[1] + `"`
		rep.set("homo."+op[0]+"_calls_per_step", delta("secmr_crypto_op_seconds_count", label)/n)
		rep.set("homo."+op[0]+"_ms_per_step", delta("secmr_crypto_op_seconds_sum", label)*1e3/n)
	}
	for _, op := range []string{"add", "sub", "scalar_mul", "rerandomize", "encrypt_zero"} {
		label := `op="` + op + `"`
		rep.values["homo.scalar_op_calls_per_step"] += delta("secmr_crypto_op_seconds_count", label) / n
		rep.values["homo.scalar_op_ms_per_step"] += delta("secmr_crypto_op_seconds_sum", label) * 1e3 / n
	}
	rep.set("homo.total_ms_per_step", delta("secmr_crypto_op_seconds_sum")*1e3/n)
	sch, err := newScheme(w)
	if err != nil {
		return nil, err
	}
	microOblivious(rep, sch, w)

	rep.set("service.steps_per_s", float64(steps)/sec(elapsed))
	rep.set("service.publishes_per_s", delta("service_publishes_total")/sec(elapsed))
	rep.set("service.backlog_txns_max", maxOf(samp.backlog))
	rep.set("service.inflight_bytes_max", maxOf(samp.inflight))
	rep.set("service.shed_rate_count", delta("service_shed_total", `reason="rate"`))
	rep.set("service.shed_inflight_count", delta("service_shed_total", `reason="inflight"`))
	rep.set("service.shed_frac", shedFrac)
	rep.set("service.ingest_req_per_s", reqRate)
	rep.set("service.absorb_txns_per_s", absorbRate)
	rep.set("service.ingest_p99_ms", quantile(r.ingestMs, 0.99))
	rep.set("service.query_p99_ms", quantile(r.queryMs, 0.99))
	rep.set("service.fresh_p90_s", quantile(r.freshS, 0.90))
	// The handlers are timed with the mining loop stopped, so that the
	// allocations counted are theirs and not a step's; they answer from
	// the state the run left behind (feeds, byte budget, store contents).
	if err := e.svc.Close(); err != nil {
		return nil, err
	}
	d, allocs, code := microHandler(e.handler, 200, "POST", "/v1/tenants/"+tenantID(0)+"/txns", r.firstBody)
	// With the byte budget full the handler's answer is the shed path.
	if code != http.StatusAccepted && !(w.MaxInflightBytes > 0 && code == http.StatusTooManyRequests) {
		rep.fail("in-process ingest handler answered %d", code)
	}
	rep.set("service.ingest_handler_us", float64(d)/1e3)
	rep.set("service.ingest_handler_allocs", allocs)
	d, _, code = microHandler(e.handler, 200, "GET", "/v1/tenants/"+tenantID(0)+"/rules?since=1", nil)
	if code != http.StatusOK {
		rep.fail("in-process rules handler answered %d", code)
	}
	rep.set("service.rules_handler_us", float64(d)/1e3)

	t := e.tracer
	puts, queries := t.durations(spStorePut), t.durations(spStoreQuery)
	rep.set("store.put_ms_p50", quantile(puts, 0.50)/1e6)
	rep.set("store.put_ms_p99", quantile(puts, 0.99)/1e6)
	rep.set("store.put_calls", float64(len(puts)))
	rep.set("store.query_us_p50", quantile(queries, 0.50)/1e3)
	rep.set("store.query_calls", float64(len(queries)))
	rep.set("store.wal_bytes", series(after, "store_wal_bytes"))
	rep.set("store.snapshots", series(after, "store_snapshots_total"))
	rep.set("quest.gen_ms", ms(e.gen))
	rep.set("bench.gen_lag_p99_ms", quantile(r.lagMs, 0.99))
	if spansPath != "" {
		if err := t.writeJSONL(spansPath); err != nil {
			return nil, err
		}
		rep.note("spans written to %s", spansPath)
	}
	return rep, nil
}

// steady drives serve_steady: two open-loop generators, each on its own
// goroutine so a slow reply in one stream is not charged to the other (the
// polls and the background ingest), and the marker waves back to back,
// one per marker item: a wave starts when the rule of the one before it
// has been read, so no wave queues behind another's transactions. The
// run lasts until the last wave is settled, and at least window: the
// waves are the work, as the steps are in a mine run.
func (r *serveRun) steady(start time.Time, window time.Duration) {
	w := r.w
	bg, markers := r.e.sampler.fork(len(r.e.sampler.pool)/3), r.e.sampler.fork(2*len(r.e.sampler.pool)/3)
	r.pending = map[string]*wave{}
	var ingestLag []float64
	stopPolls := startPoller(pollHz, start, &r.queryMs, &r.lagMs, r.doPoll)
	stopIngest := startPoller(w.IngestHz, start, &r.ingestMs, &ingestLag, func(k int) {
		txs := bg.draw(w.IngestBatch)
		body := encodeBatch(txs)
		if r.firstBody == nil {
			r.firstBody = body
		}
		r.send(k%tenants, txs, body)
	})
	for k := 0; k < w.Markers; k++ {
		r.wave(k, markers)
		// The polling goroutine settles the wave when its rule appears.
		for posted := time.Now(); ; time.Sleep(2 * time.Millisecond) {
			r.mu.Lock()
			left := len(r.pending)
			r.mu.Unlock()
			if left == 0 {
				break
			}
			if time.Since(posted) > w.WaveDeadline {
				r.mu.Lock()
				for _, p := range r.pending {
					r.waveErrs = append(r.waveErrs, fmt.Sprintf("wave %d: %s not returned within %v of the last marker", p.k, p.rule.Key(), w.WaveDeadline))
				}
				r.pending = map[string]*wave{}
				r.mu.Unlock()
				break
			}
		}
	}
	time.Sleep(time.Until(start.Add(window)))
	stopIngest()
	stopPolls()
	r.lagMs = append(r.lagMs, ingestLag...)
	for _, msg := range r.waveErrs {
		r.rep.failed++
		r.rep.note("FAIL " + msg)
	}
}

// send posts one batch and books the answer.
func (r *serveRun) send(tenant int, txs []arm.Transaction, body []byte) int {
	code, err := r.e.post(tenant, body)
	r.posts.Add(1)
	switch {
	case err != nil:
		r.errors.Add(1)
	case code == http.StatusAccepted:
		r.accept(txs)
	case code == http.StatusTooManyRequests:
		r.shed.Add(1)
	default:
		r.errors.Add(1)
	}
	return code
}

// wave posts the fewest transactions that lift marker k's item from
// absent to 1.25*MinFreq of everything accepted so far, and leaves the
// wave pending for the reader.
func (r *serveRun) wave(k int, markers *sampler) {
	w := r.w
	th := w.thresholds()
	rule := arm.NewRule(nil, arm.Itemset{markerItem(w, k)}, arm.ThresholdFreq)
	r.rep.attempted++
	r.mu.Lock()
	absent := !arm.Correct(r.copyDB, rule, th) && !r.liveAnywhere(rule.Key())
	n, c := r.copyDB.Len(), r.copyDB.Support(rule.RHS)
	p := &wave{k: k, rule: rule}
	if absent {
		// Armed before the first marker: the rule turns frequent at
		// MinFreq, which the wave passes before its last batch.
		r.pending[rule.Key()] = p
	}
	r.mu.Unlock()
	if !absent {
		r.mu.Lock()
		r.waveErrs = append(r.waveErrs, fmt.Sprintf("wave %d: %s is not absent before the wave", k, rule.Key()))
		r.mu.Unlock()
		return
	}
	target := 1.25 * w.MinFreq
	// (c+m)/(n+m) >= target; the 0.25*MinFreq of headroom covers what the
	// other generators land before the rule is seen.
	m := int(math.Ceil((target*float64(n) - float64(c)) / (1 - target)))
	for sent := 0; sent < m; {
		size := min(w.MarkerBatch, m-sent)
		txs := markers.draw(size)
		for i := range txs {
			txs[i] = txs[i].Union(rule.RHS)
		}
		if code := r.send((k+sent/w.MarkerBatch)%tenants, txs, encodeBatch(txs)); code != http.StatusAccepted {
			r.mu.Lock()
			delete(r.pending, rule.Key())
			r.waveErrs = append(r.waveErrs, fmt.Sprintf("wave %d: marker batch answered %d", k, code))
			r.mu.Unlock()
			return
		}
		sent += size
	}
	r.mu.Lock()
	p.last = time.Now()
	r.settle(p)
	r.mu.Unlock()
}

// overload drives serve_overload: closed-loop keep-alive clients posting
// flat out.
func (r *serveRun) overload(start time.Time, window time.Duration) {
	w := r.w
	clients := runtime.NumCPU()
	// Bodies are encoded before the clock so the clients spend the run
	// in the service, not in the generator.
	type batch struct {
		txs  []arm.Transaction
		body []byte
	}
	const ring = 64
	rings := make([][]batch, clients)
	for c := range rings {
		rings[c] = make([]batch, ring)
		for i := range rings[c] {
			txs := r.e.sampler.draw(w.IngestBatch)
			rings[c][i] = batch{txs, encodeBatch(txs)}
		}
	}
	r.firstBody = rings[0][0].body
	deadline := start.Add(window)
	lat := make([][]float64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				b := rings[c][i%ring]
				t := time.Now()
				r.send((c+i*clients)%tenants, b.txs, b.body)
				lat[c] = append(lat[c], ms(time.Since(t)))
			}
		}(c)
	}
	wg.Wait()
	for _, l := range lat {
		r.ingestMs = append(r.ingestMs, l...)
	}
}

// readBacklogged is serve_overload's query measurement: one client reading
// every tenant's whole rule list in turn, each read sent when the one
// before it is answered, for backloggedReads after the ingest clients have
// stopped, while the service mines on through its backlog. Reads beside
// the saturated front door wait for a processor more than for the service
// (1 to 20 ms, evenly), and their median moved by a fifth between runs of
// one binary. cal, when not nil, runs its slices between the reads.
func (r *serveRun) readBacklogged(cal *calibrator) {
	for k, began := 0, time.Now(); time.Since(began) < backloggedReads; k++ {
		t := time.Now()
		_, code, err := r.e.poll(k%tenants, 0)
		d := time.Since(t)
		r.rep.attempted++
		if err != nil || code != http.StatusOK {
			r.rep.failed++
		}
		r.queryMs = append(r.queryMs, ms(d))
		cal.beside(d)
	}
}

const backloggedReads = 2 * time.Second

// svcSampler watches the running service from inside the process during
// a traced run: step completions every millisecond, backlog and
// in-flight bytes every 100 ms.
type svcSampler struct {
	e        *serveEnv
	stepMs   []float64
	backlog  []float64
	inflight []float64
}

func (s *svcSampler) start() func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		last, lastAt := s.e.svc.Steps(), time.Now()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				if n := s.e.svc.Steps(); n != last {
					per := ms(now.Sub(lastAt)) / float64(n-last)
					for ; last < n; last++ {
						s.stepMs = append(s.stepMs, per)
					}
					lastAt = now
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if q, err := queued(s.e.handler); err == nil {
					s.backlog = append(s.backlog, float64(q))
				}
				for _, p := range s.e.sink.Registry().Snapshot() {
					if p.Name == "service_inflight_bytes" {
						s.inflight = append(s.inflight, p.Value)
					}
				}
			}
		}
	}()
	return func() {
		close(stop)
		wg.Wait()
	}
}
