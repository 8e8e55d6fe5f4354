package secmr

import (
	"net/http"
	"sync"
	"testing"
	"time"
)

// pushFeed is a test FeedSource fed incrementally — the live-queue
// shape a mining service's ingestion endpoint has. Pull may find it
// empty long before it is done.
type pushFeed struct {
	mu sync.Mutex
	q  []Transaction
}

func (f *pushFeed) push(txs ...Transaction) {
	f.mu.Lock()
	f.q = append(f.q, txs...)
	f.mu.Unlock()
}

func (f *pushFeed) Pull() (Transaction, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.q) == 0 {
		return Transaction{}, false
	}
	tx := f.q[0]
	f.q = f.q[1:]
	return tx, true
}

func (f *pushFeed) Tail() []Transaction {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Transaction(nil), f.q...)
}

// TestFeedSourcesNilShortExhausted covers the degenerate feed shapes
// NewGridWithFeedSources documents as legal: a feeds slice shorter
// than Resources, nil entries, and a feed that runs dry mid-run. Only
// the fed resource may grow, by exactly what its feed held, and
// stepping past exhaustion must be harmless.
func TestFeedSourcesNilShortExhausted(t *testing.T) {
	db := smallDB(600, 5)
	extra := smallDB(12, 5)
	feeds := []FeedSource{NewSliceFeed(extra.Tx), nil} // 2 entries, 4 resources
	grid, err := NewGridWithFeedSources(db, feeds, GridConfig{
		Algorithm: AlgorithmSecure, Resources: 4, K: 2, GrowthPerStep: 5,
		MinFreq: 0.15, MinConf: 0.7, ScanBudget: 50, MaxRuleItems: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()
	before := make([]int, 4)
	for i := range before {
		before[i] = grid.miners[i].DBSize()
	}
	grid.Step(40) // feed 0 is dry after 3 steps; keep going well past that
	if got, want := grid.miners[0].DBSize(), before[0]+extra.Len(); got != want {
		t.Fatalf("fed resource grew to %d txns, want %d", got, want)
	}
	for i := 1; i < 4; i++ {
		if grid.miners[i].DBSize() != before[i] {
			t.Fatalf("unfed resource %d grew: %d -> %d", i, before[i], grid.miners[i].DBSize())
		}
	}
	if r, p := grid.Quality(); r < 0 || r > 1 || p < 0 || p > 1 {
		t.Fatalf("quality out of range after exhaustion: %v/%v", r, p)
	}
}

// TestFeedLateArrivalsConverge runs the online story end to end: the
// grid starts on a prefix of a stream with its feeds still empty,
// steps a while (every Pull failing), then the rest of the stream
// arrives mid-run — and mining converges onto the reference rules
// anyway. This is the anytime property the dynamic-database model
// promises: late data is absorbed, not a restart.
func TestFeedLateArrivalsConverge(t *testing.T) {
	full := smallDB(1000, 21)
	seedDB := &Database{Tx: full.Tx[:700]}
	late := full.Tx[700:]

	pfs := make([]*pushFeed, 4)
	feeds := make([]FeedSource, 4)
	for i := range pfs {
		pfs[i] = &pushFeed{}
		feeds[i] = pfs[i]
	}
	grid, err := NewGridWithFeedSources(seedDB, feeds, GridConfig{
		Algorithm: AlgorithmSecure, Resources: 4, K: 2, GrowthPerStep: 10,
		MinFreq: 0.15, MinConf: 0.7, ScanBudget: 50, MaxRuleItems: 2, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()

	grid.Step(60) // all feeds empty the whole time
	for i, tx := range late {
		pfs[i%4].push(tx)
	}
	// Step until every feed has been absorbed (75 txns per feed at 10
	// per step needs 8 steps; 40 is slack, not a spin).
	grid.Step(40)
	total := 0
	for i := range pfs {
		if rest := pfs[i].Tail(); len(rest) != 0 {
			t.Fatalf("feed %d still holds %d txns after absorption steps", i, len(rest))
		}
		total += grid.miners[i].DBSize()
	}
	if total != full.Len() {
		t.Fatalf("grid absorbed %d of %d txns", total, full.Len())
	}
	// The online grid — now mining the full stream — still matches the
	// reference rules of the prefix it was born with: late data from
	// the same distribution refines the database without derailing the
	// anytime answer.
	if !grid.RunUntilQuality(0.85, 3000) {
		r, p := grid.Quality()
		t.Fatalf("quality degraded after late arrivals: recall=%.3f precision=%.3f", r, p)
	}
}

// TestGridCloseConcurrentSafe is the lifecycle regression test: Close
// racing Step and SampleQuality, double Close, the introspection
// server going down with the grid, and the closed grid refusing new
// servers while read accessors keep working. Run with -race.
func TestGridCloseConcurrentSafe(t *testing.T) {
	db := smallDB(300, 13)
	grid, err := NewGrid(db, GridConfig{
		Algorithm: AlgorithmSecure, Resources: 3, K: 2,
		MinFreq: 0.2, MinConf: 0.7, ScanBudget: 40, MaxRuleItems: 2, Seed: 13,
		Telemetry: NewTelemetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := grid.ServeIntrospection("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get("http://" + srv.Addr() + "/healthz"); err != nil {
		t.Fatalf("healthz before close: %v", err)
	} else {
		resp.Body.Close()
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				grid.Step(1)
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				grid.SampleQuality()
			}
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Millisecond)
			grid.Close()
		}()
	}
	wg.Wait()
	grid.Close() // idempotent, after the concurrent pair already ran

	steps := grid.Steps()
	grid.Step(10)
	if grid.Steps() != steps {
		t.Fatalf("Step advanced a closed grid: %d -> %d", steps, grid.Steps())
	}
	if r, p := grid.SampleQuality(); r < 0 || r > 1 || p < 0 || p > 1 {
		t.Fatalf("SampleQuality broken on closed grid: %v/%v", r, p)
	}
	if _, err := grid.ServeIntrospection("127.0.0.1:0"); err == nil {
		t.Fatal("closed grid accepted a new introspection server")
	}
	// The server Close stopped must actually be gone.
	client := &http.Client{Timeout: time.Second}
	if resp, err := client.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		resp.Body.Close()
		t.Fatal("introspection server still serving after grid Close")
	}
}
