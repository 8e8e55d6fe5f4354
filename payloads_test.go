package secmr

import (
	"fmt"
	"testing"

	"secmr/internal/core"
	"secmr/internal/faults"
	"secmr/internal/oblivious"
)

// churnShamirConfig is a small Shamir churn grid: every step absorbs
// GrowthPerStep fresh transactions per resource and re-votes.
func churnShamirConfig() GridConfig {
	return GridConfig{
		Algorithm: AlgorithmSecure, Crypto: CryptoShamir, Resources: 8, K: 3,
		MinFreq: 0.12, MinConf: 0.6, ScanBudget: 30, GrowthPerStep: 5,
		MaxRuleItems: 2, Seed: 31,
	}
}

func newChurnShamirGrid(t *testing.T, cfg GridConfig, steps int) *Grid {
	t.Helper()
	db := smallDB(1200, 31)
	feeds := feedsFor(smallDB(cfg.Resources*cfg.GrowthPerStep*steps, 32), cfg.Resources)
	grid, err := NewGridWithFeed(db, feeds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(grid.Close)
	return grid
}

// storedCounter is where and as what a counter was stored at the last
// observation.
type storedCounter struct {
	where string
	bytes string
}

// observeStored maps every counter the grid's resources store, as an
// inbound or ⊥ counter, to where it sits and its encoding. A counter
// stored in two places fails the test.
func observeStored(t *testing.T, g *Grid, step int) map[*oblivious.Counter]storedCounter {
	t.Helper()
	out := map[*oblivious.Counter]storedCounter{}
	for i, r := range g.secure {
		r.EachStoredCounter(func(rule string, from int, c *oblivious.Counter) {
			where := fmt.Sprintf("resource %d rule %s from %d", i, rule, from)
			if s, dup := out[c]; dup {
				t.Fatalf("step %d: one counter stored at %s and at %s", step, s.where, where)
			}
			out[c] = storedCounter{where, string(oblivious.AppendCounter(nil, c))}
		})
	}
	return out
}

// TestPayloadOwnership holds the grid-wide payload free list to its
// ownership rule on a facade-built Shamir churn grid, with a tenth of
// the messages delivered twice so that repeat deliveries happen: every
// counter a resource stores as inbound or ⊥ keeps its bytes for as long
// as it stays stored, and no counter is ever stored twice. A counter may
// change only after its receiver superseded it. At least 80 % of the
// transmits must deal into a recycled counter, and the list must stay
// within its cap. CI runs it at GOMAXPROCS 1, 2 and 8 (-cpu 1,2,8), so
// the engine steps the resources inline, on both cores and
// oversubscribed.
func TestPayloadOwnership(t *testing.T) {
	const steps = 120
	cfg := churnShamirConfig()
	g := newChurnShamirGrid(t, cfg, steps)
	if g.payloads == nil {
		t.Fatal("a Shamir grid without adversaries built no payload free list")
	}
	// Duplicates injected at the engine, not through GridConfig.Faults:
	// LossyLinks stays off, so recycling stays on, and with no jitter
	// every duplicate lands right behind its original — a repeat delivery
	// of the counter its edge now stores.
	g.engine.Inject = faults.New(faults.Config{Seed: 31, DupProb: 0.1})
	prev := map[*oblivious.Counter]storedCounter{}
	for step := 1; step <= steps; step++ {
		g.Step(1)
		cur := observeStored(t, g, step)
		for c, s := range cur {
			if p, ok := prev[c]; ok && p.bytes != s.bytes {
				t.Fatalf("step %d: the counter stored at %s changed while stored (at %s the step before)", step, s.where, p.where)
			}
		}
		prev = cur
		if st := g.payloads.Stats(); st.Len > st.Cap {
			t.Fatalf("step %d: free list holds %d counters, cap %d", step, st.Len, st.Cap)
		}
	}
	if d := g.engine.Stats().Duplicated; d == 0 {
		t.Fatal("no message was delivered twice; the repeat-delivery path went untested")
	}
	st := g.payloads.Stats()
	if st.Peak > st.Cap {
		t.Fatalf("free list peaked at %d counters, cap %d", st.Peak, st.Cap)
	}
	t.Logf("free list: %+v", st)
	if st.Hits == 0 || float64(st.Hits) < 0.8*float64(st.Hits+st.Misses) {
		t.Fatalf("%d of %d transmits dealt into a recycled counter, want ≥ 80 %% (%+v)", st.Hits, st.Hits+st.Misses, st)
	}
	if r, p := g.Quality(); r == 0 || p == 0 {
		t.Fatalf("recall %.3f precision %.3f: the grid mined nothing", r, p)
	}
}

// TestPayloadRecyclingOff: where the ownership rule cannot hold the free
// list stays untouched. Faults arm LossyLinks (a payload may be
// delivered again after its edge moved on), the padding dance swaps ⊥
// sums in and out, and an adversary hook may keep or forward what it
// sees, which turns the list off grid-wide.
func TestPayloadRecyclingOff(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*GridConfig)
	}{
		{"faults", func(c *GridConfig) { c.Faults = &FaultConfig{Seed: 31, DropProb: 0.05, DupProb: 0.05} }},
		{"padding-dance", func(c *GridConfig) { c.PaddingDance = true }},
		{"adversary", func(c *GridConfig) { c.Adversaries = []AdversarySpec{{Node: 2, Kind: "garbage"}} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const steps = 30
			cfg := churnShamirConfig()
			tc.mutate(&cfg)
			g := newChurnShamirGrid(t, cfg, steps)
			g.Step(steps)
			if g.Stats().MessagesSent == 0 {
				t.Fatal("no counter was sent")
			}
			if g.payloads == nil {
				return
			}
			if st := g.payloads.Stats(); st != (core.PayloadStats{Cap: st.Cap}) {
				t.Fatalf("free list used: %+v", st)
			}
		})
	}
}
