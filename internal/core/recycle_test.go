package core

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"secmr/internal/homo"
	"secmr/internal/oblivious"
	"secmr/internal/shamir"
	"secmr/internal/sim"
)

// delivered is one counter a resource received, with the bytes it had
// on delivery.
type delivered struct {
	c    *oblivious.Counter
	wire []byte
}

// recordingNode hosts a resource and keeps every counter delivered to
// it while *on is set. Each node appends to its own list: nodes run on
// different workers.
type recordingNode struct {
	*Resource
	on  *bool
	got *[]delivered
}

func (n recordingNode) OnMessage(ctx *sim.Context, from sim.NodeID, payload any) {
	if m, ok := payload.(RuleCipherMsg); ok && *n.on {
		*n.got = append(*n.got, delivered{m.Counter, oblivious.AppendCounter(nil, m.Counter)})
	}
	n.Resource.OnMessage(ctx, from, payload)
}

// slowScan has every frequency candidate's scan advance two
// transactions a step, so its totals change, and a reply is staged, on
// each of the first ~75 steps.
func slowScan(cfg *Config) { cfg.ScanBudget = 2 }

// TestPublishedCountersStayImmutable: recycling writes the ⊥ replies
// and the transmit sums over superseded ciphertexts in place, and none
// of those may be a ciphertext another resource received. Every counter
// delivered over 100 Shamir steps on two workers is copied on arrival;
// after 100 more steps each must still encode to the same bytes — those
// still stored as an edge's inbound counter included.
func TestPublishedCountersStayImmutable(t *testing.T) {
	sh := shamir.MustNew(shamir.Params{K: 2, N: 5, W: 1})
	one, resources, _ := buildSecureGrid(t, sh, 5, 2, 3, nil, nil)
	on, got := true, make([][]delivered, len(resources))
	nodes := make([]sim.Node, len(resources))
	for i, r := range resources {
		nodes[i] = recordingNode{r, &on, &got[i]}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e := sim.NewParallelEngine(one.Graph, nodes, 3)
	e.Run(100)
	on = false
	e.Run(100)
	all := slices.Concat(got...)
	if len(all) == 0 {
		t.Fatal("no counter was delivered")
	}
	stored := map[*oblivious.Counter]bool{}
	for _, r := range resources {
		for _, c := range r.Broker.cands {
			for _, edge := range c.edges {
				stored[edge.inbound] = true
			}
		}
	}
	kept := 0
	for i, d := range all {
		if stored[d.c] {
			kept++
		}
		if now := oblivious.AppendCounter(nil, d.c); !bytes.Equal(now, d.wire) {
			t.Fatalf("delivered counter %d of %d changed after delivery (stored as inbound: %v)", i, len(all), stored[d.c])
		}
	}
	if kept == 0 {
		t.Fatalf("none of the %d delivered counters is still stored as an inbound counter", len(all))
	}
	var recycled int64
	for _, r := range resources {
		recycled += r.Stats().RepliesApplied
	}
	t.Logf("%d delivered counters unchanged, %d still inbound, %d replies applied", len(all), kept, recycled)
}

// TestReplyRecycling: under Shamir each candidate's ⊥ replies are dealt
// into the counters they supersede, so while a frequency candidate's
// scan replies every step its ⊥ sum ciphertext takes only three
// addresses — the current one, the staged one and the spare's. Behind a
// scheme without the capability, or with an adversary hook wired, every
// reply encrypts into a new ciphertext.
func TestReplyRecycling(t *testing.T) {
	sh := shamir.MustNew(shamir.Params{K: 2, N: 5, W: 1})
	for _, tc := range []struct {
		name    string
		scheme  homo.Scheme
		advFor  func(int) Adversary
		recycle bool
	}{
		{"shamir", sh, nil, true},
		{"capability hidden", struct{ homo.Scheme }{sh}, nil, false},
		{"adversary wired", sh, func(int) Adversary { return gatedAdversary{&chaosBadShare{}, func() bool { return false }} }, false},
	} {
		e, resources, _ := buildSecureGrid(t, tc.scheme, 5, 2, 3, slowScan, tc.advFor)
		seen := map[*secCandidate]map[*homo.Ciphertext]bool{}
		most, replies := 0, int64(0)
		for step := 0; step < 40; step++ {
			e.Step()
			for _, r := range resources {
				for _, c := range r.Broker.cands {
					if len(c.Rule.LHS) != 0 {
						continue // a confidence scan idles between matches and drops its spare
					}
					if seen[c] == nil {
						seen[c] = map[*homo.Ciphertext]bool{}
					}
					seen[c][c.local.Sum] = true
					most = max(most, len(seen[c]))
				}
			}
		}
		for _, r := range resources {
			replies += r.Stats().RepliesApplied
		}
		if replies < int64(20*len(seen)) {
			t.Fatalf("%s: %d replies over %d candidates; too few to tell", tc.name, replies, len(seen))
		}
		if recycled := most <= 3; recycled != tc.recycle {
			t.Fatalf("%s: a candidate's ⊥ sum took %d distinct addresses over %d replies", tc.name, most, replies)
		}
	}
}
