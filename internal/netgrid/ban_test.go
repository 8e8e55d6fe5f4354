package netgrid

import (
	mrand "math/rand"
	"testing"
	"time"

	"secmr/internal/arm"
	"secmr/internal/core"
	"secmr/internal/hashing"
	"secmr/internal/homo"
	"secmr/internal/quest"
)

// TestBanSeversPeer exercises every transport surface a ban must cover:
// the live connection drops, Sends to the banned peer vanish without
// error, inbound frames from it are discarded however it gets them in
// (its redial handshakes are refused, and anything slipping through a
// re-dial race dies at dispatch) — and an unrelated peer is completely
// unaffected. The banned peer's own link view may flap while its
// supervisor retries (a dialer adopts the conn once it has answered
// the challenge, before the banning side closes it); the contract is
// that no payload crosses, not that the retries stop.
func TestBanSeversPeer(t *testing.T) {
	ra, rb, rc := &collector{}, &collector{}, &collector{}
	a, err := Start(0, ra.handle, authOpt(0, Options{ReconnectBase: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Start(1, rb.handle, authOpt(1, Options{ReconnectBase: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := Start(2, rc.handle, authOpt(2, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := a.Connect(map[int]string{1: b.Addr(), 2: c.Addr()}); err != nil {
		t.Fatal(err)
	}
	if !a.WaitFor([]int{1, 2}, 5*time.Second) {
		t.Fatal("links never came up")
	}
	if err := a.Send(1, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	waitFrames(t, rb, 1, 5*time.Second)

	a.Ban(1)
	a.Ban(1) // idempotent
	if !a.Banned(1) || a.Banned(2) {
		t.Fatalf("banned(1)=%v banned(2)=%v, want true/false", a.Banned(1), a.Banned(2))
	}

	// Sends to the banned peer succeed as no-ops and deliver nothing.
	preB := len(rb.got())
	for i := 0; i < 20; i++ {
		if err := a.Send(1, []byte("ghost")); err != nil {
			t.Fatalf("send to banned peer errored: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Nothing from the banned peer reaches a's handler, no matter how
	// hard it tries: keep sending across ban-close/redial flaps.
	preA := len(ra.got())
	for i := 0; i < 60; i++ {
		b.Send(0, []byte("smear")) // err or silent drop both fine
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(ra.got()); got != preA {
		t.Fatalf("handler saw %d new frames from the banned peer", got-preA)
	}
	if got := len(rb.got()); got != preB {
		t.Fatalf("banned peer received %d frames after the ban", got-preB)
	}

	// The unrelated peer is untouched.
	if err := a.Send(2, []byte("still-here")); err != nil {
		t.Fatalf("send to unbanned peer: %v", err)
	}
	if got := waitFrames(t, rc, 1, 5*time.Second); got[0] != "still-here" {
		t.Fatalf("unbanned peer received %q", got[0])
	}
}

// TestHostMirrorsEvictionOntoTransport runs two honest resources plus a
// third over TCP with quarantine armed, hands the hub's resource an
// evidence report against one neighbour, and requires the host's tick
// loop to mirror the eviction onto the transport: the evicted peer is
// banned, its link never heals, and the surviving neighbour keeps
// talking.
func TestHostMirrorsEvictionOntoTransport(t *testing.T) {
	const n = 3
	seed := int64(21)
	scheme := homo.NewPlain(96)
	rng := mrand.New(mrand.NewSource(seed))
	global := quest.Generate(quest.Params{NumTransactions: n * 120, NumItems: 15,
		NumPatterns: 8, AvgTransLen: 4, AvgPatternLen: 2, Seed: seed})
	universe := arm.Itemset{}
	for i := 0; i < 15; i++ {
		universe = append(universe, arm.Item(i))
	}
	parts := hashing.Partition(global, n, rng)
	cfg := core.Config{Th: arm.Thresholds{MinFreq: 0.2, MinConf: 0.7},
		Universe: universe, ScanBudget: 40, CandidateEvery: 5, K: 2,
		MaxRuleItems: 2, IntraDelay: true,
		Quarantine: core.QuarantineConfig{Enabled: true}}
	opt := Options{ReconnectBase: 5 * time.Millisecond, ReconnectMax: 50 * time.Millisecond}

	// Star around host 0: neighbours 1 and 2.
	hosts := make([]*Host, n)
	for i := 0; i < n; i++ {
		res := core.NewResource(i, cfg, scheme, parts[i], nil, nil)
		h, err := NewHost(i, res, scheme, authOpt(i, opt))
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
		defer h.Close()
	}
	for i := 1; i < n; i++ {
		if err := hosts[i].Node().Connect(map[int]string{0: hosts[0].Node().Addr()}); err != nil {
			t.Fatal(err)
		}
	}
	if !hosts[0].Node().WaitFor([]int{1, 2}, 10*time.Second) {
		t.Fatal("star never connected")
	}
	hosts[0].Run([]int{1, 2}, 2*time.Millisecond)
	hosts[1].Run([]int{0}, 2*time.Millisecond)
	hosts[2].Run([]int{0}, 2*time.Millisecond)
	time.Sleep(100 * time.Millisecond) // let the grid bootstrap and mine a little

	// A third party delivers cryptographic evidence against neighbour 1.
	h0 := hosts[0]
	h0.mu.Lock()
	h0.res.HandleMessage(hostTransport{h: h0}, 2, core.MaliciousReport{
		Accused: 1, Reporter: 2, Reason: "forged share on rule x", Evidence: true})
	evicted := h0.res.Evicted()
	h0.mu.Unlock()
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted = %v, want [1]", evicted)
	}

	// The ticker's next pass must push the eviction down to the node.
	deadline := time.Now().Add(5 * time.Second)
	for !h0.Node().Banned(1) {
		if time.Now().After(deadline) {
			t.Fatal("host never mirrored the eviction onto the transport")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The survivor keeps mining against the hub.
	if h0.Node().Banned(2) {
		t.Fatal("survivor was banned")
	}
	if _, halted := h0.Snapshot(); halted {
		t.Fatal("hub halted; quarantine should keep it mining")
	}
	if _, halted := hosts[2].Snapshot(); halted {
		t.Fatal("survivor halted")
	}
}
