package netgrid

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"secmr/internal/arm"
	"secmr/internal/core"
	"secmr/internal/faults"
	"secmr/internal/hashing"
	"secmr/internal/homo"
	"secmr/internal/metrics"
	"secmr/internal/paillier"
	"secmr/internal/quest"
	"secmr/internal/topology"
)

// TestSecureMiningOverTCP runs the complete Secure-Majority-Rule stack
// — Paillier oblivious counters, SFE gates, share/timestamp
// verification — across real TCP connections, and checks the grid
// converges to the centralized ground truth. This is the end-to-end
// deployment test: simulator out of the loop entirely.
func TestSecureMiningOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("network + crypto end-to-end")
	}
	const n = 4
	seed := int64(3)
	scheme, err := paillier.GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(seed))
	global := quest.Generate(quest.Params{NumTransactions: n * 120, NumItems: 15,
		NumPatterns: 8, AvgTransLen: 4, AvgPatternLen: 2, Seed: seed})
	th := arm.Thresholds{MinFreq: 0.2, MinConf: 0.7}
	universe := arm.Itemset{}
	for i := 0; i < 15; i++ {
		universe = append(universe, arm.Item(i))
	}
	truth := arm.GroundTruth(global, th, universe, 2)
	parts := hashing.Partition(global, n, rng)
	tree := topology.Line(n, topology.DelayRange{Min: 1, Max: 1}, rng)

	cfg := core.Config{Th: th, Universe: universe, ScanBudget: 40,
		CandidateEvery: 5, K: 2, MaxRuleItems: 2, IntraDelay: true}
	hosts := make([]*Host, n)
	for i := 0; i < n; i++ {
		res := core.NewResource(i, cfg, scheme, parts[i], nil, nil)
		h, err := NewHost(i, res, scheme, authOpt(i, Options{}))
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
		defer h.Close()
	}
	// Wire the tree (lower id dials higher to avoid double dialing).
	for i := 0; i < n; i++ {
		peers := map[int]string{}
		for _, w := range tree.Neighbors(i) {
			if w < i {
				peers[w] = hosts[w].Node().Addr()
			}
		}
		if err := hosts[i].Node().Connect(peers); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if !hosts[i].Node().WaitFor(tree.Neighbors(i), 10*time.Second) {
			t.Fatalf("host %d: neighbours never connected", i)
		}
	}
	for i := 0; i < n; i++ {
		hosts[i].Run(tree.Neighbors(i), 2*time.Millisecond)
	}

	deadline := time.After(90 * time.Second)
	for {
		outs := make([]arm.RuleSet, n)
		for i, h := range hosts {
			h.mu.Lock()
			outs[i] = h.res.Output()
			h.mu.Unlock()
		}
		rec, prec := metrics.Average(outs, truth)
		if rec >= 0.9 && prec >= 0.9 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("TCP grid stuck at recall=%.3f precision=%.3f (truth %d)", rec, prec, len(truth))
		case <-time.After(100 * time.Millisecond):
		}
	}
	for i, h := range hosts {
		if rules, halted := h.Snapshot(); halted || rules == 0 {
			t.Fatalf("host %d: rules=%d halted=%v", i, rules, halted)
		}
	}
}

// TestSecureMiningOverLossyTCP is the deployment-shape chaos test: the
// full protocol stack over real sockets with 15% frame loss and a
// mid-run crash/restart of one resource, relying on the transport's
// self-healing (heartbeat detection, reconnect supervisor, queued
// drain) plus the protocol's LossyLinks recovery to converge anyway.
func TestSecureMiningOverLossyTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("network end-to-end with chaos")
	}
	const n = 4
	seed := int64(5)
	scheme := homo.NewPlain(96)
	rng := mrand.New(mrand.NewSource(seed))
	global := quest.Generate(quest.Params{NumTransactions: n * 120, NumItems: 15,
		NumPatterns: 8, AvgTransLen: 4, AvgPatternLen: 2, Seed: seed})
	th := arm.Thresholds{MinFreq: 0.2, MinConf: 0.7}
	universe := arm.Itemset{}
	for i := 0; i < 15; i++ {
		universe = append(universe, arm.Item(i))
	}
	truth := arm.GroundTruth(global, th, universe, 2)
	parts := hashing.Partition(global, n, rng)
	tree := topology.Line(n, topology.DelayRange{Min: 1, Max: 1}, rng)

	inj := faults.New(faults.Config{Seed: seed, DropProb: 0.15})
	cfg := core.Config{Th: th, Universe: universe, ScanBudget: 40,
		CandidateEvery: 5, K: 2, MaxRuleItems: 2, IntraDelay: true,
		LossyLinks: true}
	opt := Options{
		Faults:         inj,
		HeartbeatEvery: 25 * time.Millisecond,
		ReconnectBase:  10 * time.Millisecond,
		ReconnectMax:   100 * time.Millisecond,
		Logf:           t.Logf,
	}
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
	for i := 0; i < n; i++ {
		peers := map[int]string{}
		for _, w := range tree.Neighbors(i) {
			if w < i {
				peers[w] = hosts[w].Node().Addr()
			}
		}
		if err := hosts[i].Node().Connect(peers); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if !hosts[i].Node().WaitFor(tree.Neighbors(i), 10*time.Second) {
			t.Fatalf("host %d: neighbours never connected", i)
		}
	}
	for i := 0; i < n; i++ {
		hosts[i].Run(tree.Neighbors(i), 2*time.Millisecond)
	}

	// Let the grid make progress under loss, then cut host 2 off the
	// network entirely for a while (its frames all drop, heartbeats
	// starve, peers declare it down and queue), then bring it back.
	time.Sleep(400 * time.Millisecond)
	inj.Crash(2)
	time.Sleep(400 * time.Millisecond)
	inj.Restart(2)

	deadline := time.After(90 * time.Second)
	for {
		outs := make([]arm.RuleSet, n)
		for i, h := range hosts {
			outs[i] = h.OutputSnapshot()
		}
		rec, prec := metrics.Average(outs, truth)
		if rec >= 0.9 && prec >= 0.9 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("lossy TCP grid stuck at recall=%.3f precision=%.3f (faults %+v)",
				rec, prec, inj.Stats())
		case <-time.After(100 * time.Millisecond):
		}
	}
	st := inj.Stats()
	if st.Dropped == 0 || st.CrashDrops == 0 {
		t.Fatalf("chaos regime did not bite: %+v", st)
	}
	for i, h := range hosts {
		if _, halted := h.Snapshot(); halted {
			t.Fatalf("host %d halted under honest chaos (false detection)", i)
		}
	}
}

// TestHostParksSilentlyWhilePeerDown: ErrPeerDown is the documented
// "queued, drains on reconnect" outcome, so a host whose neighbour's
// endpoint is gone keeps ticking without logging it once per message
// (the heartbeat and reconnect lines say why the peer is down;
// secmr_net_parked_frames counts the backlog).
func TestHostParksSilentlyWhilePeerDown(t *testing.T) {
	cfg, scheme, parts, _, _ := persistGridSpec() // LossyLinks grid; hosts 0 and 1 of it

	var mu sync.Mutex
	var lines []string
	opt := Options{ReconnectBase: 5 * time.Millisecond, Logf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}}
	hosts := make([]*Host, 2)
	for i := range hosts {
		res := core.NewResource(i, cfg, scheme, parts[i], nil, nil)
		h, err := NewHost(i, res, scheme, authOpt(i, opt))
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
		defer h.Close()
	}
	if err := hosts[1].Node().Connect(map[int]string{0: hosts[0].Node().Addr()}); err != nil {
		t.Fatal(err)
	}
	if !hosts[0].Node().WaitFor([]int{1}, 10*time.Second) {
		t.Fatal("pair never connected")
	}
	hosts[0].Run([]int{1}, 2*time.Millisecond)
	hosts[1].Run([]int{0}, 2*time.Millisecond)
	hosts[1].Close()

	// Tick until a send has met the dead link: a frame parked for peer 1
	// is a Send that returned ErrPeerDown.
	p := hosts[0].Node().peer(1)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		p.mu.Lock()
		parked := !p.up && len(p.queue) > 0
		p.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("host never sent into the dead link")
		}
	}
	hosts[0].StopTicking()
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if strings.Contains(l, ErrPeerDown.Error()) {
			t.Fatalf("host logged a parked frame as an error: %q (of %d lines)", l, len(lines))
		}
	}
}
