package secmr

// Integration tests for the telemetry plumbing: trace replay of a full
// majority-vote round, byte-stable traces under seeded faults, counter
// parity with the legacy Stats accessors, the convergence watchdog and
// race-safe mid-run polling of the Grid facade.

import (
	"bytes"
	"sync"
	"testing"

	"secmr/internal/obs"
)

// obsGrid builds a small secure grid with telemetry attached.
func obsGrid(t *testing.T, cfg GridConfig) (*Grid, *Telemetry) {
	t.Helper()
	tel := NewTelemetry()
	cfg.Telemetry = tel
	grid, err := NewGrid(smallDB(900, 11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return grid, tel
}

// TestTraceReplaysMajorityVoteRound reconstructs one complete
// majority-vote round — share grant, oblivious-counter transfer, vote,
// output decision — from the JSONL trace alone, proving the event
// vocabulary and seq ordering are sufficient to replay the protocol.
func TestTraceReplaysMajorityVoteRound(t *testing.T) {
	// Engine-level msg_send/msg_deliver dwarf the protocol events; the
	// replay needs only the protocol layer, so filter at the tracer and
	// widen the ring so nothing of the round is evicted.
	tel := NewTelemetry()
	tel.Tr = obs.NewTracer(1 << 18)
	tel.Tr.SetFilter(TraceFilter{Types: []TraceEventType{
		obs.EvGrantSend, obs.EvGrantRecv, obs.EvCounterSend, obs.EvCounterRecv,
		obs.EvVoteFresh, obs.EvVoteGated, obs.EvVoteSupp, obs.EvOutputDec,
	}})
	grid, err := NewGrid(smallDB(900, 11), GridConfig{
		Algorithm: AlgorithmSecure, Resources: 6, K: 2,
		MinFreq: 0.1, MinConf: 0.6, ScanBudget: 50, Seed: 5,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid.Step(60)
	grid.Output(0) // trigger an Output() SFE so an output_dec is traced

	if ev := tel.Tr.Evicted(); ev != 0 {
		t.Fatalf("ring evicted %d events; shrink the run so the trace is complete", ev)
	}
	var buf bytes.Buffer
	if err := tel.Tr.WriteJSONL(&buf, TraceFilter{}); err != nil {
		t.Fatal(err)
	}
	// From here on, only the serialized trace is consulted.
	events, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("seq not strictly increasing at %d: %d then %d",
				i, events[i-1].Seq, events[i].Seq)
		}
	}

	first := func(match func(obs.Event) bool) (obs.Event, bool) {
		for _, e := range events {
			if match(e) {
				return e, true
			}
		}
		return obs.Event{}, false
	}

	// 1. The round opens with a share grant: some accountant issued one
	// and the addressed broker stored it.
	grant, ok := first(func(e obs.Event) bool { return e.Type == obs.EvGrantSend })
	if !ok {
		t.Fatal("no grant_send in trace")
	}
	grantRecv, ok := first(func(e obs.Event) bool {
		return e.Type == obs.EvGrantRecv && e.Node == grant.Peer && e.Peer == grant.Node
	})
	if !ok {
		t.Fatalf("grant_send %d->%d never received", grant.Node, grant.Peer)
	}
	if grantRecv.Seq <= grant.Seq {
		t.Fatalf("grant received (seq %d) before sent (seq %d)", grantRecv.Seq, grant.Seq)
	}

	// 2. A fresh vote names the rule whose counter round we replay.
	vote, ok := first(func(e obs.Event) bool { return e.Type == obs.EvVoteFresh })
	if !ok {
		t.Fatal("no vote_fresh in trace")
	}
	if vote.Rule == "" {
		t.Fatalf("vote_fresh carries no rule key: %+v", vote)
	}

	// 3. The transfer that fed it: that node ingested an oblivious
	// counter for the rule earlier, and some broker transmitted one for
	// the rule earlier still.
	recv, ok := first(func(e obs.Event) bool {
		return e.Type == obs.EvCounterRecv && e.Node == vote.Node &&
			e.Rule == vote.Rule && e.Seq < vote.Seq
	})
	if !ok {
		t.Fatalf("no counter_recv at node %d for rule %q before the vote", vote.Node, vote.Rule)
	}
	send, ok := first(func(e obs.Event) bool {
		return e.Type == obs.EvCounterSend && e.Node == recv.Peer &&
			e.Peer == recv.Node && e.Rule == vote.Rule && e.Seq < recv.Seq
	})
	if !ok {
		t.Fatalf("no counter_send %d->%d for rule %q before its receipt", recv.Peer, recv.Node, vote.Rule)
	}
	if grant.Seq >= send.Seq {
		t.Fatalf("share grant (seq %d) should precede counter transfer (seq %d)", grant.Seq, send.Seq)
	}

	// 4. The round closes with an Output() decision at resource 0.
	dec, ok := first(func(e obs.Event) bool {
		return e.Type == obs.EvOutputDec && e.Node == 0
	})
	if !ok {
		t.Fatal("no output_dec at resource 0 despite calling Output(0)")
	}
	if dec.Detail != "fresh" && dec.Detail != "cached" {
		t.Fatalf("output_dec detail = %q, want fresh or cached", dec.Detail)
	}
}

// TestTraceDeterministicUnderSeededFaults runs the same seeded fault
// regime twice and requires byte-identical JSONL traces — the property
// that makes a trace attached to a bug report replayable.
func TestTraceDeterministicUnderSeededFaults(t *testing.T) {
	run := func() []byte {
		tel := NewTelemetry()
		grid, err := NewGrid(smallDB(900, 11), GridConfig{
			Algorithm: AlgorithmSecure, Resources: 6, K: 2,
			MinFreq: 0.1, MinConf: 0.6, ScanBudget: 50, Seed: 5,
			Faults:    &FaultConfig{Seed: 99, DropProb: 0.08, DupProb: 0.04, DelayJitter: 2},
			Telemetry: tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		grid.Step(40)
		var buf bytes.Buffer
		if err := tel.Tr.WriteJSONL(&buf, TraceFilter{}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		lo, hi := i-80, i+80
		if lo < 0 {
			lo = 0
		}
		clip := func(s []byte) string {
			if hi > len(s) {
				return string(s[lo:])
			}
			return string(s[lo:hi])
		}
		t.Fatalf("traces diverge at byte %d:\n run1: …%s…\n run2: …%s…", i, clip(a), clip(b))
	}
}

// TestTelemetryCountersMatchStats checks counter/stat parity: every
// obs counter increments exactly alongside its legacy stats field, so
// /metrics and Stats() can never disagree.
func TestTelemetryCountersMatchStats(t *testing.T) {
	grid, tel := obsGrid(t, GridConfig{
		Algorithm: AlgorithmSecure, Resources: 6, K: 2,
		MinFreq: 0.1, MinConf: 0.6, ScanBudget: 50, Seed: 5,
	})
	grid.Step(80)
	st := grid.Stats()

	sum := map[string]float64{}
	for _, p := range tel.Reg.Snapshot() {
		if p.Kind == "counter" {
			sum[p.Name+"|"+p.Labels] += p.Value
			sum[p.Name] += p.Value
		}
	}
	checks := []struct {
		key  string
		want float64
	}{
		{"secmr_counters_sent_total", float64(st.MessagesSent)},
		{"secmr_counter_bytes_total", float64(st.BytesSent)},
		{`secmr_vote_decisions_total|outcome="fresh"`, float64(st.Fresh)},
		{`secmr_vote_decisions_total|outcome="gated"`, float64(st.Gated)},
		{"secmr_sim_messages_total|outcome=\"sent\"", float64(st.EngineSent)},
		{"secmr_sim_messages_total|outcome=\"delivered\"", float64(st.EngineDelivered)},
	}
	for _, c := range checks {
		if sum[c.key] != c.want {
			t.Errorf("%s = %v, want %v (stats parity broken)", c.key, sum[c.key], c.want)
		}
	}
	if sum["secmr_grants_sent_total"] == 0 || sum["secmr_counters_recv_total"] == 0 {
		t.Error("protocol counters never incremented")
	}
}

// TestWatchdogFlagsStalledResources freezes the grid (samples without
// stepping) and expects the convergence watchdog to trip, bump the
// stall counter and emit stall events.
func TestWatchdogFlagsStalledResources(t *testing.T) {
	grid, tel := obsGrid(t, GridConfig{
		Algorithm: AlgorithmSecure, Resources: 6, K: 2,
		MinFreq: 0.1, MinConf: 0.6, ScanBudget: 50, Seed: 5,
		StallPatience: 2,
	})
	grid.Step(5) // partial progress: recall > 0 but far below target
	for i := 0; i < 4; i++ {
		grid.SampleQuality() // no Step between samples: recall is flat
	}
	stalled := grid.Stalled()
	if len(stalled) == 0 {
		t.Fatal("no resource flagged stalled after 4 flat samples with patience 2")
	}
	evs := tel.Tr.Events(TraceFilter{Types: []TraceEventType{obs.EvStall}})
	if len(evs) != len(stalled) {
		t.Fatalf("stall events = %d, want one per stalled resource (%d)", len(evs), len(stalled))
	}
	var stallCount float64
	for _, p := range tel.Reg.Snapshot() {
		if p.Name == "secmr_stalled_resources_total" {
			stallCount = p.Value
		}
	}
	if stallCount != float64(len(stalled)) {
		t.Fatalf("secmr_stalled_resources_total = %v, want %d", stallCount, len(stalled))
	}

	// Progress clears the flags (edge-triggered, recoverable).
	grid.Step(300)
	grid.SampleQuality()
	if s := grid.Stalled(); len(s) >= len(stalled) {
		t.Logf("still stalled after 300 steps: %v (acceptable if genuinely frozen)", s)
	}
}

// TestGridPollingIsRaceSafe hammers every read accessor concurrently
// with Step — the mid-run monitoring pattern ServeIntrospection's
// health hook uses. Run with -race to make it meaningful.
func TestGridPollingIsRaceSafe(t *testing.T) {
	tel := NewTelemetry()
	grid, err := NewGrid(smallDB(400, 11), GridConfig{
		Algorithm: AlgorithmSecure, Resources: 4, K: 2,
		MinFreq: 0.1, MinConf: 0.6, ScanBudget: 25, Seed: 5,
		Faults:    &FaultConfig{Seed: 3, DropProb: 0.05},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	poll := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Bounded so pollers can't starve Step of the mutex under
			// the race detector's serialization; overlap is what counts.
			for i := 0; i < 400; i++ {
				select {
				case <-done:
					return
				default:
					f()
				}
			}
		}()
	}
	poll(func() { grid.Stats() })
	poll(func() { grid.Quality() })
	poll(func() { grid.SampleQuality() })
	poll(func() { grid.FaultStats() })
	poll(func() { grid.Output(0) })
	poll(func() { grid.ScoredOutput(1) })
	poll(func() { grid.ScoredOutput(2) })
	poll(func() { grid.Reports() })
	poll(func() { grid.Stalled(); grid.Steps() })
	poll(func() {
		var buf bytes.Buffer
		_ = tel.Reg.WritePrometheus(&buf)
	})
	poll(func() { tel.Tr.Events(TraceFilter{Types: []TraceEventType{obs.EvVoteFresh}}) })

	for i := 0; i < 6; i++ {
		grid.Step(3)
	}
	close(done)
	wg.Wait()
	if grid.Steps() != 18 {
		t.Fatalf("steps = %d, want 18", grid.Steps())
	}
}

// TestServeIntrospectionRequiresTelemetry pins the error path.
func TestServeIntrospectionRequiresTelemetry(t *testing.T) {
	grid, err := NewGrid(smallDB(300, 1), GridConfig{
		Algorithm: AlgorithmPlain, Resources: 4, K: 2,
		MinFreq: 0.1, MinConf: 0.6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grid.ServeIntrospection("127.0.0.1:0"); err == nil {
		t.Fatal("want error without GridConfig.Telemetry")
	}
}
