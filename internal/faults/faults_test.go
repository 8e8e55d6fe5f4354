package faults

import (
	"sync"
	"testing"
)

func TestDeterministicVerdictSequence(t *testing.T) {
	cfg := Config{Seed: 42, DropProb: 0.3, DupProb: 0.2, DelayJitter: 5}
	a, b := New(cfg), New(cfg)
	for i := int64(0); i < 500; i++ {
		va, vb := a.Decide(0, 1, i), b.Decide(0, 1, i)
		if va != vb {
			t.Fatalf("verdict %d diverged: %+v vs %+v", i, va, vb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.Stats().Dropped == 0 || a.Stats().Duplicated == 0 || a.Stats().Delayed == 0 {
		t.Fatalf("500 verdicts at 30%%/20%%/jitter hit nothing: %+v", a.Stats())
	}
}

func TestCrashRestart(t *testing.T) {
	in := New(Config{Seed: 1})
	if in.Down(3) {
		t.Fatal("fresh injector has node 3 down")
	}
	in.Crash(3)
	if !in.Down(3) {
		t.Fatal("Crash did not take")
	}
	if v := in.Decide(3, 4, 1); !v.Drop {
		t.Fatal("message from a down node survived")
	}
	if v := in.Decide(4, 3, 1); !v.Drop {
		t.Fatal("message to a down node survived")
	}
	in.Restart(3)
	if in.Down(3) {
		t.Fatal("Restart did not take")
	}
	if v := in.Decide(3, 4, 1); v.Drop {
		t.Fatal("message dropped with no faults configured")
	}
	if st := in.Stats(); st.CrashDrops != 2 {
		t.Fatalf("CrashDrops = %d, want 2", st.CrashDrops)
	}
}

func TestPartitionSemantics(t *testing.T) {
	in := New(Config{Seed: 1})
	in.Partition([]int{0, 1}, []int{2, 3})
	cases := []struct {
		u, v int
		cut  bool
	}{
		{0, 1, false}, // same group
		{2, 3, false}, // same group
		{0, 2, true},  // across groups
		{1, 3, true},  // across groups
		{0, 5, false}, // 5 unlisted: unaffected
		{5, 3, false},
	}
	for _, c := range cases {
		if got := in.Cut(c.u, c.v); got != c.cut {
			t.Fatalf("Cut(%d,%d) = %v, want %v", c.u, c.v, got, c.cut)
		}
		if got := in.Decide(c.u, c.v, 1).Drop; got != c.cut {
			t.Fatalf("Decide(%d,%d).Drop = %v, want %v", c.u, c.v, got, c.cut)
		}
	}
	in.Heal()
	if in.Cut(0, 2) {
		t.Fatal("Heal left the partition installed")
	}
}

// TestScheduleReplay: Advance fires each event once, at its At, whether
// the schedule is given in At order or out of it (secmr-sim appends
// crashes before partitions, whatever their steps).
func TestScheduleReplay(t *testing.T) {
	sorted := []Event{
		{At: 10, Crash: []int{1}},
		{At: 20, Partition: [][]int{{0, 1}, {2}}},
		{At: 30, Restart: []int{1}, Heal: true},
	}
	unsorted := []Event{sorted[2], sorted[0], sorted[1]}
	for _, sched := range [][]Event{sorted, unsorted} {
		in := New(Config{Seed: 1, Schedule: sched})
		in.Advance(9)
		if in.Down(1) || in.Cut(0, 2) {
			t.Fatal("events fired early")
		}
		in.Advance(10)
		if !in.Down(1) {
			t.Fatal("crash at 10 missed")
		}
		in.Advance(25)
		if !in.Cut(0, 2) {
			t.Fatal("partition at 20 missed")
		}
		if in.Cut(0, 1) {
			t.Fatal("same-group link cut")
		}
		in.Advance(30)
		if in.Down(1) || in.Cut(0, 2) {
			t.Fatal("restart+heal at 30 missed")
		}
		// Replaying past times must not re-fire events.
		in.Crash(2)
		in.Advance(100)
		if !in.Down(2) {
			t.Fatal("Advance re-applied a consumed restart")
		}
	}
	if sorted[0].At != 10 || unsorted[0].At != 30 {
		t.Fatal("New reordered the caller's schedule")
	}
}

func TestDuplicationYieldsTwoCopies(t *testing.T) {
	in := New(Config{Seed: 7, DupProb: 1})
	v := in.Decide(0, 1, 1)
	if v.Drop || v.Copies != 2 {
		t.Fatalf("DupProb=1 verdict: %+v", v)
	}
}

// TestDecideAllocFree: a verdict is a value; deciding a message's fate
// allocates nothing, duplicated and jittered ones included.
func TestDecideAllocFree(t *testing.T) {
	in := New(Config{Seed: 3, DropProb: 0.1, DupProb: 0.5, DelayJitter: 4})
	seq := int64(0)
	if avg := testing.AllocsPerRun(1000, func() { seq++; in.Decide(1, 2, seq) }); avg != 0 {
		t.Fatalf("Decide allocates %.2f objects per call, want 0", avg)
	}
}

// TestVerdictOrderIndependence: a message's verdict is a function of
// (Seed, from, to, seq) alone. Deciding one fixed set of messages
// forward, in reverse and from 8 goroutines gives every message the same
// verdict and leaves the same Stats.
func TestVerdictOrderIndependence(t *testing.T) {
	cfg := Config{Seed: 5, DropProb: 0.2, DupProb: 0.3, DelayJitter: 3}
	type msg struct {
		from, to int
		seq      int64
	}
	var msgs []msg
	for from := 0; from < 6; from++ {
		for to := 0; to < 6; to++ {
			for seq := int64(1); seq <= 40; seq++ {
				msgs = append(msgs, msg{from, to, seq})
			}
		}
	}
	forward := New(cfg)
	want := make([]Verdict, len(msgs))
	for i, m := range msgs {
		want[i] = forward.Decide(m.from, m.to, m.seq)
	}
	reverse := New(cfg)
	got := make([]Verdict, len(msgs))
	for i := len(msgs) - 1; i >= 0; i-- {
		got[i] = reverse.Decide(msgs[i].from, msgs[i].to, msgs[i].seq)
	}
	check := func(label string, in *Injector) {
		t.Helper()
		for i := range msgs {
			if got[i] != want[i] {
				t.Fatalf("%s: message %+v got %+v, forward %+v", label, msgs[i], got[i], want[i])
			}
		}
		if in.Stats() != forward.Stats() {
			t.Fatalf("%s: stats %+v, forward %+v", label, in.Stats(), forward.Stats())
		}
	}
	check("reverse", reverse)

	concurrent := New(cfg)
	clear(got)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(msgs); i += 8 {
				got[i] = concurrent.Decide(msgs[i].from, msgs[i].to, msgs[i].seq)
			}
		}()
	}
	wg.Wait()
	check("8 goroutines", concurrent)
	if st := forward.Stats(); st.Dropped == 0 || st.Duplicated == 0 || st.Delayed == 0 {
		t.Fatalf("scenario exercises nothing: %+v", st)
	}
}

// TestHashedFaultRollRates: the hashed rolls land near their
// probabilities. Duplicates are rolled only on messages that survive
// the drop, and jitter is uniform over [0, DelayJitter].
func TestHashedFaultRollRates(t *testing.T) {
	const (
		n      = 20000
		jitter = 3
	)
	in := New(Config{Seed: 99, DropProb: 0.3, DupProb: 0.2, DelayJitter: jitter})
	drops, dups := 0, 0
	var delays [jitter + 1]int
	for seq := int64(0); seq < n; seq++ {
		v := in.Decide(1, 2, seq)
		if v.Drop {
			drops++
			continue
		}
		if v.Copies == 2 {
			dups++
		}
		for c := range v.Copies {
			delays[v.Extra[c]]++
		}
	}
	if got := float64(drops) / n; got < 0.28 || got > 0.32 {
		t.Fatalf("drop rate %.3f, want ≈0.30", got)
	}
	// 0.7 * 0.2 = 0.14.
	if got := float64(dups) / n; got < 0.125 || got > 0.155 {
		t.Fatalf("dup rate %.3f, want ≈0.14", got)
	}
	copies := n - drops + dups
	for d, c := range delays {
		if got := float64(c) / float64(copies); got < 0.23 || got > 0.27 {
			t.Fatalf("jitter %d drawn for %.3f of copies, want ≈0.25 (%v)", d, got, delays)
		}
	}
}
