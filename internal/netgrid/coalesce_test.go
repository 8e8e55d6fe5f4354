package netgrid

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"secmr/internal/faults"
	"secmr/internal/obs"
)

// TestCoalescingFlushesBacklogInOneFrame parks a backlog behind a dead
// link and checks the reconnect drain goes out coalesced: all messages
// arrive, in order, in fewer wire frames than messages.
func TestCoalescingFlushesBacklogInOneFrame(t *testing.T) {
	sink := obs.NewSink()
	a, err := Start(0, func(int, []byte) {}, authOpt(0, Options{
		ReconnectBase: 5 * time.Millisecond,
		Obs:           sink,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	rx := &collector{}
	b, err := Start(1, rx.handle, authOpt(1, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	if err := a.Connect(map[int]string{1: addr}); err != nil {
		t.Fatal(err)
	}
	// A lone message is a one-element batch, not a frame kind of its own:
	// one wire frame of header ‖ uvarint(len) ‖ body. The counters move
	// after the write returns, which can be after the handler has fired.
	if err := a.Send(1, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	if got := waitFrames(t, rx, 1, 5*time.Second); got[0] != "solo" {
		t.Fatalf("lone message arrived as %q", got[0])
	}
	for deadline := time.Now().Add(5 * time.Second); a.cWireFrames.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("lone message never counted as a wire frame")
		}
		time.Sleep(time.Millisecond)
	}
	if frames, bytes := a.cWireFrames.Value(), a.cWireBytes.Value(); frames != 1 || bytes != 9+1+4 {
		t.Fatalf("lone 4-byte message went out as %d frames, %d bytes; want one 14-byte batch frame", frames, bytes)
	}
	b.Close()
	// Probe until the link is marked down. A probe whose write fails
	// mid-flight is requeued rather than lost, so probes may legally
	// resurface ahead of the backlog after the reconnect.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send(1, []byte("probe")); err == ErrPeerDown {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("link never died")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		a.Send(1, []byte(fmt.Sprintf("m%02d", i)))
	}
	framesBefore := a.cWireFrames.Value()

	rx2 := &collector{}
	b2, err := Start(1, rx2.handle, authOpt(1, Options{ListenAddr: addr}))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	deadline = time.Now().Add(10 * time.Second)
	var got []string
	for {
		got = rx2.got()
		if len(got) > 0 && got[len(got)-1] == "m09" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backlog never drained: got %q", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for len(got) > 0 && got[0] == "probe" {
		got = got[1:]
	}
	if len(got) != 10 {
		t.Fatalf("got %q after leading probes, want m00..m09", got)
	}
	for i := 0; i < 10; i++ {
		if want := fmt.Sprintf("m%02d", i); got[i] != want {
			t.Fatalf("frame %d = %q, want %q (order broken by coalescing)", i, got[i], want)
		}
	}
	flushFrames := a.cWireFrames.Value() - framesBefore
	if flushFrames >= 10 {
		t.Fatalf("backlog of 10 messages used %d wire frames — no coalescing", flushFrames)
	}
	if a.cWireBytes.Value() == 0 {
		t.Fatal("wire byte counter never moved")
	}
}

// TestQueueBoundedByBytes floods a dead link with large frames: the
// byte bound must evict oldest frames long before the message-count
// bound would, and the newest frame must survive.
func TestQueueBoundedByBytes(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 4})
	a, err := Start(0, func(int, []byte) {}, authOpt(0, Options{
		QueueLen:      1024,
		QueueBytes:    4096,
		ReconnectBase: 5 * time.Millisecond,
		Faults:        inj,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	rx := &collector{}
	b, err := Start(1, rx.handle, authOpt(1, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	if err := a.Connect(map[int]string{1: addr}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send(1, make([]byte, 512)); err == ErrPeerDown {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("link never died")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// 40 × 512B = 20 KiB against a 4 KiB budget: far under QueueLen,
	// so every eviction below is byte-driven.
	for i := 0; i < 40; i++ {
		frame := make([]byte, 512)
		frame[0] = byte(i)
		a.Send(1, frame)
	}
	if inj.Stats().QueueDrops == 0 {
		t.Fatal("byte overflow not counted as queue drops")
	}
	p := a.peer(1)
	p.mu.Lock()
	qBytes, qLen := p.qBytes, len(p.queue)
	p.mu.Unlock()
	if qBytes > 4096 {
		t.Fatalf("queue holds %d bytes, budget 4096", qBytes)
	}
	if qLen == 0 {
		t.Fatal("queue empty after flood")
	}
	rx2 := &collector{}
	b2, err := Start(1, rx2.handle, authOpt(1, Options{ListenAddr: addr}))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	got := waitFrames(t, rx2, qLen, 10*time.Second)
	if last := got[len(got)-1]; last[0] != 39 {
		t.Fatalf("newest frame missing after byte overflow: first byte %d", last[0])
	}
}

// TestMalformedBatchKillsOnlyOffendingConn hand-crafts corrupt batch
// frames on a raw connection: the node must survive, kill that
// connection, and keep serving an honest peer.
func TestMalformedBatchKillsOnlyOffendingConn(t *testing.T) {
	var delivered atomic.Int64
	n, err := Start(0, func(int, []byte) { delivered.Add(1) }, authOpt(0, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	honest, err := Start(5, func(int, []byte) {}, authOpt(5, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()
	if err := honest.Connect(map[int]string{0: n.Addr()}); err != nil {
		t.Fatal(err)
	}

	for name, payload := range map[string][]byte{
		"empty batch":      {},
		"length overrun":   {0x05, 'h', 'i'},
		"giant length":     {0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 'x'},
		"truncated varint": {0x80},
	} {
		conn := rawAuthDial(t, n.Addr(), 9, 0)
		if err := writeFrame(conn, kindBatch, 9, payload); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatalf("%s: malformed batch left connection open", name)
		}
		conn.Close()
	}

	if err := honest.Send(0, []byte("still fine")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("honest frame never delivered after malformed batches")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSeededLinkFaultsReproduce: Send numbers each link's frames, so a
// seeded injector gives the n-th frame on a link the fate a fresh
// injector's Decide(from, to, n) gives it — dropped frames never
// arrive, duplicated ones arrive twice, in order — however the run's
// goroutines interleave.
func TestSeededLinkFaultsReproduce(t *testing.T) {
	cfg := faults.Config{Seed: 3, DropProb: 0.3, DupProb: 0.3}
	a, err := Start(0, func(int, []byte) {}, authOpt(0, Options{Faults: faults.New(cfg)}))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	rx := &collector{}
	b, err := Start(1, rx.handle, authOpt(1, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Connect(map[int]string{1: b.Addr()}); err != nil {
		t.Fatal(err)
	}
	ref := faults.New(cfg)
	var want []string
	for i := 1; i <= 60; i++ {
		f := fmt.Sprintf("f%02d", i)
		if err := a.Send(1, []byte(f)); err != nil {
			t.Fatal(err)
		}
		if v := ref.Decide(0, 1, int64(i)); !v.Drop {
			for range v.Copies {
				want = append(want, f)
			}
		}
	}
	if st := ref.Stats(); st.Dropped == 0 || st.Duplicated == 0 {
		t.Fatalf("reference verdicts exercise nothing: %+v", st)
	}
	got := waitFrames(t, rx, len(want), 5*time.Second)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivered %q,\nreference verdicts give %q", got, want)
	}
}
