package netgrid

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secmr/internal/faults"
)

// collector records inbound frames thread-safely.
type collector struct {
	mu     sync.Mutex
	frames []string
	froms  []int
}

func (c *collector) handle(from int, frame []byte) {
	c.mu.Lock()
	c.frames = append(c.frames, string(frame))
	c.froms = append(c.froms, from)
	c.mu.Unlock()
}

func (c *collector) got() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.frames...)
}

func waitFrames(t *testing.T, c *collector, n int, within time.Duration) []string {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if fs := c.got(); len(fs) >= n {
			return fs
		}
		if time.Now().After(deadline) {
			t.Fatalf("saw %d frames, want %d within %v", len(c.got()), n, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReconnectAfterPeerRestart kills a peer, restarts it on the same
// port, and requires the supervisor to re-establish the link and
// deliver traffic queued during the outage.
func TestReconnectAfterPeerRestart(t *testing.T) {
	rx := &collector{}
	b, err := Start(1, rx.handle, authOpt(1, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()

	a, err := Start(0, func(int, []byte) {}, authOpt(0, Options{
		ReconnectBase: 5 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Connect(map[int]string{1: addr}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, []byte("before")); err != nil {
		t.Fatal(err)
	}
	waitFrames(t, rx, 1, 5*time.Second)
	b.Close()

	// Sends during the outage must queue, not vanish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send(1, []byte("during")); err != nil {
			break // link noticed the death; frame parked
		}
		if time.Now().After(deadline) {
			t.Fatal("link never noticed the peer dying")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart the peer on the same port: the supervisor must heal the
	// link and flush the queue.
	rx2 := &collector{}
	b2, err := Start(1, rx2.handle, authOpt(1, Options{ListenAddr: addr}))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	got := waitFrames(t, rx2, 1, 10*time.Second)
	if got[0] != "during" {
		t.Fatalf("first frame after heal = %q, want the queued %q", got[0], "during")
	}
	// And fresh sends flow again, after the queued backlog.
	if !a.WaitFor([]int{1}, 5*time.Second) {
		t.Fatal("link not marked up after heal")
	}
	if err := a.Send(1, []byte("after")); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	// The backlog is one "during" or two: one whose write failed as the
	// link died is requeued ahead of the parked one.
	for deadline := time.Now().Add(5 * time.Second); got[len(got)-1] != "after"; got = rx2.got() {
		if time.Now().After(deadline) {
			t.Fatalf("fresh frame never arrived after the backlog: %q", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, f := range got[:len(got)-1] {
		if f != "during" {
			t.Fatalf("frames after heal arrived out of order: %q", got)
		}
	}
}

// TestSendErrorThenSuccessAfterHeal verifies the documented Send
// contract: ErrPeerDown while the link is down, nil once healed.
func TestSendErrorThenSuccessAfterHeal(t *testing.T) {
	rx := &collector{}
	b, err := Start(1, rx.handle, authOpt(1, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	a, err := Start(0, func(int, []byte) {}, authOpt(0, Options{
		ReconnectBase: 5 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Connect(map[int]string{1: addr}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send(1, []byte("x")); err == ErrPeerDown {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never got ErrPeerDown from a dead link")
		}
		time.Sleep(5 * time.Millisecond)
	}
	b2, err := Start(1, rx.handle, authOpt(1, Options{ListenAddr: addr}))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if !a.WaitFor([]int{1}, 10*time.Second) {
		t.Fatal("link did not heal")
	}
	if err := a.Send(1, []byte("y")); err != nil {
		t.Fatalf("send on healed link: %v", err)
	}
}

// TestSimultaneousConnectConverges has both endpoints dial each other
// concurrently; the tie-break must leave exactly one usable link in
// each direction with no deadlock.
func TestSimultaneousConnectConverges(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		ca, cb := &collector{}, &collector{}
		a, err := Start(0, ca.handle, authOpt(0, Options{}))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Start(1, cb.handle, authOpt(1, Options{}))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); a.Connect(map[int]string{1: b.Addr()}) }()
		go func() { defer wg.Done(); b.Connect(map[int]string{0: a.Addr()}) }()
		wg.Wait()
		if !a.WaitFor([]int{1}, 5*time.Second) || !b.WaitFor([]int{0}, 5*time.Second) {
			t.Fatal("links not up after simultaneous connect")
		}
		// A frame written just as the tie-break swaps connections can be
		// lost (no transport-level acks); resend until delivery, as the
		// duplicate-tolerant protocol layer effectively does.
		sendUntil := func(n *Node, to int, c *collector, body string) {
			deadline := time.Now().Add(5 * time.Second)
			for len(c.got()) == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("trial %d: %d->%d frame never delivered", trial, n.ID(), to)
				}
				n.Send(to, []byte(body))
				time.Sleep(10 * time.Millisecond)
			}
		}
		sendUntil(a, 1, cb, "ab")
		sendUntil(b, 0, ca, "ba")
		a.Close()
		b.Close()
	}
}

// TestSpoofedSenderRejected opens a legitimate handshake as peer 7 and
// then emits a data frame claiming to be peer 3: the frame must not be
// delivered and the offending connection must die, while an honest
// connection on the same node keeps working.
func TestSpoofedSenderRejected(t *testing.T) {
	var delivered atomic.Int64
	var badFrom atomic.Int64
	n, err := Start(0, func(from int, frame []byte) {
		delivered.Add(1)
		if from != 7 && from != 5 {
			badFrom.Store(int64(from))
		}
	}, authOpt(0, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Honest peer 5 via the real API.
	honest, err := Start(5, func(int, []byte) {}, authOpt(5, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()
	if err := honest.Connect(map[int]string{0: n.Addr()}); err != nil {
		t.Fatal(err)
	}

	// Raw attacker socket: handshake as 7, then spoof frames from 3.
	conn := rawAuthDial(t, n.Addr(), 7, 0)
	defer conn.Close()
	if err := writeRawBatch(conn, 3, []byte("forged")); err != nil {
		t.Fatal(err)
	}
	// The node must close the spoofing connection: further reads hit EOF.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("spoofing connection still open")
	}
	// Honest traffic still flows.
	if err := honest.Send(0, []byte("legit")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("honest frame never delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if badFrom.Load() != 0 {
		t.Fatalf("handler saw spoofed sender %d", badFrom.Load())
	}
}

// TestGarbageFrameClosesOnlyOffendingConn handshakes then sends garbage
// on one connection while a second, honest connection stays usable.
func TestGarbageFrameClosesOnlyOffendingConn(t *testing.T) {
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

	conn := rawAuthDial(t, n.Addr(), 9, 0)
	defer conn.Close()
	// Oversized length field: must kill this connection only.
	conn.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 9})
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("garbage connection still open")
	}
	if err := honest.Send(0, []byte("still fine")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("honest frame never delivered after garbage on another conn")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHeartbeatDeclaresPartitionedPeerDown uses a shared injector: a
// partition starves heartbeats until the peer is declared down, and
// healing lets the supervisor reconnect.
func TestHeartbeatDeclaresPartitionedPeerDown(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 3})
	var downs atomic.Int64
	mk := func(id int, peerDown func(int)) *Node {
		n, err := Start(id, func(int, []byte) {}, authOpt(id, Options{
			ReconnectBase:  5 * time.Millisecond,
			HeartbeatEvery: 10 * time.Millisecond,
			PeerTimeout:    60 * time.Millisecond,
			Faults:         inj,
			OnPeerDown:     peerDown,
		}))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := mk(0, func(int) { downs.Add(1) })
	defer a.Close()
	b := mk(1, nil)
	defer b.Close()
	if err := a.Connect(map[int]string{1: b.Addr()}); err != nil {
		t.Fatal(err)
	}
	if !a.WaitFor([]int{1}, 5*time.Second) {
		t.Fatal("initial link never came up")
	}

	inj.Partition([]int{0}, []int{1})
	deadline := time.Now().Add(10 * time.Second)
	for downs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("partition never declared the peer down")
		}
		time.Sleep(10 * time.Millisecond)
	}

	inj.Heal()
	if !a.WaitFor([]int{1}, 10*time.Second) {
		t.Fatal("link did not heal after the partition lifted")
	}
	if inj.Stats().Reconnects == 0 {
		t.Fatal("no reconnect counted after heal")
	}
	if err := a.Send(1, []byte("post-heal")); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
}

// TestQueueBounded floods a dead link and checks the overflow policy:
// the queue keeps the newest QueueLen frames and counts the drops.
func TestQueueBounded(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 4})
	a, err := Start(0, func(int, []byte) {}, authOpt(0, Options{
		QueueLen:      8,
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
	// Wait until the link notices, then overflow the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send(1, []byte("seed")); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("link never died")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		a.Send(1, []byte(fmt.Sprintf("f%02d", i)))
	}
	if inj.Stats().QueueDrops == 0 {
		t.Fatal("queue overflow not counted")
	}
	rx2 := &collector{}
	b2, err := Start(1, rx2.handle, authOpt(1, Options{ListenAddr: addr}))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	got := waitFrames(t, rx2, 8, 10*time.Second)
	if got[len(got)-1] != "f19" {
		t.Fatalf("newest frame missing after overflow: %q", got)
	}
}
