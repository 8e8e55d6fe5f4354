// Package netgrid is a real-network transport for the grid protocols:
// each resource is a TCP endpoint on the local host, links are TCP
// connections, and frames are length-prefixed byte payloads (the wire
// codec in internal/core produces them for the secure protocol's
// messages). It complements the in-process runtime — the deterministic
// simulator (internal/sim) — with the transport a genuine deployment
// would use, and the tests drive the voting protocol across it end to
// end.
//
// The transport is self-healing, because the paper's data-grid setting
// assumes resources come and go: every dialable peer gets a supervisor
// goroutine that re-dials with exponential backoff plus jitter after a
// connection dies, frames sent while a peer is down are parked in a
// bounded per-peer queue and flushed on reconnect (the secure protocol
// tolerates the resulting duplicates), and an optional heartbeat
// declares unresponsive peers down so supervisors and the protocol's
// own recovery can take over. The handshake is a signed
// challenge-response (auth.go) that establishes the dialer's id and
// listen address, so a link heals from whichever side notices first.
//
// Sends are asynchronous: every peer has a dedicated sender goroutine
// that drains a per-peer outbound queue (bounded both in messages and
// in bytes) into coalesced multi-message frames — one TCP write carries
// up to 64 KiB of queued messages — so a burst of small
// protocol messages costs one syscall and one frame header instead of
// many. The same queue doubles as the reconnect-drain buffer: frames
// sent while a peer is down park in it and flush on reconnect (the
// secure protocol tolerates the resulting duplicates).
//
// Per-link FIFO is inherited from TCP plus the single sender per peer;
// dispatch is serialized through a single inbox per node, so handlers
// need no internal locking. The sender id in every data frame is
// verified against the id established by the connection's handshake —
// a peer cannot spoof frames on behalf of another resource.
package netgrid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"secmr/internal/core"
	"secmr/internal/faults"
	"secmr/internal/obs"
)

// Handler processes one inbound frame. It runs on the node's single
// dispatch goroutine; send may be called from any goroutine.
type Handler func(from int, frame []byte)

// ErrPeerDown reports that a frame was queued rather than transmitted
// because the peer's connection is currently down; the queue drains
// when the supervisor reconnects.
var ErrPeerDown = errors.New("netgrid: peer down, frame queued")

// Options tunes a node's transport behavior; every field but Auth has
// a sensible zero-value default (see withDefaults).
type Options struct {
	// ListenAddr is the TCP address to listen on. Default
	// "127.0.0.1:0" (ephemeral). A fixed port lets a restarted node
	// reclaim its identity so peers' supervisors can find it again.
	ListenAddr string
	// ReconnectBase/ReconnectMax bound the supervisor's exponential
	// backoff between redial attempts. Defaults 20ms and 1s.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// QueueLen bounds the per-peer outbound queue in messages (frames
	// awaiting their sender goroutine, including frames parked while
	// the peer is down); the oldest frame is dropped on overflow.
	// Default 256.
	QueueLen int
	// QueueBytes bounds the same queue in payload bytes, so a pile-up
	// of large RuleCipherMsg frames during a partition cannot balloon
	// memory even while the message count stays under QueueLen. The
	// oldest frame is dropped until the new one fits. Default 4 MiB.
	QueueBytes int
	// HeartbeatEvery, when positive, enables keepalive pings; a peer
	// silent for PeerTimeout (default 4×HeartbeatEvery) is declared
	// down.
	HeartbeatEvery time.Duration
	PeerTimeout    time.Duration
	// OnPeerDown observes a live link dying. Called without node locks
	// held, so it may call Send; it must not block for long.
	OnPeerDown func(peer int)
	// Faults, when set, is consulted on every send, dial and
	// heartbeat: dropped frames vanish in transit, a Cut or Down
	// verdict blocks dials and starves heartbeats so partitions behave
	// like real ones (links die, heal, and reconnect).
	Faults *faults.Injector
	// Logf receives diagnostics; nil silences them.
	Logf func(string, ...any)
	// Obs, when set, receives transport telemetry: per-node frame
	// counters, a parked-queue gauge, and reconnect / heartbeat-miss
	// trace events. All hooks are nil-safe.
	Obs *obs.Sink
	// Auth is the node's identity key and the roster it verifies peers
	// against. Required: every handshake is a signed challenge-response
	// (auth.go), so a spoofed or evicted endpoint cannot claim an id it
	// lacks the key for. Start fails without it.
	Auth *AuthConfig
	// Clock, when set, is the node's causal trace clock: inbound frames
	// carrying a causal context (core.AppendMessageCtx) merge their
	// origin clock value into it before dispatch, so the handler's own
	// trace events order after the matching send. Host wires the
	// resource's TraceClock here. Nil disables merging (events still
	// carry whatever context the frame holds).
	Clock *obs.Clock
}

func (o Options) withDefaults() Options {
	if o.ListenAddr == "" {
		o.ListenAddr = "127.0.0.1:0"
	}
	if o.ReconnectBase <= 0 {
		o.ReconnectBase = 20 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = time.Second
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 256
	}
	if o.QueueBytes <= 0 {
		o.QueueBytes = 4 << 20
	}
	if o.HeartbeatEvery > 0 && o.PeerTimeout <= 0 {
		o.PeerTimeout = 4 * o.HeartbeatEvery
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Node is one TCP grid endpoint.
type Node struct {
	id      int
	opt     Options
	ln      net.Listener
	handler Handler

	mu      sync.Mutex
	peers   map[int]*peer
	pending map[net.Conn]bool // inbound conns awaiting their handshake
	banned  map[int]bool      // peers severed by Ban (guarded by mu)
	rng     *rand.Rand        // backoff jitter (guarded by mu)

	inbox   chan inFrame
	done    chan struct{}
	wg      sync.WaitGroup
	closed  sync.Once
	sentCnt atomic.Int64

	// transport telemetry, resolved once at Start (nil = off).
	obsTr         *obs.Tracer
	cFramesSent   *obs.Counter
	cFramesRecv   *obs.Counter
	cReconnects   *obs.Counter
	cHbMisses     *obs.Counter
	gParked       *obs.Gauge
	cWireBytes    *obs.Counter
	cWireFrames   *obs.Counter
	hMsgsPerFrame *obs.Histogram
}

// emit records one trace event when tracing is on.
func (n *Node) emit(e obs.Event) {
	if n.obsTr != nil {
		n.obsTr.Emit(e)
	}
}

// peer is the per-neighbor link state.
type peer struct {
	id int
	// wmu serializes writes on the link, so the sender goroutine's
	// coalesced writes and control frames (ping, pong) cannot
	// interleave frame bytes; writes to different peers proceed in
	// parallel.
	wmu sync.Mutex

	mu       sync.Mutex
	conn     net.Conn
	dialer   int    // id of the side that dialed the live conn
	addr     string // peer's listen address ("" = not dialable from here)
	queue    [][]byte
	qBytes   int // sum of payload bytes across queue
	lastSeen time.Time
	up       bool
	everUp   bool
	superv   bool
	kick     chan struct{} // wakes the supervisor after a link death
	wake     chan struct{} // wakes the sender goroutine (buffered, 1)
	// frames numbers the frames Send submits to the fault injector, so
	// a seeded fault regime gives each link's n-th frame the same fate
	// in every run.
	frames atomic.Int64
}

// signal wakes the peer's sender goroutine (coalescing-friendly: many
// signals collapse into one pending token).
func (p *peer) signal() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

type inFrame struct {
	from    int
	payload []byte
}

// Frame kinds. The handshake is a challenge-response pair: the
// acceptor opens with a kindChallenge frame carrying a random nonce,
// and the dialer answers kindHelloAuth — its listen address (so the
// accepting side can dial back when healing the link) plus an ed25519
// signature over the nonce, both ids and that address (see auth.go).
// Every data write is a batch frame, coalescing one or more messages
// into one TCP write: its payload is a repetition of uvarint(len) ‖
// message bytes. Kinds 0 (the unsigned hello) and 1 (the one-message
// data frame) are retired and never reused; a frame carrying either
// kills its connection like any unknown kind.
const (
	kindPing      = 2
	kindPong      = 3
	kindBatch     = 4
	kindChallenge = 5
	kindHelloAuth = 6
)

// batchBudget bounds one coalesced batch frame's payload; a message
// larger than the budget travels alone.
const batchBudget = 64 << 10

// maxFrame bounds a frame to keep a malformed peer from ballooning
// memory.
const maxFrame = 16 << 20

// maxHandshakeFrame bounds the frames read before a connection is
// authenticated (a 32-byte nonce; a listen address plus a 64-byte
// signature), so an unauthenticated peer cannot make the node allocate
// maxFrame by claiming it in a header.
const maxHandshakeFrame = 1 << 10

// handshakeTimeout bounds how long an inbound connection may stall
// before sending its hello.
const handshakeTimeout = 5 * time.Second

// Start opens a listener (opt.ListenAddr, by default an ephemeral port
// on 127.0.0.1) and begins accepting peer connections. The handler
// receives every inbound frame. opt.Auth is required.
func Start(id int, handler Handler, opt Options) (*Node, error) {
	opt = opt.withDefaults()
	if err := opt.Auth.validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", opt.ListenAddr)
	if err != nil {
		return nil, err
	}
	n := &Node{
		id: id, opt: opt, ln: ln, handler: handler,
		peers:   map[int]*peer{},
		pending: map[net.Conn]bool{},
		rng:     rand.New(rand.NewSource(int64(id) + 1)),
		inbox:   make(chan inFrame, 1024),
		done:    make(chan struct{}),
	}
	if reg := opt.Obs.Registry(); reg != nil {
		node := strconv.Itoa(id)
		n.obsTr = opt.Obs.Tracer()
		n.cFramesSent = reg.Counter("secmr_net_frames_total", "Data frames, by node and direction.", "node", node, "dir", "sent")
		n.cFramesRecv = reg.Counter("secmr_net_frames_total", "Data frames, by node and direction.", "node", node, "dir", "recv")
		n.cReconnects = reg.Counter("secmr_net_reconnects_total", "Link reconnections adopted, by node.", "node", node)
		n.cHbMisses = reg.Counter("secmr_net_heartbeat_misses_total", "Peers declared down after heartbeat silence, by node.", "node", node)
		n.gParked = reg.Gauge("secmr_net_parked_frames", "Frames queued for transmission (down-peer backlog and coalescing), by node.", "node", node)
		n.cWireBytes = reg.Counter("secmr_wire_bytes_out_total", "Bytes written to peer sockets, frame headers included, by node.", "node", node)
		n.cWireFrames = reg.Counter("secmr_wire_frames_total", "Coalesced wire frames written, by node.", "node", node)
		n.hMsgsPerFrame = reg.Histogram("secmr_wire_msgs_per_frame", "Messages coalesced into one wire frame.", obs.MsgsPerFrameBuckets)
	}
	n.wg.Add(2)
	go n.acceptLoop()
	go n.dispatchLoop()
	if opt.HeartbeatEvery > 0 {
		n.wg.Add(1)
		go n.heartbeatLoop()
	}
	return n, nil
}

// ID returns the node's identifier.
func (n *Node) ID() int { return n.id }

// Addr returns the listen address peers should dial.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// acceptLoop registers inbound connections once the signed handshake
// has established the peer's id and listen address.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		n.pending[conn] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
			from, addr, ok := n.inboundHandshake(conn)
			n.mu.Lock()
			delete(n.pending, conn)
			n.mu.Unlock()
			if !ok || n.Banned(from) {
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			p := n.ensurePeer(from, addr)
			if p == nil || !n.adopt(p, conn, from) {
				conn.Close()
				return
			}
			n.superviseIfNeeded(p)
		}()
	}
}

// ensurePeer returns the link state for id, creating it if needed and
// recording the peer's dial address when known. Returns nil after
// Close.
func (n *Node) ensurePeer(id int, addr string) *peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case <-n.done:
		return nil
	default:
	}
	p, ok := n.peers[id]
	if !ok {
		p = &peer{id: id, kick: make(chan struct{}, 1), wake: make(chan struct{}, 1)}
		n.peers[id] = p
		n.wg.Add(1)
		go n.senderLoop(p)
	}
	if addr != "" {
		p.mu.Lock()
		p.addr = addr
		p.mu.Unlock()
	}
	return p
}

func (n *Node) peer(id int) *peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peers[id]
}

// superviseIfNeeded starts the peer's reconnect supervisor once it has
// a dial address.
func (n *Node) superviseIfNeeded(p *peer) {
	p.mu.Lock()
	start := p.addr != "" && !p.superv
	if start {
		p.superv = true
	}
	p.mu.Unlock()
	if start {
		n.wg.Add(1)
		go n.supervise(p)
	}
}

// adopt installs conn as the peer's live connection and wakes the
// sender goroutine to flush any parked backlog. New Sends queue behind
// the backlog (single sender per peer), so the link's FIFO order
// survives the outage. When a live connection already exists the
// deterministic tie-break keeps the one dialed by the smaller id (both
// endpoints agree on it, so a simultaneous dial converges on one TCP
// connection); a redial by the same dialer replaces its predecessor.
// Reports whether conn was adopted.
func (n *Node) adopt(p *peer, conn net.Conn, dialer int) bool {
	p.mu.Lock()
	if p.up {
		if dialer > p.dialer {
			p.mu.Unlock()
			return false
		}
		p.conn.Close() // its readLoop sees the conn mismatch and exits quietly
		p.up = false
	}
	reconnect := p.everUp
	p.conn, p.dialer = conn, dialer
	p.everUp = true
	p.up = true
	p.lastSeen = time.Now()
	p.mu.Unlock()

	n.wg.Add(1)
	go n.readLoop(p, conn)
	if reconnect {
		if n.opt.Faults != nil {
			n.opt.Faults.CountReconnect()
		}
		n.cReconnects.Inc()
		n.emit(obs.Event{Type: obs.EvReconnect, Node: n.id, Peer: p.id})
	}
	p.signal()
	return true
}

// Ban permanently severs the transport's relationship with a peer: the
// live connection (if any) is closed, parked frames to it are
// discarded, future Sends to it vanish, and both inbound handshakes
// and outbound redials are refused. Hosts call it when their resource
// quarantines a member, so an evicted participant cannot keep
// injecting traffic at the transport layer. Irreversible for the life
// of the node; idempotent.
func (n *Node) Ban(id int) {
	n.mu.Lock()
	if n.banned == nil {
		n.banned = map[int]bool{}
	}
	if n.banned[id] {
		n.mu.Unlock()
		return
	}
	n.banned[id] = true
	p := n.peers[id]
	n.mu.Unlock()
	n.emit(obs.Event{Type: obs.EvEvict, Node: n.id, Peer: id, Detail: "transport-ban"})
	if p == nil {
		return
	}
	p.mu.Lock()
	conn, up := p.conn, p.up
	queue := p.queue
	p.queue, p.qBytes = nil, 0
	p.mu.Unlock()
	for _, f := range queue {
		putFrameBuf(f)
		n.gParked.Add(-1)
	}
	if up {
		n.markDown(p, conn)
	}
	select {
	case p.kick <- struct{}{}: // let a parked supervisor notice the ban and exit
	default:
	}
}

// Banned reports whether a peer has been severed by Ban.
func (n *Node) Banned(id int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.banned[id]
}

// markDown retires conn if it is still the peer's live connection,
// then notifies and wakes the supervisor. Safe to call from any
// goroutine and for stale connections.
func (n *Node) markDown(p *peer, conn net.Conn) {
	p.mu.Lock()
	if p.conn != conn {
		p.mu.Unlock()
		return
	}
	wasUp := p.up
	p.up = false
	p.conn = nil
	p.mu.Unlock()
	conn.Close()
	if wasUp && n.opt.OnPeerDown != nil {
		n.opt.OnPeerDown(p.id)
	}
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// supervise keeps one dialable peer connected: parked while the link
// is up, redialing with exponential backoff plus jitter while it is
// down.
func (n *Node) supervise(p *peer) {
	defer n.wg.Done()
	backoff := n.opt.ReconnectBase
	for {
		select {
		case <-n.done:
			return
		default:
		}
		if n.Banned(p.id) {
			return
		}
		p.mu.Lock()
		up := p.up
		p.mu.Unlock()
		if up {
			select {
			case <-n.done:
				return
			case <-p.kick:
			}
			continue
		}
		if n.dialPeer(p) {
			backoff = n.opt.ReconnectBase
			continue
		}
		n.mu.Lock()
		jitter := time.Duration(n.rng.Int63n(int64(backoff)/2 + 1))
		n.mu.Unlock()
		backoff *= 2
		if backoff > n.opt.ReconnectMax {
			backoff = n.opt.ReconnectMax
		}
		select {
		case <-n.done:
			return
		case <-time.After(backoff/2 + jitter):
		case <-p.kick:
		}
	}
}

// dialPeer attempts one dial+handshake; the fault injector can veto it
// (crashed endpoint or partitioned link).
func (n *Node) dialPeer(p *peer) bool {
	if n.Banned(p.id) {
		return false
	}
	if inj := n.opt.Faults; inj != nil {
		if inj.Down(n.id) || inj.Down(p.id) || inj.Cut(n.id, p.id) {
			return false
		}
	}
	p.mu.Lock()
	addr := p.addr
	p.mu.Unlock()
	if addr == "" {
		return false
	}
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return false
	}
	if !n.outboundHandshake(conn, p.id) {
		conn.Close()
		return false
	}
	if !n.adopt(p, conn, n.id) {
		conn.Close()
		return false
	}
	return true
}

// readLoop consumes frames from one live connection. The sender id in
// every data frame must match the id the handshake established;
// mismatches are spoofing attempts and kill the connection.
func (n *Node) readLoop(p *peer, conn net.Conn) {
	defer n.wg.Done()
	for {
		kind, from, payload, err := readFrame(conn, maxFrame)
		if err != nil {
			n.markDown(p, conn)
			return
		}
		p.mu.Lock()
		p.lastSeen = time.Now()
		p.mu.Unlock()
		switch kind {
		case kindPing:
			if err := n.writeFrameTo(p, conn, kindPong, nil); err != nil {
				n.markDown(p, conn)
				return
			}
		case kindPong:
			// lastSeen refreshed above; nothing else to do.
		case kindBatch:
			if from != p.id {
				n.opt.Logf("netgrid %d: dropping batch claiming sender %d on %d's connection",
					n.id, from, p.id)
				n.markDown(p, conn)
				return
			}
			// Split the coalesced payload; every sub-message length is
			// validated against the remaining buffer, so a malformed
			// batch kills only this connection, never the node.
			stopped := false
			ok := splitBatch(payload, func(msg []byte) bool {
				select {
				case n.inbox <- inFrame{from: from, payload: msg}:
					return true
				case <-n.done:
					stopped = true
					return false
				}
			})
			if stopped {
				return
			}
			if !ok {
				n.opt.Logf("netgrid %d: malformed batch frame from %d", n.id, p.id)
				n.markDown(p, conn)
				return
			}
		default:
			// Unknown kind, the retired 0 and 1 included.
			n.markDown(p, conn)
			return
		}
	}
}

func (n *Node) dispatchLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case f := <-n.inbox:
			cc, _ := core.PeekCausalCtx(f.payload)
			if n.Banned(f.from) {
				// Frames already in flight when the ban landed.
				n.emit(obs.Event{Type: obs.EvMsgDrop, Node: n.id, Peer: f.from, Detail: "banned"}.WithCausal(cc))
				continue
			}
			n.cFramesRecv.Inc()
			// Merge before the handler runs, so the events it emits
			// order after the matching send.
			lc := n.opt.Clock.Merge(cc.OSeq)
			n.emit(obs.Event{Type: obs.EvMsgDeliver, Node: n.id, Peer: f.from, LC: lc}.WithCausal(cc))
			n.handler(f.from, f.payload)
		}
	}
}

// heartbeatLoop pings every live peer and declares silent ones down.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.opt.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-ticker.C:
		}
		n.mu.Lock()
		peers := make([]*peer, 0, len(n.peers))
		for _, p := range n.peers {
			peers = append(peers, p)
		}
		n.mu.Unlock()
		for _, p := range peers {
			p.mu.Lock()
			conn, up, seen := p.conn, p.up, p.lastSeen
			p.mu.Unlock()
			if !up {
				continue
			}
			if time.Since(seen) > n.opt.PeerTimeout {
				n.opt.Logf("netgrid %d: peer %d silent for %v, declaring down",
					n.id, p.id, n.opt.PeerTimeout)
				n.cHbMisses.Inc()
				n.emit(obs.Event{Type: obs.EvHeartbeatMiss, Node: n.id, Peer: p.id})
				n.markDown(p, conn)
				continue
			}
			if inj := n.opt.Faults; inj != nil {
				// A partitioned or crashed link starves heartbeats, so
				// the timeout above eventually fires — the same failure
				// signature a real partition produces.
				if inj.Down(n.id) || inj.Down(p.id) || inj.Cut(n.id, p.id) {
					continue
				}
			}
			if err := n.writeFrameTo(p, conn, kindPing, nil); err != nil {
				n.markDown(p, conn)
			}
		}
	}
}

// Connect dials the given peers (id -> address) and performs the
// handshake, then leaves a supervisor keeping each link alive. The
// returned error reports the first immediate dial failure; the
// supervisor keeps retrying regardless, so callers tolerating slow
// peers may ignore it and rely on WaitFor.
func (n *Node) Connect(peers map[int]string) error {
	var firstErr error
	for id, addr := range peers {
		p := n.ensurePeer(id, addr)
		if p == nil {
			return errors.New("netgrid: node closed")
		}
		if !n.dialPeer(p) && firstErr == nil {
			firstErr = fmt.Errorf("netgrid: dialing %d at %s failed (supervisor will retry)", id, addr)
		}
		n.superviseIfNeeded(p)
	}
	return firstErr
}

// WaitFor blocks until live connections to all the given peers exist
// (both dialed and inbound count) or the timeout expires; it reports
// success. Use it as a startup barrier: inbound connections register
// asynchronously as peers dial in.
func (n *Node) WaitFor(peers []int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		missing := 0
		for _, id := range peers {
			p := n.peer(id)
			if p == nil {
				missing++
				continue
			}
			p.mu.Lock()
			if !p.up {
				missing++
			}
			p.mu.Unlock()
		}
		if missing == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Send hands one frame to the peer's sender goroutine. The frame's
// buffer is owned by the transport from this point on (it is recycled
// into the frame pool after the bytes reach the socket) — callers must
// not retain or reuse it. While the peer is down the frame parks in
// the bounded per-peer queue (oldest dropped on message or byte
// overflow) and ErrPeerDown is returned; the queue flushes on
// reconnect. An unknown peer (never connected in either direction) is
// an error.
func (n *Node) Send(to int, frame []byte) error {
	if n.Banned(to) {
		putFrameBuf(frame)
		return nil // severed on purpose: indistinguishable from a send
	}
	p := n.peer(to)
	if p == nil {
		return fmt.Errorf("netgrid: no connection to %d", to)
	}
	var one [2][]byte // room for the injector's duplicate, off the heap
	entries := append(one[:0], frame)
	if inj := n.opt.Faults; inj != nil {
		v := inj.Decide(n.id, to, p.frames.Add(1))
		if v.Drop {
			cc, _ := core.PeekCausalCtx(frame)
			n.emit(obs.Event{Type: obs.EvMsgDrop, Node: n.id, Peer: to, Detail: v.Cause}.WithCausal(cc))
			putFrameBuf(frame)
			return nil // lost in transit: indistinguishable from a send
		}
		// One entry per copy the verdict delivers. Duplicates need their
		// own buffer: each is recycled independently.
		for i := 1; i < v.Copies; i++ {
			entries = append(entries, append(getFrameBuf(), frame...))
		}
	}
	p.mu.Lock()
	up := p.up
	for _, e := range entries {
		n.enqueueLocked(p, e)
	}
	p.mu.Unlock()
	p.signal()
	if !up {
		return ErrPeerDown
	}
	return nil
}

// enqueueLocked appends a frame to the peer's outbound queue, evicting
// oldest frames while either bound (messages or bytes) is exceeded;
// caller holds p.mu.
func (n *Node) enqueueLocked(p *peer, f []byte) {
	for len(p.queue) > 0 &&
		(len(p.queue) >= n.opt.QueueLen || p.qBytes+len(f) > n.opt.QueueBytes) {
		old := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		p.qBytes -= len(old)
		// Peek the causal context before the buffer re-enters the pool
		// (a pooled buffer may be reused by another goroutine at once).
		cc, _ := core.PeekCausalCtx(old)
		putFrameBuf(old)
		n.gParked.Add(-1)
		if inj := n.opt.Faults; inj != nil {
			inj.CountQueueDrop()
		}
		n.emit(obs.Event{Type: obs.EvMsgDrop, Node: n.id, Peer: p.id, Detail: "queue-overflow"}.WithCausal(cc))
	}
	p.queue = append(p.queue, f)
	p.qBytes += len(f)
	n.gParked.Add(1)
}

// senderLoop is the peer's single data writer: it owns the order in
// which queued frames hit the socket, which is what makes per-link
// FIFO hold across batching and reconnect drains.
func (n *Node) senderLoop(p *peer) {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case <-p.wake:
			n.drainPeer(p)
		}
	}
}

// drainPeer flushes the peer's queue while the link is up, coalescing
// consecutive frames into batch writes bounded by batchBudget. On a
// write error the undelivered batch returns to the queue front and the
// link is marked down.
func (n *Node) drainPeer(p *peer) {
	for {
		p.mu.Lock()
		if !p.up || p.conn == nil || len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		conn := p.conn
		take, payload := 0, 0
		for take < len(p.queue) {
			sz := batchEntrySize(p.queue[take])
			if take > 0 && payload+sz > batchBudget {
				break
			}
			payload += sz
			take++
		}
		batch := make([][]byte, take)
		copy(batch, p.queue[:take])
		for i := range p.queue[:take] {
			p.queue[i] = nil
		}
		p.queue = p.queue[take:]
		if len(p.queue) == 0 {
			p.queue = nil
		}
		for _, f := range batch {
			p.qBytes -= len(f)
		}
		p.mu.Unlock()
		n.gParked.Add(-float64(take))
		if err := n.writeBatch(p, conn, batch); err != nil {
			p.mu.Lock()
			p.queue = append(batch, p.queue...)
			for _, f := range batch {
				p.qBytes += len(f)
			}
			p.mu.Unlock()
			n.gParked.Add(float64(take))
			n.markDown(p, conn)
			return
		}
	}
}

// writeBatch writes one or more queued messages as a single batch
// frame whose payload repeats uvarint(len) ‖ message. The write buffer
// and the delivered message buffers are recycled into the frame pool
// on success.
func (n *Node) writeBatch(p *peer, conn net.Conn, batch [][]byte) error {
	payload := 0
	for _, f := range batch {
		payload += batchEntrySize(f)
	}
	wb := appendFrameHeader(getFrameBuf(), kindBatch, n.id, payload)
	for _, f := range batch {
		wb = binary.AppendUvarint(wb, uint64(len(f)))
		wb = append(wb, f...)
	}
	p.wmu.Lock()
	_, err := conn.Write(wb)
	p.wmu.Unlock()
	if err != nil {
		putFrameBuf(wb)
		return err
	}
	n.sentCnt.Add(int64(len(batch)))
	n.cFramesSent.Add(int64(len(batch)))
	n.cWireBytes.Add(int64(len(wb)))
	n.cWireFrames.Inc()
	n.hMsgsPerFrame.Observe(float64(len(batch)))
	for _, f := range batch {
		cc, _ := core.PeekCausalCtx(f)
		n.emit(obs.Event{Type: obs.EvMsgSend, Node: n.id, Peer: p.id, LC: cc.OSeq}.WithCausal(cc))
		putFrameBuf(f)
	}
	putFrameBuf(wb)
	return nil
}

// writeFrameTo writes one frame under the peer's write lock.
func (n *Node) writeFrameTo(p *peer, conn net.Conn, kind byte, payload []byte) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return writeFrame(conn, kind, n.id, payload)
}

// Sent returns the number of data messages transmitted (a coalesced
// batch frame counts once per message it carries).
func (n *Node) Sent() int64 { return n.sentCnt.Load() }

// Close shuts the node down.
func (n *Node) Close() {
	n.closed.Do(func() {
		close(n.done)
		n.ln.Close()
		n.mu.Lock()
		for c := range n.pending {
			c.Close()
		}
		for _, p := range n.peers {
			p.mu.Lock()
			if p.conn != nil {
				p.conn.Close()
			}
			p.mu.Unlock()
		}
		n.mu.Unlock()
	})
	n.wg.Wait()
}

// Frame format: 4-byte length (kind+sender+payload), 1-byte kind,
// 4-byte sender id, payload bytes.
func writeFrame(w io.Writer, kind byte, from int, payload []byte) error {
	buf := appendFrameHeader(make([]byte, 0, 9+len(payload)), kind, from, len(payload))
	// One Write call per frame: writers on other goroutines hold the
	// peer write lock, but a single syscall also keeps any raw-conn
	// writes (tests, tooling) atomic.
	_, err := w.Write(append(buf, payload...))
	return err
}

// appendFrameHeader appends the 9-byte frame header for a payload of
// the given length.
func appendFrameHeader(dst []byte, kind byte, from, payloadLen int) []byte {
	var hdr [9]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(5+payloadLen))
	hdr[4] = kind
	binary.BigEndian.PutUint32(hdr[5:9], uint32(from))
	return append(dst, hdr[:]...)
}

// splitBatch walks a batch-frame payload (repeated uvarint(len) ‖
// message) and hands each message to deliver; it stops early when
// deliver returns false. It reports whether the payload was well
// formed: every length must fit the remaining buffer and an empty
// batch is malformed, so arbitrary input can neither panic nor force
// an allocation.
func splitBatch(payload []byte, deliver func([]byte) bool) bool {
	if len(payload) == 0 {
		return false
	}
	rest := payload
	for len(rest) > 0 {
		l, k := binary.Uvarint(rest)
		if k <= 0 || l > uint64(len(rest)-k) {
			return false
		}
		msg := rest[k : k+int(l)]
		rest = rest[k+int(l):]
		if !deliver(msg) {
			return true
		}
	}
	return true
}

// batchEntrySize returns what one message occupies inside a batch
// payload: its uvarint length prefix plus its bytes.
func batchEntrySize(msg []byte) int {
	n := 1
	for u := len(msg); u >= 0x80; u >>= 7 {
		n++
	}
	return n + len(msg)
}

// framePool recycles outbound frame buffers: hosts encode messages
// into pooled buffers, Node.Send takes ownership, and the sender
// goroutine returns them after the bytes reach the socket — so the
// steady-state encode path allocates nothing.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// maxPooledFrame caps what re-enters the pool so one giant frame
// cannot pin memory forever.
const maxPooledFrame = 1 << 20

// getFrameBuf returns a zero-length buffer from the frame pool.
func getFrameBuf() []byte {
	return (*framePool.Get().(*[]byte))[:0]
}

// putFrameBuf returns a buffer to the frame pool.
func putFrameBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledFrame {
		return
	}
	b = b[:0]
	framePool.Put(&b)
}

// readFrame reads one frame whose length field (kind + sender +
// payload) is at most limit; the claim is checked before the payload
// is allocated.
func readFrame(r io.Reader, limit uint32) (kind byte, from int, payload []byte, err error) {
	var hdr [9]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	if length < 5 || length > limit {
		return 0, 0, nil, errors.New("netgrid: bad frame length")
	}
	kind = hdr[4]
	from = int(binary.BigEndian.Uint32(hdr[5:9]))
	payload = make([]byte, length-5)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return kind, from, payload, nil
}
