package netgrid

import (
	"errors"
	"log"
	"sync"
	"time"

	"secmr/internal/arm"
	"secmr/internal/core"
	"secmr/internal/homo"
	"secmr/internal/obs"
)

// Host runs one complete Secure-Majority-Rule resource (broker +
// accountant + controller) over TCP: inbound frames are decoded and
// ciphertext-validated with the wire codec, outbound messages are
// encoded, and a ticker drives the §6 step loop. This is the
// deployment shape of the protocol — the same core.Resource the
// deterministic simulator hosts, over real sockets.
type Host struct {
	res     *core.Resource
	node    *Node
	adopter homo.Adopter

	mu       sync.Mutex // serializes resource access (ticker vs dispatch)
	bansDone int        // evictions already mirrored onto the transport
	ticker   *time.Ticker
	done     chan struct{}
	wg       sync.WaitGroup
	logf     func(string, ...any)
	// inHops is the hop count of the inbound message currently being
	// handled (0 outside handle), so relayed sends inherit the chain
	// depth. Guarded by h.mu — every resource callback runs under it.
	inHops int
	// onClose, when set, releases host-owned durability state (the
	// journal a RecoverHost attached) after the ticker stops.
	onClose func()
}

// hostTransport encodes outbound messages onto the TCP node.
type hostTransport struct{ h *Host }

func (t hostTransport) Send(to int, msg any) {
	// Encode into a pooled buffer; Node.Send takes ownership and recycles
	// it once the bytes reach the socket, so the steady state allocates
	// nothing here. The causal-context envelope leads: one sender-clock
	// tick per message, hop depth inherited from the inbound message
	// being handled (Send always runs under h.mu, which guards inHops).
	cc := obs.CausalCtx{Origin: t.h.node.ID(), OSeq: t.h.res.TraceClock().Tick(), Hops: t.h.inHops + 1}
	frame, err := core.AppendMessageCtx(getFrameBuf(), msg, cc)
	if err != nil {
		t.h.logf("netgrid host %d: encode: %v", t.h.node.ID(), err)
		return
	}
	// ErrPeerDown is the documented "parked, drains on reconnect" outcome
	// (secmr_net_parked_frames counts the backlog), not a failure to log
	// once per message.
	if err := t.h.node.Send(to, frame); err != nil && !errors.Is(err, ErrPeerDown) {
		t.h.logf("netgrid host %d: send to %d: %v", t.h.node.ID(), to, err)
	}
}

// NewHost starts the TCP endpoint for a resource. adopter is the
// resource's scheme (validates inbound ciphertexts); opt carries the
// required identity (Options.Auth) and the transport tuning —
// reconnect pacing, queue bounds, heartbeat cadence, and (for chaos
// testing) a fault injector. Hosts running over lossy links should
// also set core.Config.LossyLinks on the resource so the protocol
// re-floods what the transport cannot deliver while a peer is down.
// Call Connect and then Run.
func NewHost(id int, res *core.Resource, adopter homo.Adopter, opt Options) (*Host, error) {
	h := &Host{res: res, adopter: adopter, done: make(chan struct{}),
		logf: log.New(log.Writer(), "", 0).Printf}
	if opt.Logf != nil {
		h.logf = opt.Logf
	}
	if opt.Clock == nil {
		// Share the resource's trace clock with the transport, so frame
		// deliver events and the resource's own events interleave in one
		// Lamport order.
		opt.Clock = res.TraceClock()
	}
	node, err := Start(id, h.handle, opt)
	if err != nil {
		return nil, err
	}
	h.node = node
	return h, nil
}

// Node exposes the underlying TCP endpoint (for Addr/Connect/WaitFor).
func (h *Host) Node() *Node { return h.node }

// Resource exposes the hosted resource (for Output and stats; take
// care: reads race with the tick loop, so pause first or accept
// slightly stale views — Output builds fresh sets from cached answers
// and is safe under the host mutex via Snapshot).
func (h *Host) Resource() *core.Resource { return h.res }

// Snapshot returns the resource's current rule count and halt state
// under the host lock.
func (h *Host) Snapshot() (rules int, halted bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.res.Output()), h.res.Halted()
}

// OutputSnapshot returns the resource's interim rule set under the
// host lock.
func (h *Host) OutputSnapshot() arm.RuleSet {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res.Output()
}

// handle decodes one inbound frame and hands it to the resource. The
// frame's causal context (merged into the trace clock by the dispatch
// loop) scopes the hop depth around HandleMessage, so messages the
// resource sends in response extend the chain.
func (h *Host) handle(from int, frame []byte) {
	msg, cc, err := core.DecodeMessageCtx(frame, h.adopter)
	if err != nil {
		h.logf("netgrid host %d: dropping malformed frame from %d: %v", h.node.ID(), from, err)
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.inHops = cc.Hops
	h.res.HandleMessage(hostTransport{h}, from, msg)
	h.inHops = 0
	h.syncBansLocked()
}

// syncBansLocked mirrors the resource's quarantine decisions onto the
// transport: every member the resource has evicted is banned at the
// TCP layer, so its connections drop and its redials are refused. The
// eviction count is monotone, so the comparison keeps the common path
// to one slice build. Called with h.mu held.
func (h *Host) syncBansLocked() {
	ev := h.res.Evicted()
	if len(ev) == h.bansDone {
		return
	}
	h.bansDone = len(ev)
	for _, v := range ev {
		h.node.Ban(v) // idempotent
	}
}

// Run bootstraps the resource toward its neighbours and starts the
// step ticker (one protocol step per interval). Neighbours must be
// connected (WaitFor) before calling Run.
func (h *Host) Run(neighbors []int, stepEvery time.Duration) {
	h.mu.Lock()
	h.res.Bootstrap(neighbors, hostTransport{h})
	h.mu.Unlock()
	h.startTicker(stepEvery)
}

// RunRecovered starts the step loop for a resource rebuilt from
// durable state (persist.Recover): instead of bootstrapping — which
// would re-deal shares the neighbours already hold — the resource
// re-announces itself (grants under the current dealing, known
// reports) and resumes ticking. Neighbours must be connected (WaitFor)
// first.
func (h *Host) RunRecovered(stepEvery time.Duration) {
	h.mu.Lock()
	h.res.Rejoin(hostTransport{h})
	h.mu.Unlock()
	h.startTicker(stepEvery)
}

// startTicker runs the §6 step loop until StopTicking.
func (h *Host) startTicker(stepEvery time.Duration) {
	h.ticker = time.NewTicker(stepEvery)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			select {
			case <-h.done:
				return
			case <-h.ticker.C:
				h.mu.Lock()
				h.res.Tick(hostTransport{h})
				h.syncBansLocked()
				h.mu.Unlock()
			}
		}
	}()
}

// StopTicking halts the step loop without closing the endpoint. For a
// clean multi-host shutdown, stop every host's ticker first and only
// then Close them — otherwise a still-ticking host sends into already
// closed peers.
func (h *Host) StopTicking() {
	select {
	case <-h.done:
	default:
		close(h.done)
	}
	if h.ticker != nil {
		h.ticker.Stop()
	}
	h.wg.Wait()
}

// Close stops the ticker and the TCP endpoint, then runs the close
// hook (RecoverHost's journal detach): Node.Close waits for the
// dispatch loop, so no message is handled after the hook. Idempotent.
func (h *Host) Close() {
	h.StopTicking()
	h.node.Close()
	if h.onClose != nil {
		h.onClose()
		h.onClose = nil
	}
}
