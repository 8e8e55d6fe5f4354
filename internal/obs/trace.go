package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"sync/atomic"
)

// EventType names one kind of trace event. The full vocabulary is
// listed in README.md §Observability; emitters across the runtimes
// share this one namespace so a single filter can follow a protocol
// object (a rule's oblivious counter, a report) across layers.
type EventType string

const (
	// Engine/transport layer.
	EvMsgSend       EventType = "msg_send"       // a runtime accepted a send
	EvMsgDeliver    EventType = "msg_deliver"    // a runtime handed a message to its handler
	EvMsgDrop       EventType = "msg_drop"       // a message was lost (Detail: cause)
	EvReconnect     EventType = "reconnect"      // a transport link was re-established
	EvHeartbeatMiss EventType = "heartbeat_miss" // a peer went silent past the timeout

	// Protocol layer (internal/core).
	EvGrantSend   EventType = "grant_send"   // accountant issued a share grant
	EvGrantRecv   EventType = "grant_recv"   // broker stored a share grant
	EvCounterSend EventType = "counter_send" // broker transmitted an oblivious counter
	EvCounterRecv EventType = "counter_recv" // broker ingested an oblivious counter
	EvVoteFresh   EventType = "vote_fresh"   // controller granted a fresh (data-dependent) SFE answer
	EvVoteGated   EventType = "vote_gated"   // controller answered inside the k-gate (default/cache)
	EvVoteSupp    EventType = "vote_supp"    // controller suppressed a no-change send query
	EvOutputDec   EventType = "output_dec"   // controller answered an Output() SFE
	EvReportRaise EventType = "report_raise" // controller detected a violation; resource floods
	EvReportRecv  EventType = "report_recv"  // resource ingested a malicious report
	EvEvict       EventType = "evict"        // resource quarantined a member (Value: membership epoch)

	// Crypto layer (only emitted when explicitly enabled by filter —
	// see Tracer.ExplicitlyEnabled — because per-op volume is huge).
	EvCryptoOp EventType = "crypto_op"

	// Watchdog layer.
	EvStall EventType = "stall" // a resource's recall stalled below target

	// Fault-injection layer (internal/faults).
	EvCorrupt EventType = "corrupt" // a node was flipped to Byzantine (adversary activation)

	// Durability layer (internal/persist).
	EvSnapshot EventType = "snapshot" // a state snapshot was cut (Value: bytes)
	EvRecover  EventType = "recover"  // a resource was rebuilt from disk (Value: replayed events)
)

// Event is one structured trace record. Node is the emitting
// node/resource; Peer is the counterparty (-1 when none). Rule keys a
// candidate rule so one oblivious counter's lifecycle can be filtered
// end to end. Value carries an event-specific integer (a decision bit,
// an epoch, a stalled-sample count); Dur nanoseconds for timed events.
//
// The causal fields tie per-node traces into one cross-node DAG: LC is
// the emitting node's Lamport clock (Clock) at emission, and
// Origin/OSeq/Hops echo the CausalCtx of the message the event is
// about (message events only) — (Origin, OSeq) matches one msg_send to
// its msg_deliver/msg_drop events on other nodes. OSeq > 0 marks a
// present context (Origin 0 is a legal node id, so it cannot be the
// sentinel; see CausalCtx.Valid).
type Event struct {
	Seq    int64     `json:"seq"`
	Step   int64     `json:"step"`
	Type   EventType `json:"type"`
	Node   int       `json:"node"`
	Peer   int       `json:"peer"`
	Rule   string    `json:"rule,omitempty"`
	Detail string    `json:"detail,omitempty"`
	Value  int64     `json:"value,omitempty"`
	Dur    int64     `json:"dur_ns,omitempty"`
	LC     int64     `json:"lc,omitempty"`
	Origin int       `json:"origin,omitempty"`
	OSeq   int64     `json:"oseq,omitempty"`
	Hops   int       `json:"hops,omitempty"`
}

// Causal returns the event's message causal context (zero when the
// event carries none).
func (e Event) Causal() CausalCtx {
	return CausalCtx{Origin: e.Origin, OSeq: e.OSeq, Hops: e.Hops}
}

// WithCausal stamps a message causal context onto the event.
func (e Event) WithCausal(cc CausalCtx) Event {
	e.Origin, e.OSeq, e.Hops = cc.Origin, cc.OSeq, cc.Hops
	return e
}

// Filter restricts what a tracer records. Zero fields mean "no
// restriction" — except EvCryptoOp, which is recorded only when
// listed in Types explicitly (its volume would drown everything else).
type Filter struct {
	// Types, when non-empty, keeps only the listed event types.
	Types []EventType
	// Rule, when non-empty, keeps only events whose Rule contains this
	// substring (per-counter filtering).
	Rule string
	// Nodes, when non-empty, keeps only events emitted by these nodes
	// (per-resource filtering).
	Nodes []int
}

// DefaultTraceCapacity is the ring size NewTracer uses via NewSink.
const DefaultTraceCapacity = 1 << 16

// Tracer records Events into a bounded ring buffer, optionally
// streaming every accepted event to a JSONL sink. All methods are
// nil-safe, so instrumented code calls Emit unconditionally. Seq
// numbers are assigned in Emit order under one mutex; under the
// deterministic simulator the emission order itself is deterministic,
// so whole traces replay byte-identically for a fixed seed.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	start   int // ring read position
	n       int // live events in buf
	seq     int64
	dropped int64 // events evicted from the ring (still streamed to sink)
	filter  Filter
	types   map[EventType]bool // nil = all (except explicit-only types)
	nodes   map[int]bool       // nil = all
	sink    *bufio.Writer
	sinkErr error
	// explicit publishes types to ExplicitlyEnabled without the mutex:
	// SetFilter replaces the map, never writes into it, so a reader may
	// hold the one it loaded.
	explicit atomic.Pointer[map[EventType]bool]
}

// NewTracer builds a tracer with the given ring capacity (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// SetFilter installs a recording filter (replacing any previous one).
func (t *Tracer) SetFilter(f Filter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.filter = f
	t.types, t.nodes = nil, nil
	if len(f.Types) > 0 {
		t.types = make(map[EventType]bool, len(f.Types))
		for _, ty := range f.Types {
			t.types[ty] = true
		}
	}
	types := t.types
	t.explicit.Store(&types)
	if len(f.Nodes) > 0 {
		t.nodes = make(map[int]bool, len(f.Nodes))
		for _, n := range f.Nodes {
			t.nodes[n] = true
		}
	}
}

// SetSink streams every accepted event to w as JSONL, in addition to
// the ring. The first write error is retained (see SinkErr) and stops
// further streaming. Call Flush when done.
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = bufio.NewWriter(w)
	t.mu.Unlock()
}

// Flush flushes the streaming sink, returning the first error seen.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sink != nil && t.sinkErr == nil {
		t.sinkErr = t.sink.Flush()
	}
	return t.sinkErr
}

// SinkErr returns the first streaming-sink write error, if any.
func (t *Tracer) SinkErr() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinkErr
}

// ExplicitlyEnabled reports whether the current filter lists ty by
// name. High-volume emitters (crypto ops) gate on this, so they stay
// silent under the default record-everything filter. It takes no lock:
// every crypto op asks.
func (t *Tracer) ExplicitlyEnabled(ty EventType) bool {
	if t == nil {
		return false
	}
	types := t.explicit.Load()
	return types != nil && (*types)[ty]
}

// accepts applies the filter; caller holds t.mu.
func (t *Tracer) accepts(e *Event) bool {
	if t.types != nil {
		if !t.types[e.Type] {
			return false
		}
	} else if e.Type == EvCryptoOp {
		return false // explicit-only type
	}
	if t.filter.Rule != "" && !strings.Contains(e.Rule, t.filter.Rule) {
		return false
	}
	if t.nodes != nil && !t.nodes[e.Node] {
		return false
	}
	return true
}

// Emit records one event (nil-safe). Seq is assigned here; the
// caller's Seq field is ignored. The oldest ring entry is evicted on
// overflow (sink streaming still sees every accepted event).
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.accepts(&e) {
		return
	}
	t.seq++
	e.Seq = t.seq
	if t.sink != nil && t.sinkErr == nil {
		data, err := json.Marshal(e)
		if err == nil {
			_, err = t.sink.Write(append(data, '\n'))
		}
		if err != nil {
			t.sinkErr = err
		}
	}
	if t.n < cap(t.buf) {
		t.buf = append(t.buf, e)
		t.n++
		return
	}
	// Ring full: overwrite the oldest slot.
	t.buf[t.start] = e
	t.start = (t.start + 1) % cap(t.buf)
	t.dropped++
}

// Len returns the number of events currently in the ring.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Evicted returns how many events the ring has evicted (they were
// still streamed to the sink, if one is set).
func (t *Tracer) Evicted() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the ring contents in emission order,
// optionally re-filtered (the zero Filter returns everything).
func (t *Tracer) Events(f Filter) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sub := newMatcher(f)
	out := make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		e := t.buf[(t.start+i)%cap(t.buf)]
		if sub.match(&e) {
			out = append(out, e)
		}
	}
	return out
}

// matcher is a compiled read-side Filter (independent of the tracer's
// recording filter).
type matcher struct {
	f     Filter
	types map[EventType]bool
	nodes map[int]bool
}

func newMatcher(f Filter) matcher {
	m := matcher{f: f}
	if len(f.Types) > 0 {
		m.types = make(map[EventType]bool, len(f.Types))
		for _, ty := range f.Types {
			m.types[ty] = true
		}
	}
	if len(f.Nodes) > 0 {
		m.nodes = make(map[int]bool, len(f.Nodes))
		for _, n := range f.Nodes {
			m.nodes[n] = true
		}
	}
	return m
}

func (m matcher) match(e *Event) bool {
	if m.types != nil && !m.types[e.Type] {
		return false
	}
	if m.f.Rule != "" && !strings.Contains(e.Rule, m.f.Rule) {
		return false
	}
	if m.nodes != nil && !m.nodes[e.Node] {
		return false
	}
	return true
}

// WriteJSONL writes the ring contents (optionally re-filtered) as one
// JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer, f Filter) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.Events(f) {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace back into events — the replay path.
// Blank lines are skipped.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Event
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
