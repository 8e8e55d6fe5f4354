package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sync"
	"time"

	"secmr/internal/core"
	"secmr/internal/homo"
	"secmr/internal/obs"
	"secmr/internal/sim"
	"secmr/internal/store"
)

// Span kinds. A step (or request) span is the root of its trace; node
// callbacks are its children; scheme and store calls are theirs.
const (
	spStep = iota
	spInit
	spTick
	spMsg
	spAddVec
	spScalarVec
	spRerandVec
	spEncVec
	spEncZeroVec
	spEncrypt
	spDecrypt
	spScalarOp // single-ciphertext Add/Sub/ScalarMul/Rerandomize/EncryptZero
	spStorePut
	spStoreQuery
	spKinds
)

var spanNames = [spKinds]string{
	"secmr.step", "core.init", "core.tick", "core.msg",
	"homo.add_vec", "homo.scalar_vec", "homo.rerandomize_vec", "homo.encrypt_vec",
	"homo.encrypt_zero_vec", "homo.encrypt", "homo.decrypt", "homo.scalar_op",
	"store.put", "store.query",
}

type span struct {
	id, parent uint32
	trace      int32 // step number, or request number for store spans
	kind       uint8
	start, end int64 // ns since the tracer's epoch
}

// maxSpans bounds the span log: a shamir step makes tens of thousands
// of scheme calls, so past the cap calls are still counted and timed in
// the per-kind totals but no longer logged one by one.
const maxSpans = 400_000

// tracer keeps spans in memory and totals per kind. The totals are
// exact whether or not a span made it into the log.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextID uint32
	calls  [spKinds]int64
	total  [spKinds]int64 // ns
	durs   [spKinds][]float64
	// keepDurs marks kinds whose single durations feed a percentile.
	keepDurs [spKinds]bool

	// stack is the open-span chain of the single mining goroutine;
	// store spans (other goroutines) are roots and do not use it.
	stack []uint32
	step  int32
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.keepDurs[spStorePut] = true
	t.keepDurs[spStoreQuery] = true
	t.keepDurs[spStep] = true
	return t
}

// begin opens a span on the mining goroutine. begin/end are unlocked:
// a mine run traces from that one goroutine only, and a serve run only
// through root.
func (t *tracer) begin() (uint32, int64) {
	t.nextID++
	id := t.nextID
	t.stack = append(t.stack, id)
	return id, int64(time.Since(t.epoch))
}

// end closes the innermost span.
func (t *tracer) end(kind uint8, id uint32, start int64) {
	end := int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
	var parent uint32
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.record(span{id: id, parent: parent, trace: t.step, kind: kind, start: start, end: end})
}

func (t *tracer) record(s span) {
	t.calls[s.kind]++
	t.total[s.kind] += s.end - s.start
	if t.keepDurs[s.kind] {
		t.durs[s.kind] = append(t.durs[s.kind], float64(s.end-s.start))
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
}

// root records a finished span from any goroutine (store calls).
func (t *tracer) root(kind uint8, trace int32, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	t.nextID++
	t.record(span{id: t.nextID, trace: trace, kind: kind,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// spanOverheadNs times an empty span: what one traced call adds, about
// half of it inside the span's own interval. On shamir a scheme call
// costs a few hundred ns, so read homo.* there as an upper bound.
func spanOverheadNs() float64 {
	t := newTracer()
	t.spans = make([]span, maxSpans) // log full: time the bookkeeping, not slice growth
	const n = 200_000
	start := time.Now()
	for i := 0; i < n; i++ {
		id, s := t.begin()
		t.end(spScalarOp, id, s)
	}
	return float64(time.Since(start)) / n
}

func (t *tracer) totalMs(kinds ...uint8) float64 {
	var ns int64
	for _, k := range kinds {
		ns += t.total[k]
	}
	return float64(ns) / 1e6
}

// durations returns a copy of the kept single durations of one kind, in
// ns; safe while root is still recording (a serve run reads its store
// spans with the service running).
func (t *tracer) durations(kind uint8) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.durs[kind]...)
}

// writeJSONL dumps the span log, one object per line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(map[string]any{
			"name": spanNames[s.kind], "id": s.id, "parent": s.parent,
			"trace": s.trace, "start_ns": s.start, "end_ns": s.end,
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedNode times a core.Resource's callbacks as the engine sees them.
// It forwards the optional sim interfaces so the engine treats it
// exactly as it treats the bare resource.
type tracedNode struct {
	inner *core.Resource
	t     *tracer
	// Delivered message counts by type, and the first captured
	// RuleCipherMsgs for the codec micro-timing.
	ruleMsgs, grantMsgs *int64
	captured            *[]core.RuleCipherMsg
}

const maxCaptured = 512

func (n *tracedNode) Init(ctx *sim.Context) {
	id, s := n.t.begin()
	n.inner.Init(ctx)
	n.t.end(spInit, id, s)
}

func (n *tracedNode) OnMessage(ctx *sim.Context, from sim.NodeID, payload any) {
	switch m := payload.(type) {
	case core.RuleCipherMsg:
		*n.ruleMsgs++
		if len(*n.captured) < maxCaptured {
			*n.captured = append(*n.captured, m)
		}
	case core.ShareGrant:
		*n.grantMsgs++
	}
	id, s := n.t.begin()
	n.inner.OnMessage(ctx, from, payload)
	n.t.end(spMsg, id, s)
}

func (n *tracedNode) OnTick(ctx *sim.Context) {
	id, s := n.t.begin()
	n.inner.OnTick(ctx)
	n.t.end(spTick, id, s)
}

func (n *tracedNode) OnNeighborJoin(ctx *sim.Context, v sim.NodeID) { n.inner.OnNeighborJoin(ctx, v) }
func (n *tracedNode) OnRejoin(ctx *sim.Context)                     { n.inner.OnRejoin(ctx) }
func (n *tracedNode) TraceClock() *obs.Clock                        { return n.inner.TraceClock() }

var (
	_ sim.Node           = (*tracedNode)(nil)
	_ sim.NeighborJoiner = (*tracedNode)(nil)
	_ sim.Rejoiner       = (*tracedNode)(nil)
	_ sim.TraceClocked   = (*tracedNode)(nil)
)

// tracedScheme times every call into the cryptosystem. Vector calls go
// through the homo helpers, so a batch-capable scheme keeps its batch
// path and a serial one its elementwise loop — the same dispatch the
// unwrapped scheme gets.
type tracedScheme struct {
	inner homo.Scheme
	t     *tracer
}

func (s *tracedScheme) Add(a, b *homo.Ciphertext) *homo.Ciphertext {
	id, st := s.t.begin()
	defer s.t.end(spScalarOp, id, st)
	return s.inner.Add(a, b)
}

func (s *tracedScheme) Sub(a, b *homo.Ciphertext) *homo.Ciphertext {
	id, st := s.t.begin()
	defer s.t.end(spScalarOp, id, st)
	return s.inner.Sub(a, b)
}

func (s *tracedScheme) ScalarMul(m int64, a *homo.Ciphertext) *homo.Ciphertext {
	id, st := s.t.begin()
	defer s.t.end(spScalarOp, id, st)
	return s.inner.ScalarMul(m, a)
}

func (s *tracedScheme) Rerandomize(a *homo.Ciphertext) *homo.Ciphertext {
	id, st := s.t.begin()
	defer s.t.end(spScalarOp, id, st)
	return s.inner.Rerandomize(a)
}

func (s *tracedScheme) EncryptZero() *homo.Ciphertext {
	id, st := s.t.begin()
	defer s.t.end(spScalarOp, id, st)
	return s.inner.EncryptZero()
}

func (s *tracedScheme) PlaintextSpace() *big.Int { return s.inner.PlaintextSpace() }
func (s *tracedScheme) Name() string             { return s.inner.Name() }

func (s *tracedScheme) Encrypt(m *big.Int) *homo.Ciphertext {
	id, st := s.t.begin()
	defer s.t.end(spEncrypt, id, st)
	return s.inner.Encrypt(m)
}

func (s *tracedScheme) EncryptInt(m int64) *homo.Ciphertext {
	id, st := s.t.begin()
	defer s.t.end(spEncrypt, id, st)
	return s.inner.EncryptInt(m)
}

func (s *tracedScheme) Decrypt(c *homo.Ciphertext) *big.Int {
	id, st := s.t.begin()
	defer s.t.end(spDecrypt, id, st)
	return s.inner.Decrypt(c)
}

func (s *tracedScheme) DecryptSigned(c *homo.Ciphertext) *big.Int {
	id, st := s.t.begin()
	defer s.t.end(spDecrypt, id, st)
	return s.inner.DecryptSigned(c)
}

func (s *tracedScheme) AddVec(a, b []*homo.Ciphertext) []*homo.Ciphertext {
	id, st := s.t.begin()
	defer s.t.end(spAddVec, id, st)
	return homo.AddVec(s.inner, a, b)
}

func (s *tracedScheme) RerandomizeVec(xs []*homo.Ciphertext) []*homo.Ciphertext {
	id, st := s.t.begin()
	defer s.t.end(spRerandVec, id, st)
	return homo.RerandomizeVec(s.inner, xs)
}

func (s *tracedScheme) ScalarVec(ms []int64, xs []*homo.Ciphertext) []*homo.Ciphertext {
	id, st := s.t.begin()
	defer s.t.end(spScalarVec, id, st)
	return homo.ScalarVec(s.inner, ms, xs)
}

func (s *tracedScheme) EncryptZeroVec(n int) []*homo.Ciphertext {
	id, st := s.t.begin()
	defer s.t.end(spEncZeroVec, id, st)
	return homo.EncryptZeroVec(s.inner, n)
}

func (s *tracedScheme) EncryptVec(ms []*big.Int) []*homo.Ciphertext {
	id, st := s.t.begin()
	defer s.t.end(spEncVec, id, st)
	return homo.EncryptVec(s.inner, ms)
}

func (s *tracedScheme) Adopt(c *homo.Ciphertext) (*homo.Ciphertext, error) {
	if a, ok := s.inner.(homo.Adopter); ok {
		return a.Adopt(c)
	}
	return nil, fmt.Errorf("benchmark: scheme %s does not adopt ciphertexts", s.inner.Name())
}

// Every scheme in the repo marshals its own ciphertexts; the wrapper
// passes that through untimed.
func (s *tracedScheme) AppendCiphertext(dst []byte, c *homo.Ciphertext) []byte {
	return s.inner.(homo.WireCiphertext).AppendCiphertext(dst, c)
}

func (s *tracedScheme) MaxCiphertextBytes() int {
	return s.inner.(homo.WireCiphertext).MaxCiphertextBytes()
}

var (
	_ homo.BatchScheme    = (*tracedScheme)(nil)
	_ homo.Adopter        = (*tracedScheme)(nil)
	_ homo.WireCiphertext = (*tracedScheme)(nil)
)

// homoKinds are the span kinds that are scheme time.
var homoKinds = []uint8{spAddVec, spScalarVec, spRerandVec, spEncVec, spEncZeroVec, spEncrypt, spDecrypt, spScalarOp}

// tracedStore times the service's calls into its result store.
type tracedStore struct {
	inner store.Store
	t     *tracer
	mu    sync.Mutex
	req   int32
}

func (s *tracedStore) nextReq() int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.req++
	return s.req
}

func (s *tracedStore) Put(tenant string, epoch int64, rules []store.Rule) error {
	defer s.t.root(spStorePut, s.nextReq(), time.Now())
	return s.inner.Put(tenant, epoch, rules)
}

func (s *tracedStore) Query(tenant string, q store.Query) (store.Result, error) {
	defer s.t.root(spStoreQuery, s.nextReq(), time.Now())
	return s.inner.Query(tenant, q)
}

func (s *tracedStore) Tenants() []string { return s.inner.Tenants() }
func (s *tracedStore) Close() error      { return s.inner.Close() }
