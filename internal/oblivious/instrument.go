package oblivious

import (
	"fmt"
	"math/big"
	"time"

	"secmr/internal/homo"
	"secmr/internal/obs"
)

// sampleEvery is the crypto-op timing rate: each op kind times one call
// in sampleEvery, chosen by its own exact count, and records it with
// weight sampleEvery.
const sampleEvery = 64

// now is the decorator's clock; tests replace it.
var now = time.Now

// InstrumentScheme wraps a homo.Scheme so every cryptographic
// operation is counted exactly in secmr_crypto_ops_total, by op and
// scheme, while its latency histogram secmr_crypto_op_seconds is fed a
// sample: the call that takes an op's count to a multiple of
// sampleEvery is timed and recorded with weight sampleEvery, so _count
// trails the exact counter by less than sampleEvery and _sum estimates
// the time spent in the op. A time.Now pair costs about as much as a
// Shamir op; sampling keeps the instrumented step at the cost of the
// protocol. When the sink's tracer has EvCryptoOp explicitly enabled (it
// never records by default — one event per homomorphic add would drown a
// protocol trace), every operation is timed, recorded with weight 1 and
// emitted as a timed trace event. With a nil sink the scheme is returned
// unwrapped, so the uninstrumented path pays nothing.
//
// An untimed call — 63 in 64, with EvCryptoOp not traced — costs one
// atomic add, one lock-free read of the trace filter and one direct
// call: the destination-passing capabilities are resolved here, once,
// and the call reads no clock and defers nothing.
func InstrumentScheme(inner homo.Scheme, sink *obs.Sink) homo.Scheme {
	if sink == nil || (sink.Reg == nil && sink.Tr == nil) {
		return inner
	}
	s := &instrumentedScheme{inner: inner, tr: sink.Tracer()}
	fb := fallback{inner}
	s.lc, s.ie, s.ir, s.id = fb, fb, fb, fb
	if c, ok := inner.(homo.LinCombiner); ok {
		s.lc = c
	}
	if c, ok := inner.(homo.IntoEncryptor); ok {
		s.ie = c
	}
	if c, ok := inner.(homo.IntoRerandomizer); ok {
		s.ir = c
	}
	if c, ok := inner.(homo.IntoDecryptor); ok {
		s.id = c
	}
	reg := sink.Registry()
	mk := func(op string) opInstr {
		return opInstr{
			op:  op,
			n:   reg.Counter("secmr_crypto_ops_total", "Cryptographic operations, by op and scheme (exact).", "op", op, "scheme", inner.Name()),
			lat: reg.Histogram("secmr_crypto_op_seconds", "Cryptographic operation latency per element, by op and scheme: one call in 64 timed, weighted x64.", obs.DefLatencyBuckets, "op", op, "scheme", inner.Name()),
		}
	}
	s.add, s.sub, s.smul = mk("add"), mk("sub"), mk("scalar_mul")
	s.rerand, s.zero = mk("rerandomize"), mk("encrypt_zero")
	s.enc, s.dec = mk("encrypt"), mk("decrypt")
	s.zeroVec, s.linComb = mk("encrypt_zero_vec"), mk("lincomb")
	return s
}

// opInstr is one operation's pre-resolved instruments.
type opInstr struct {
	op  string
	n   *obs.Counter
	lat *obs.Histogram
}

type instrumentedScheme struct {
	inner homo.Scheme
	tr    *obs.Tracer

	// The inner scheme's destination-passing capabilities, or the homo
	// helpers' fallback where it has none.
	lc homo.LinCombiner
	ie homo.IntoEncryptor
	ir homo.IntoRerandomizer
	id homo.IntoDecryptor

	add, sub, smul, rerand, zero, enc, dec opInstr
	zeroVec, linComb                       opInstr
}

// fallback gives a scheme without the destination-passing capabilities
// the homo helpers' serial fallback, so the decorator forwards every
// such op through one interface call whatever the inner scheme is.
type fallback struct{ inner homo.Scheme }

func (f fallback) LinCombInto(dst *homo.Ciphertext, coeffs []int64, xs []*homo.Ciphertext) *homo.Ciphertext {
	return homo.LinCombInto(f.inner, dst, coeffs, xs)
}

func (f fallback) EncryptIntInto(dst *homo.Ciphertext, m int64) *homo.Ciphertext {
	return homo.EncryptIntInto(f.inner, dst, m)
}

func (f fallback) RerandomizeInto(dst, a *homo.Ciphertext) *homo.Ciphertext {
	return homo.RerandomizeInto(f.inner, dst, a)
}

func (f fallback) DecryptSignedInto(dst *big.Int, c *homo.Ciphertext) *big.Int {
	return homo.DecryptSignedInto(f.inner, dst, c)
}

// weigh counts a call covering n elements and returns the weight its
// latency is recorded with, 0 for an untimed call. With EvCryptoOp
// traced every call is timed with weight n; otherwise a call is timed
// when the count crosses a multiple of sampleEvery, with weight
// sampleEvery per multiple crossed.
func (s *instrumentedScheme) weigh(i *opInstr, n int64) (w int64, traced bool) {
	k := i.n.AddValue(n)
	if s.tr.ExplicitlyEnabled(obs.EvCryptoOp) {
		return n, true
	}
	return (k/sampleEvery - (k-n)/sampleEvery) * sampleEvery, false
}

// end records a timed call of n elements that started at t0: its
// latency per element with weight w, and a trace event covering the
// whole call when traced.
func (s *instrumentedScheme) end(i *opInstr, n, w int64, traced bool, t0 time.Time) {
	d := now().Sub(t0)
	i.lat.ObserveN(d.Seconds()/float64(n), w)
	if traced {
		s.tr.Emit(obs.Event{Type: obs.EvCryptoOp, Node: -1, Peer: -1, Detail: i.op, Dur: d.Nanoseconds()})
	}
}

// Every op below has the same shape: weigh, call the inner scheme
// straight through when untimed, else time the same call and end.

func (s *instrumentedScheme) Add(a, b *homo.Ciphertext) *homo.Ciphertext {
	w, traced := s.weigh(&s.add, 1)
	if w == 0 {
		return s.inner.Add(a, b)
	}
	t0 := now()
	r := s.inner.Add(a, b)
	s.end(&s.add, 1, w, traced, t0)
	return r
}

func (s *instrumentedScheme) Sub(a, b *homo.Ciphertext) *homo.Ciphertext {
	w, traced := s.weigh(&s.sub, 1)
	if w == 0 {
		return s.inner.Sub(a, b)
	}
	t0 := now()
	r := s.inner.Sub(a, b)
	s.end(&s.sub, 1, w, traced, t0)
	return r
}

func (s *instrumentedScheme) ScalarMul(m int64, a *homo.Ciphertext) *homo.Ciphertext {
	w, traced := s.weigh(&s.smul, 1)
	if w == 0 {
		return s.inner.ScalarMul(m, a)
	}
	t0 := now()
	r := s.inner.ScalarMul(m, a)
	s.end(&s.smul, 1, w, traced, t0)
	return r
}

func (s *instrumentedScheme) Rerandomize(a *homo.Ciphertext) *homo.Ciphertext {
	w, traced := s.weigh(&s.rerand, 1)
	if w == 0 {
		return s.inner.Rerandomize(a)
	}
	t0 := now()
	r := s.inner.Rerandomize(a)
	s.end(&s.rerand, 1, w, traced, t0)
	return r
}

func (s *instrumentedScheme) EncryptZero() *homo.Ciphertext {
	w, traced := s.weigh(&s.zero, 1)
	if w == 0 {
		return s.inner.EncryptZero()
	}
	t0 := now()
	r := s.inner.EncryptZero()
	s.end(&s.zero, 1, w, traced, t0)
	return r
}

func (s *instrumentedScheme) PlaintextSpace() *big.Int { return s.inner.PlaintextSpace() }

func (s *instrumentedScheme) Encrypt(m *big.Int) *homo.Ciphertext {
	w, traced := s.weigh(&s.enc, 1)
	if w == 0 {
		return s.inner.Encrypt(m)
	}
	t0 := now()
	r := s.inner.Encrypt(m)
	s.end(&s.enc, 1, w, traced, t0)
	return r
}

func (s *instrumentedScheme) EncryptInt(m int64) *homo.Ciphertext {
	w, traced := s.weigh(&s.enc, 1)
	if w == 0 {
		return s.inner.EncryptInt(m)
	}
	t0 := now()
	r := s.inner.EncryptInt(m)
	s.end(&s.enc, 1, w, traced, t0)
	return r
}

func (s *instrumentedScheme) Decrypt(c *homo.Ciphertext) *big.Int {
	w, traced := s.weigh(&s.dec, 1)
	if w == 0 {
		return s.inner.Decrypt(c)
	}
	t0 := now()
	r := s.inner.Decrypt(c)
	s.end(&s.dec, 1, w, traced, t0)
	return r
}

func (s *instrumentedScheme) DecryptSigned(c *homo.Ciphertext) *big.Int {
	w, traced := s.weigh(&s.dec, 1)
	if w == 0 {
		return s.inner.DecryptSigned(c)
	}
	t0 := now()
	r := s.inner.DecryptSigned(c)
	s.end(&s.dec, 1, w, traced, t0)
	return r
}

// EncryptZeroVec delegates through the homo helper, so an instrumented
// batch-capable scheme keeps its parallel path and an instrumented
// serial scheme its elementwise fallback. A batch of n counts n
// operations (serial and batched workloads stay comparable per
// element), and a timed batch records its latency per element.

func (s *instrumentedScheme) EncryptZeroVec(n int) []*homo.Ciphertext {
	w, traced := s.weigh(&s.zeroVec, int64(n))
	if w == 0 {
		return homo.EncryptZeroVec(s.inner, n)
	}
	t0 := now()
	r := homo.EncryptZeroVec(s.inner, n)
	s.end(&s.zeroVec, int64(n), w, traced, t0)
	return r
}

// The destination-passing operations call the capability resolved at
// construction: Shamir's in-place kernel, or for Paillier and Plain the
// homo helper's serial fallback. Either way the call is one operation —
// a fused combination counts once under op="lincomb" however many terms
// it folds, an encrypt-into under op="encrypt" beside EncryptInt, a
// refresh-into under op="rerandomize" beside Rerandomize, a
// decrypt-into under op="decrypt" beside DecryptSigned.

func (s *instrumentedScheme) LinCombInto(dst *homo.Ciphertext, coeffs []int64, xs []*homo.Ciphertext) *homo.Ciphertext {
	if coeffs != nil && len(coeffs) != len(xs) {
		return homo.LinCombInto(s.inner, dst, coeffs, xs) // panics with the helper's message
	}
	w, traced := s.weigh(&s.linComb, 1)
	if w == 0 {
		return s.lc.LinCombInto(dst, coeffs, xs)
	}
	t0 := now()
	r := s.lc.LinCombInto(dst, coeffs, xs)
	s.end(&s.linComb, 1, w, traced, t0)
	return r
}

func (s *instrumentedScheme) EncryptIntInto(dst *homo.Ciphertext, m int64) *homo.Ciphertext {
	w, traced := s.weigh(&s.enc, 1)
	if w == 0 {
		return s.ie.EncryptIntInto(dst, m)
	}
	t0 := now()
	r := s.ie.EncryptIntInto(dst, m)
	s.end(&s.enc, 1, w, traced, t0)
	return r
}

func (s *instrumentedScheme) RerandomizeInto(dst, a *homo.Ciphertext) *homo.Ciphertext {
	w, traced := s.weigh(&s.rerand, 1)
	if w == 0 {
		return s.ir.RerandomizeInto(dst, a)
	}
	t0 := now()
	r := s.ir.RerandomizeInto(dst, a)
	s.end(&s.rerand, 1, w, traced, t0)
	return r
}

func (s *instrumentedScheme) DecryptSignedInto(dst *big.Int, c *homo.Ciphertext) *big.Int {
	w, traced := s.weigh(&s.dec, 1)
	if w == 0 {
		return s.id.DecryptSignedInto(dst, c)
	}
	t0 := now()
	r := s.id.DecryptSignedInto(dst, c)
	s.end(&s.dec, 1, w, traced, t0)
	return r
}

func (s *instrumentedScheme) Name() string { return s.inner.Name() }

// Adopt delegates ciphertext adoption to the wrapped scheme so wire
// codecs keep their mix-up protection through the instrumented layer.
func (s *instrumentedScheme) Adopt(c *homo.Ciphertext) (*homo.Ciphertext, error) {
	if a, ok := s.inner.(homo.Adopter); ok {
		return a.Adopt(c)
	}
	return nil, fmt.Errorf("oblivious: scheme %s does not support adoption", s.inner.Name())
}

var (
	_ homo.Scheme           = (*instrumentedScheme)(nil)
	_ homo.Adopter          = (*instrumentedScheme)(nil)
	_ homo.BatchScheme      = (*instrumentedScheme)(nil)
	_ homo.LinCombiner      = (*instrumentedScheme)(nil)
	_ homo.IntoEncryptor    = (*instrumentedScheme)(nil)
	_ homo.IntoRerandomizer = (*instrumentedScheme)(nil)
	_ homo.IntoDecryptor    = (*instrumentedScheme)(nil)
)
