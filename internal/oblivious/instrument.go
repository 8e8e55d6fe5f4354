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
func InstrumentScheme(inner homo.Scheme, sink *obs.Sink) homo.Scheme {
	if sink == nil || (sink.Reg == nil && sink.Tr == nil) {
		return inner
	}
	s := &instrumentedScheme{inner: inner, tr: sink.Tracer()}
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
	s.addVec, s.smulVec = mk("add_vec"), mk("scalar_mul_vec")
	s.rerandVec, s.zeroVec, s.encVec = mk("rerandomize_vec"), mk("encrypt_zero_vec"), mk("encrypt_vec")
	s.linComb = mk("lincomb")
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

	add, sub, smul, rerand, zero, enc, dec      opInstr
	addVec, smulVec, rerandVec, zeroVec, encVec opInstr
	linComb                                     opInstr
}

// span is one call's instrumentation from start to end: the elements it
// covers and the weight its latency is recorded with, 0 for an untimed
// call. Designed for `defer s.end(s.start(&instr, n))` — the deferred
// argument is evaluated at call entry.
type span struct {
	i      *opInstr
	n, w   int64
	traced bool
	t0     time.Time
}

// start counts a call covering n elements. With EvCryptoOp traced the
// call is timed with weight n; otherwise it is timed when the count
// crosses a multiple of sampleEvery, with weight sampleEvery per
// multiple crossed.
func (s *instrumentedScheme) start(i *opInstr, n int) span {
	sp := span{i: i, n: int64(n)}
	k := i.n.AddValue(sp.n)
	if s.tr.ExplicitlyEnabled(obs.EvCryptoOp) {
		sp.w, sp.traced = sp.n, true
	} else {
		sp.w = (k/sampleEvery - (k-sp.n)/sampleEvery) * sampleEvery
	}
	if sp.w > 0 {
		sp.t0 = now()
	}
	return sp
}

// end records a timed call: its latency per element with the span's
// weight, and a trace event covering the whole call when traced.
func (s *instrumentedScheme) end(sp span) {
	if sp.w == 0 {
		return
	}
	d := now().Sub(sp.t0)
	sp.i.lat.ObserveN(d.Seconds()/float64(sp.n), sp.w)
	if sp.traced {
		s.tr.Emit(obs.Event{Type: obs.EvCryptoOp, Node: -1, Peer: -1, Detail: sp.i.op, Dur: d.Nanoseconds()})
	}
}

func (s *instrumentedScheme) Add(a, b *homo.Ciphertext) *homo.Ciphertext {
	defer s.end(s.start(&s.add, 1))
	return s.inner.Add(a, b)
}

func (s *instrumentedScheme) Sub(a, b *homo.Ciphertext) *homo.Ciphertext {
	defer s.end(s.start(&s.sub, 1))
	return s.inner.Sub(a, b)
}

func (s *instrumentedScheme) ScalarMul(m int64, a *homo.Ciphertext) *homo.Ciphertext {
	defer s.end(s.start(&s.smul, 1))
	return s.inner.ScalarMul(m, a)
}

func (s *instrumentedScheme) Rerandomize(a *homo.Ciphertext) *homo.Ciphertext {
	defer s.end(s.start(&s.rerand, 1))
	return s.inner.Rerandomize(a)
}

func (s *instrumentedScheme) EncryptZero() *homo.Ciphertext {
	defer s.end(s.start(&s.zero, 1))
	return s.inner.EncryptZero()
}

func (s *instrumentedScheme) PlaintextSpace() *big.Int { return s.inner.PlaintextSpace() }

func (s *instrumentedScheme) Encrypt(m *big.Int) *homo.Ciphertext {
	defer s.end(s.start(&s.enc, 1))
	return s.inner.Encrypt(m)
}

func (s *instrumentedScheme) EncryptInt(m int64) *homo.Ciphertext {
	defer s.end(s.start(&s.enc, 1))
	return s.inner.EncryptInt(m)
}

func (s *instrumentedScheme) Decrypt(c *homo.Ciphertext) *big.Int {
	defer s.end(s.start(&s.dec, 1))
	return s.inner.Decrypt(c)
}

func (s *instrumentedScheme) DecryptSigned(c *homo.Ciphertext) *big.Int {
	defer s.end(s.start(&s.dec, 1))
	return s.inner.DecryptSigned(c)
}

// The vector operations delegate through the homo batch helpers, so an
// instrumented batch-capable scheme keeps its parallel path and an
// instrumented serial scheme keeps its elementwise fallback. A batch of
// n counts n operations (serial and batched workloads stay comparable
// per element), and a timed batch records its latency per element.

func (s *instrumentedScheme) AddVec(a, b []*homo.Ciphertext) []*homo.Ciphertext {
	defer s.end(s.start(&s.addVec, len(a)))
	return homo.AddVec(s.inner, a, b)
}

func (s *instrumentedScheme) RerandomizeVec(xs []*homo.Ciphertext) []*homo.Ciphertext {
	defer s.end(s.start(&s.rerandVec, len(xs)))
	return homo.RerandomizeVec(s.inner, xs)
}

func (s *instrumentedScheme) ScalarVec(ms []int64, xs []*homo.Ciphertext) []*homo.Ciphertext {
	defer s.end(s.start(&s.smulVec, len(xs)))
	return homo.ScalarVec(s.inner, ms, xs)
}

func (s *instrumentedScheme) EncryptZeroVec(n int) []*homo.Ciphertext {
	defer s.end(s.start(&s.zeroVec, n))
	return homo.EncryptZeroVec(s.inner, n)
}

func (s *instrumentedScheme) EncryptVec(ms []*big.Int) []*homo.Ciphertext {
	defer s.end(s.start(&s.encVec, len(ms)))
	return homo.EncryptVec(s.inner, ms)
}

// The destination-passing operations delegate through the homo helpers
// for the same reason: Shamir keeps its in-place kernel behind the
// wrapper, Paillier and Plain their serial fallback, and either way the
// call is one operation — a fused combination counts once under
// op="lincomb" however many terms it folds, an encrypt-into under
// op="encrypt" beside EncryptInt, a refresh-into under op="rerandomize"
// beside Rerandomize, a decrypt-into under op="decrypt" beside
// DecryptSigned.

func (s *instrumentedScheme) LinCombInto(dst *homo.Ciphertext, coeffs []int64, xs []*homo.Ciphertext) *homo.Ciphertext {
	defer s.end(s.start(&s.linComb, 1))
	return homo.LinCombInto(s.inner, dst, coeffs, xs)
}

func (s *instrumentedScheme) EncryptIntInto(dst *homo.Ciphertext, m int64) *homo.Ciphertext {
	defer s.end(s.start(&s.enc, 1))
	return homo.EncryptIntInto(s.inner, dst, m)
}

func (s *instrumentedScheme) RerandomizeInto(dst, a *homo.Ciphertext) *homo.Ciphertext {
	defer s.end(s.start(&s.rerand, 1))
	return homo.RerandomizeInto(s.inner, dst, a)
}

func (s *instrumentedScheme) DecryptSignedInto(dst *big.Int, c *homo.Ciphertext) *big.Int {
	defer s.end(s.start(&s.dec, 1))
	return homo.DecryptSignedInto(s.inner, dst, c)
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
