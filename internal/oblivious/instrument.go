package oblivious

import (
	"fmt"
	"math/big"
	"time"

	"secmr/internal/homo"
	"secmr/internal/obs"
)

// InstrumentScheme wraps a homo.Scheme so every cryptographic
// operation is counted and its wall-clock latency recorded in
// per-(op, scheme) histograms. When the sink's tracer has EvCryptoOp
// explicitly enabled (it never records by default — one event per
// homomorphic add would drown a protocol trace), each operation also
// emits a timed trace event. With a nil sink the scheme is returned
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
			n:   reg.Counter("secmr_crypto_ops_total", "Cryptographic operations, by op and scheme.", "op", op, "scheme", inner.Name()),
			lat: reg.Histogram("secmr_crypto_op_seconds", "Cryptographic operation latency, by op and scheme.", obs.DefLatencyBuckets, "op", op, "scheme", inner.Name()),
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

// observe records one finished operation. Designed for
// `defer s.observe(instr, time.Now())` — the deferred argument captures
// the start time at call entry.
func (s *instrumentedScheme) observe(i opInstr, start time.Time) {
	d := time.Since(start)
	i.n.Inc()
	i.lat.Observe(d.Seconds())
	if s.tr.ExplicitlyEnabled(obs.EvCryptoOp) {
		s.tr.Emit(obs.Event{Type: obs.EvCryptoOp, Node: -1, Peer: -1, Detail: i.op, Dur: d.Nanoseconds()})
	}
}

func (s *instrumentedScheme) Add(a, b *homo.Ciphertext) *homo.Ciphertext {
	defer s.observe(s.add, time.Now())
	return s.inner.Add(a, b)
}

func (s *instrumentedScheme) Sub(a, b *homo.Ciphertext) *homo.Ciphertext {
	defer s.observe(s.sub, time.Now())
	return s.inner.Sub(a, b)
}

func (s *instrumentedScheme) ScalarMul(m int64, a *homo.Ciphertext) *homo.Ciphertext {
	defer s.observe(s.smul, time.Now())
	return s.inner.ScalarMul(m, a)
}

func (s *instrumentedScheme) Rerandomize(a *homo.Ciphertext) *homo.Ciphertext {
	defer s.observe(s.rerand, time.Now())
	return s.inner.Rerandomize(a)
}

func (s *instrumentedScheme) EncryptZero() *homo.Ciphertext {
	defer s.observe(s.zero, time.Now())
	return s.inner.EncryptZero()
}

func (s *instrumentedScheme) PlaintextSpace() *big.Int { return s.inner.PlaintextSpace() }

func (s *instrumentedScheme) Encrypt(m *big.Int) *homo.Ciphertext {
	defer s.observe(s.enc, time.Now())
	return s.inner.Encrypt(m)
}

func (s *instrumentedScheme) EncryptInt(m int64) *homo.Ciphertext {
	defer s.observe(s.enc, time.Now())
	return s.inner.EncryptInt(m)
}

func (s *instrumentedScheme) Decrypt(c *homo.Ciphertext) *big.Int {
	defer s.observe(s.dec, time.Now())
	return s.inner.Decrypt(c)
}

func (s *instrumentedScheme) DecryptSigned(c *homo.Ciphertext) *big.Int {
	defer s.observe(s.dec, time.Now())
	return s.inner.DecryptSigned(c)
}

// observeN records one finished batch operation covering n elements:
// the op counter advances by the element count (so serial and batched
// workloads stay comparable per element) while the histogram records
// one whole-batch latency.
func (s *instrumentedScheme) observeN(i opInstr, n int, start time.Time) {
	d := time.Since(start)
	i.n.Add(int64(n))
	i.lat.Observe(d.Seconds())
	if s.tr.ExplicitlyEnabled(obs.EvCryptoOp) {
		s.tr.Emit(obs.Event{Type: obs.EvCryptoOp, Node: -1, Peer: -1, Detail: i.op, Dur: d.Nanoseconds()})
	}
}

// The vector operations delegate through the homo batch helpers, so an
// instrumented batch-capable scheme keeps its parallel path and an
// instrumented serial scheme keeps its elementwise fallback — with the
// batch observed either way.

func (s *instrumentedScheme) AddVec(a, b []*homo.Ciphertext) []*homo.Ciphertext {
	defer s.observeN(s.addVec, len(a), time.Now())
	return homo.AddVec(s.inner, a, b)
}

func (s *instrumentedScheme) RerandomizeVec(xs []*homo.Ciphertext) []*homo.Ciphertext {
	defer s.observeN(s.rerandVec, len(xs), time.Now())
	return homo.RerandomizeVec(s.inner, xs)
}

func (s *instrumentedScheme) ScalarVec(ms []int64, xs []*homo.Ciphertext) []*homo.Ciphertext {
	defer s.observeN(s.smulVec, len(xs), time.Now())
	return homo.ScalarVec(s.inner, ms, xs)
}

func (s *instrumentedScheme) EncryptZeroVec(n int) []*homo.Ciphertext {
	defer s.observeN(s.zeroVec, n, time.Now())
	return homo.EncryptZeroVec(s.inner, n)
}

func (s *instrumentedScheme) EncryptVec(ms []*big.Int) []*homo.Ciphertext {
	defer s.observeN(s.encVec, len(ms), time.Now())
	return homo.EncryptVec(s.inner, ms)
}

// The destination-passing operations delegate through the homo helpers
// for the same reason: Shamir keeps its in-place kernel behind the
// wrapper, Paillier and Plain their serial fallback, and either way the
// call is one observation — a fused combination counts once under
// op="lincomb" however many terms it folds, an encrypt-into under
// op="encrypt" beside EncryptInt, a decrypt-into under op="decrypt"
// beside DecryptSigned.

func (s *instrumentedScheme) LinCombInto(dst *homo.Ciphertext, coeffs []int64, xs []*homo.Ciphertext) *homo.Ciphertext {
	defer s.observe(s.linComb, time.Now())
	return homo.LinCombInto(s.inner, dst, coeffs, xs)
}

func (s *instrumentedScheme) EncryptIntInto(dst *homo.Ciphertext, m int64) *homo.Ciphertext {
	defer s.observe(s.enc, time.Now())
	return homo.EncryptIntInto(s.inner, dst, m)
}

func (s *instrumentedScheme) DecryptSignedInto(dst *big.Int, c *homo.Ciphertext) *big.Int {
	defer s.observe(s.dec, time.Now())
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
	_ homo.Scheme        = (*instrumentedScheme)(nil)
	_ homo.Adopter       = (*instrumentedScheme)(nil)
	_ homo.BatchScheme   = (*instrumentedScheme)(nil)
	_ homo.LinCombiner   = (*instrumentedScheme)(nil)
	_ homo.IntoEncryptor = (*instrumentedScheme)(nil)
	_ homo.IntoDecryptor = (*instrumentedScheme)(nil)
)
