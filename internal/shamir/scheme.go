package shamir

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math/big"
	mrand "math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"

	"secmr/internal/homo"
)

// Scheme adapts packed Shamir sharing to the homo.Scheme interface, so
// oblivious counters, the core broker/accountant/controller, the 0x9C
// wire codec and the persist snapshots all run over share vectors
// without change. A "ciphertext" is the full N-share vector of one
// value; the homomorphic operators are componentwise field arithmetic
// (Lagrange interpolation is linear), so Add/Sub/ScalarMul cost a few
// nanoseconds per share instead of a modular multiplication in Z*_{N²}.
//
// Threat model (DESIGN.md §13): unlike Paillier, the
// capability split is NOT cryptographic — anyone holding a share
// vector holds every share, and anyone can deal a chosen value, so
// Public/Encryptor/Decryptor coincide in power. What the scheme
// guarantees instead is information-theoretic: any K−1 shares of a
// value are jointly uniform and reveal nothing (the k-TTP property the
// protocol's k-gate enforces at the aggregation layer), and it
// guarantees it unconditionally — no hardness assumption, no key to
// steal. Deployments that need the capability split against a
// curious *broker* must keep Paillier; deployments whose
// adversary is a sub-k coalition of share holders get the same
// k-security three orders of magnitude cheaper. Forged counters from a
// malicious dealer are caught exactly as before: the share-sum field
// and the quarantine evidence machinery are scheme-independent.
//
// Ciphertext representation: V = 2^(64N) + Σ_i share_i·2^(64i) — one
// share per 64-bit limb, most-significant limb forced to 1 so the bit
// length (64N+1) is a pure function of the geometry: wire sizes never
// depend on share values, adoption can validate shape in O(1), and the
// canonical big-endian wire form is injective. A fresh ciphertext is one
// heap object: the homo.Ciphertext header, its big.Int and the limb
// array together (a cell), the limb slice capped at its length. Only a
// geometry whose limbs outgrow the largest cell keeps the limb array
// as a second object.
type Scheme struct {
	geo *Geometry
	tag uint64
	// cell is the limb capacity of this geometry's one-object
	// ciphertexts, 0 when the limbs outgrow every cell.
	cell int
}

var tagCounter atomic.Uint64

// New builds a Scheme for the given geometry.
func New(p Params) (*Scheme, error) {
	geo, err := NewGeometry(p)
	if err != nil {
		return nil, err
	}
	s := &Scheme{geo: geo, tag: tagCounter.Add(1)}
	for _, c := range cellWords {
		if c >= s.words() {
			s.cell = c
			break
		}
	}
	return s, nil
}

// MustNew is New for static parameters known to be valid.
func MustNew(p Params) *Scheme {
	s, err := New(p)
	if err != nil {
		panic(err)
	}
	return s
}

// Params returns the sharing geometry.
func (s *Scheme) Params() Params { return s.geo.Params() }

// FieldPrime returns the share-field modulus (2^61 − 1).
func (s *Scheme) FieldPrime() uint64 { return P }

// Name identifies the scheme: shamir61-2of6, with a -wW suffix when
// the packing width exceeds 1.
func (s *Scheme) Name() string {
	p := s.geo.Params()
	name := "shamir61-" + strconv.Itoa(p.K) + "of" + strconv.Itoa(p.N)
	if p.W > 1 {
		name += "-w" + strconv.Itoa(p.W)
	}
	return name
}

var pBig = new(big.Int).SetUint64(P)

// PlaintextSpace returns Z_P.
func (s *Scheme) PlaintextSpace() *big.Int { return new(big.Int).Set(pBig) }

// auxStreams supplies the aux randomness that is the entire hiding
// margin: ChaCha8 generators, each seeded from crypto/rand, so draws are
// cryptographically strong at ~ns cost. A dealer takes a generator for
// the length of one dealing (or one batch's draw) and puts it back;
// sync.Pool keeps one per P in the steady state, so resources dealing
// on different cores (engine workers, netgrid hosts) never wait on each
// other. A generator the pool drops at a GC is replaced by a freshly
// seeded one.
var auxStreams = sync.Pool{New: func() any {
	var seed [32]byte
	if _, err := rand.Read(seed[:]); err != nil {
		panic(fmt.Sprintf("shamir: seeding aux stream: %v", err))
	}
	return mrand.NewChaCha8(seed)
}}

// drawResidue returns one uniform residue from rng.
func drawResidue(rng *mrand.ChaCha8) uint64 {
	for {
		// 61 uniform bits; only the single value P (= 2^61−1) is
		// rejected, so the loop all but never repeats.
		if v := rng.Uint64() >> 3; v < P {
			return v
		}
	}
}

// drawAux fills buf with uniform residues from one pooled generator;
// callers pre-size buf so a whole batch is one pool round-trip.
func (s *Scheme) drawAux(buf []uint64) {
	rng := auxStreams.Get().(*mrand.ChaCha8)
	for i := range buf {
		buf[i] = drawResidue(rng)
	}
	auxStreams.Put(rng)
}

// --- ciphertext packing -------------------------------------------------

// wordBits is the big.Word width of this platform, wordsPerShare the
// limbs one share spans; both fold at compile time, so share and
// setShare compile to their one live arm.
const (
	wordBits      = 32 << (^big.Word(0) >> 63)
	wordsPerShare = 64 / wordBits
)

// share reads share i of a limb vector.
func share(ws []big.Word, i int) uint64 {
	if wordBits == 64 {
		return uint64(ws[i])
	}
	return uint64(ws[2*i]) | uint64(ws[2*i+1])<<32
}

// setShare writes share i of a limb vector.
func setShare(ws []big.Word, i int, v uint64) {
	if wordBits == 64 {
		ws[i] = big.Word(v)
		return
	}
	ws[2*i], ws[2*i+1] = big.Word(v), big.Word(v>>32)
}

// words returns the limb count of this geometry's ciphertexts, the
// sentinel limb included.
func (s *Scheme) words() int { return s.geo.p.N*wordsPerShare + 1 }

// limbs returns the share limbs (sentinel included) of a ciphertext
// produced or adopted by this instance; the tag check makes cross-scheme
// mix-ups panic exactly like the other backends. The result is c's own
// storage, read-only: ciphertexts are immutable and shared between
// counters.
func (s *Scheme) limbs(c *homo.Ciphertext) []big.Word {
	if c.Tag != s.tag {
		panic("shamir: ciphertext from a different scheme instance")
	}
	ws, top := c.V.Bits(), s.geo.p.N*wordsPerShare
	if len(ws) != top+1 || ws[top] != 1 {
		panic("shamir: corrupted share vector")
	}
	return ws
}

// cell is one ciphertext's whole storage: header, big.Int and limb
// array L in one heap object. An op's first read of an operand's limbs
// then lands next to the header it has just read, instead of missing
// the cache a second time on a separate limb array — before cells,
// that read was the secure step's largest single cost.
type cell[L any] struct {
	c homo.Ciphertext
	v big.Int
	l L
}

// cellWords are the limb capacities a geometry chooses among, smallest
// first: 8 holds the 3-of-7 ciphertexts of the benchmark on 64-bit
// words, 16 the same ciphertexts on 32-bit ones, where a share spans
// two words.
var cellWords = [...]int{8, 16, 32}

// blank returns a ciphertext of this instance with all-zero shares, and
// its limbs for the caller to fill before anyone else sees it. It is
// the only constructor of a ciphertext: one allocation (two past the
// largest cell), and fresh storage that never aliases an operand. The
// limb slice's capacity is its length, so no big.Int op on V can write
// past it.
func (s *Scheme) blank() (*homo.Ciphertext, []big.Word) {
	n := s.words()
	var (
		c  *homo.Ciphertext
		v  *big.Int
		ws []big.Word
	)
	switch s.cell {
	case 8:
		x := new(cell[[8]big.Word])
		c, v, ws = &x.c, &x.v, x.l[:n:n]
	case 16:
		x := new(cell[[16]big.Word])
		c, v, ws = &x.c, &x.v, x.l[:n:n]
	case 32:
		x := new(cell[[32]big.Word])
		c, v, ws = &x.c, &x.v, x.l[:n:n]
	default:
		x := new(cell[struct{}])
		c, v, ws = &x.c, &x.v, make([]big.Word, n)
	}
	ws[n-1] = 1 // sentinel limb: constant bit length 64N+1
	*c = homo.Ciphertext{V: v.SetBits(ws), Tag: s.tag}
	return c, ws
}

// deal returns a fresh sharing of v (packed slot 0; the other slots
// stay 0) added sharewise to base, or on its own when base is nil. aux
// holds the dealing's K−1 uniform residues; nil draws each one from a
// pooled stream when it is consumed. The sharing is written into dst's
// limbs, or into a new ciphertext when dst is nil; base must not be
// dst's.
//
// Dealing is coefficient-major: each pass folds one more defining
// value into all N shares, accumulating in the destination limbs, so
// the N evaluations are independent chains rather than N serial
// Horner runs, and no buffer of defining values is needed at any K.
func (s *Scheme) deal(dst *homo.Ciphertext, v uint64, aux []uint64, base []big.Word) *homo.Ciphertext {
	p := s.geo.p
	if aux != nil && len(aux) != p.K-1 {
		panic("shamir: dealing needs K-1 aux residues")
	}
	var ws []big.Word
	if dst == nil {
		dst, ws = s.blank()
	} else {
		ws = s.limbs(dst)
	}
	var rng *mrand.ChaCha8
	if aux == nil && p.K > 1 {
		rng = auxStreams.Get().(*mrand.ChaCha8)
	}
	next := func(a int) uint64 { // aux residue a
		if rng != nil {
			return drawResidue(rng)
		}
		return aux[a]
	}
	if rows := s.geo.deal; rows != nil {
		// Packed: share i = Σ_j deal[i][j]·vals[j] over the defining
		// values vals = v ‖ 0 … ‖ aux.
		for i, row := range rows {
			setShare(ws, i, fieldMul(row[0], v))
		}
		for a := 0; a < p.K-1; a++ {
			r := next(a)
			for i, row := range rows {
				setShare(ws, i, fieldAdd(share(ws, i), fieldMul(row[p.W+a], r)))
			}
		}
	} else {
		// Unpacked: f(x) = v + Σ_a aux[a]·x^(a+1) at x = 1 … N by
		// Horner's rule, top coefficient first.
		top := v
		if p.K > 1 {
			top = next(p.K - 2)
		}
		for i := 0; i < p.N; i++ {
			setShare(ws, i, top)
		}
		for a := p.K - 3; a >= -1; a-- {
			c := v
			if a >= 0 {
				c = next(a)
			}
			for i := 0; i < p.N; i++ {
				setShare(ws, i, fieldAdd(fieldMul(share(ws, i), uint64(i+1)), c))
			}
		}
	}
	if rng != nil {
		auxStreams.Put(rng)
	}
	if base != nil {
		for i := 0; i < p.N; i++ {
			setShare(ws, i, fieldAdd(share(ws, i), share(base, i)))
		}
	}
	return dst
}

// open reconstructs slot 0 from the first T shares — a single
// precomputed-Lagrange dot product over the limbs.
func (s *Scheme) open(c *homo.Ciphertext) uint64 {
	ws, acc := s.limbs(c), uint64(0)
	for i, w := range s.geo.rec[0] {
		acc = fieldAdd(acc, fieldMul(w, share(ws, i)))
	}
	return acc
}

// --- Encryptor ----------------------------------------------------------

// Encrypt deals m (mod P) into N shares.
func (s *Scheme) Encrypt(m *big.Int) *homo.Ciphertext {
	if m.IsInt64() { // every protocol value; skips EncodeMod's temporaries
		return s.EncryptInt(m.Int64())
	}
	return s.deal(nil, homo.EncodeMod(m, pBig).Uint64(), nil, nil)
}

// EncryptInt deals the given int64.
func (s *Scheme) EncryptInt(m int64) *homo.Ciphertext {
	return s.deal(nil, fieldEncodeInt64(m), nil, nil)
}

// EncryptIntInto is EncryptInt dealt into dst's limbs (homo.IntoEncryptor):
// with a destination the call allocates nothing.
func (s *Scheme) EncryptIntInto(dst *homo.Ciphertext, m int64) *homo.Ciphertext {
	return s.deal(dst, fieldEncodeInt64(m), nil, nil)
}

// EncryptZero returns a fresh sharing of zero.
func (s *Scheme) EncryptZero() *homo.Ciphertext { return s.deal(nil, 0, nil, nil) }

// --- Decryptor ----------------------------------------------------------

// Decrypt reconstructs the plaintext in [0, P).
func (s *Scheme) Decrypt(c *homo.Ciphertext) *big.Int {
	return new(big.Int).SetUint64(s.open(c))
}

// openSigned reconstructs the plaintext decoded into (−P/2, P/2].
func (s *Scheme) openSigned(c *homo.Ciphertext) int64 {
	v := int64(s.open(c)) // < 2^61: fits
	if v > int64(P>>1) {
		v -= int64(P)
	}
	return v
}

// DecryptSigned reconstructs the plaintext decoded into (−P/2, P/2].
func (s *Scheme) DecryptSigned(c *homo.Ciphertext) *big.Int {
	return big.NewInt(s.openSigned(c))
}

// DecryptSignedInto is DecryptSigned into the caller's integer: once
// dst has held a nonzero value it has the one or two words any
// plaintext needs, and the call allocates nothing.
func (s *Scheme) DecryptSignedInto(dst *big.Int, c *homo.Ciphertext) *big.Int {
	if dst == nil {
		dst = new(big.Int)
	}
	return dst.SetInt64(s.openSigned(c))
}

// --- Public (homomorphic arithmetic) ------------------------------------

// Add returns the componentwise share sum — an encryption of the
// plaintext sum, by linearity of interpolation.
func (s *Scheme) Add(a, b *homo.Ciphertext) *homo.Ciphertext {
	wa, wb := s.limbs(a), s.limbs(b)
	out, ws := s.blank()
	for i := 0; i < s.geo.p.N; i++ {
		setShare(ws, i, fieldAdd(share(wa, i), share(wb, i)))
	}
	return out
}

// Sub returns the componentwise share difference.
func (s *Scheme) Sub(a, b *homo.Ciphertext) *homo.Ciphertext {
	wa, wb := s.limbs(a), s.limbs(b)
	out, ws := s.blank()
	for i := 0; i < s.geo.p.N; i++ {
		setShare(ws, i, fieldSub(share(wa, i), share(wb, i)))
	}
	return out
}

// ScalarMul returns m·x sharewise; m may be negative.
func (s *Scheme) ScalarMul(m int64, a *homo.Ciphertext) *homo.Ciphertext {
	wa, r := s.limbs(a), fieldEncodeInt64(m)
	out, ws := s.blank()
	for i := 0; i < s.geo.p.N; i++ {
		setShare(ws, i, fieldMul(share(wa, i), r))
	}
	return out
}

// LinCombInto is the fused op every homomorphic chain of the protocol
// reduces to (homo.LinCombiner): dst = Σ coeffs[i]·xs[i] sharewise, nil
// coeffs meaning the plain sum. Operands and destination alike pass the
// limbs check before any share is stored. The combination is
// accumulated on the stack in runs of up to 16 shares — one run at
// every product geometry — and each run is stored only after every
// operand's same shares were read, so dst may be one of xs and a
// panicking check leaves it untouched. With a destination the call
// allocates nothing, at any N.
func (s *Scheme) LinCombInto(dst *homo.Ciphertext, coeffs []int64, xs []*homo.Ciphertext) *homo.Ciphertext {
	if coeffs != nil && len(coeffs) != len(xs) {
		panic("shamir: LinCombInto length mismatch")
	}
	var buf [linCombRun]uint64
	acc := buf[:min(s.geo.p.N, linCombRun)]
	for j, x := range xs {
		wx, m := s.limbs(x), uint64(1)
		if coeffs != nil {
			m = fieldEncodeInt64(coeffs[j])
		}
		if m == 1 {
			for i := range acc {
				acc[i] = fieldAdd(acc[i], share(wx, i))
			}
			continue
		}
		for i := range acc {
			acc[i] = fieldAdd(acc[i], fieldMul(share(wx, i), m))
		}
	}
	var wd []big.Word
	if dst == nil {
		dst, wd = s.blank()
	} else {
		wd = s.limbs(dst)
	}
	for i, v := range acc {
		setShare(wd, i, v)
	}
	if s.geo.p.N > linCombRun {
		s.linCombTail(wd, coeffs, xs)
	}
	return dst
}

// linCombRun is the shares LinCombInto accumulates per run: every
// product geometry's whole share vector.
const linCombRun = 16

// linCombTail is LinCombInto past its first run, for N > linCombRun:
// the remaining shares into wd, one run at a time, every operand
// already checked.
func (s *Scheme) linCombTail(wd []big.Word, coeffs []int64, xs []*homo.Ciphertext) {
	var buf [linCombRun]uint64
	for lo := linCombRun; lo < s.geo.p.N; lo += linCombRun {
		acc := buf[:min(s.geo.p.N-lo, linCombRun)]
		clear(acc)
		for j, x := range xs {
			m := uint64(1)
			if coeffs != nil {
				m = fieldEncodeInt64(coeffs[j])
			}
			wx := x.V.Bits()[lo*wordsPerShare:]
			for i := range acc {
				acc[i] = fieldAdd(acc[i], fieldMul(share(wx, i), m))
			}
		}
		for i, v := range acc {
			setShare(wd, lo+i, v)
		}
	}
}

// Rerandomize adds a fresh sharing of zero: the plaintext (every
// packed slot) is preserved while every share changes uniformly, so
// the recipient cannot tell whether the underlying counter moved.
func (s *Scheme) Rerandomize(a *homo.Ciphertext) *homo.Ciphertext {
	return s.deal(nil, 0, nil, s.limbs(a))
}

// RerandomizeInto is Rerandomize dealt into dst's limbs
// (homo.IntoRerandomizer): with a destination the call allocates nothing.
func (s *Scheme) RerandomizeInto(dst, a *homo.Ciphertext) *homo.Ciphertext {
	return s.deal(dst, 0, nil, s.limbs(a))
}

// --- batch capability ---------------------------------------------------

// The batch interfaces are implemented with plain loops over the
// single-op kernel, NOT the homo worker pool: a share add costs a few
// nanoseconds, three orders of magnitude below the pool's dispatch
// overhead, so the serial loop IS the fast path (Paillier's cheap
// AddVec/ScalarVec are plain loops for the same reason).

// AddVec returns the elementwise homomorphic sum.
func (s *Scheme) AddVec(a, b []*homo.Ciphertext) []*homo.Ciphertext {
	if len(a) != len(b) {
		panic("shamir: AddVec length mismatch")
	}
	out := make([]*homo.Ciphertext, len(a))
	for i := range a {
		out[i] = s.Add(a[i], b[i])
	}
	return out
}

// ScalarVec returns elementwise ms[i] ∗ xs[i].
func (s *Scheme) ScalarVec(ms []int64, xs []*homo.Ciphertext) []*homo.Ciphertext {
	if len(ms) != len(xs) {
		panic("shamir: ScalarVec length mismatch")
	}
	out := make([]*homo.Ciphertext, len(xs))
	for i := range xs {
		out[i] = s.ScalarMul(ms[i], xs[i])
	}
	return out
}

// dealVec deals a fresh sharing of every vs[i] — onto bases[i] when
// bases is non-nil — drawing the whole batch's aux randomness in one
// draw.
func (s *Scheme) dealVec(vs []uint64, bases []*homo.Ciphertext) []*homo.Ciphertext {
	k1 := s.geo.p.K - 1
	aux := make([]uint64, len(vs)*k1)
	s.drawAux(aux)
	out := make([]*homo.Ciphertext, len(vs))
	for i, v := range vs {
		var base []big.Word
		if bases != nil {
			base = s.limbs(bases[i])
		}
		out[i] = s.deal(nil, v, aux[i*k1:(i+1)*k1], base)
	}
	return out
}

// RerandomizeVec refreshes every ciphertext.
func (s *Scheme) RerandomizeVec(xs []*homo.Ciphertext) []*homo.Ciphertext {
	return s.dealVec(make([]uint64, len(xs)), xs)
}

// EncryptVec deals every plaintext.
func (s *Scheme) EncryptVec(ms []*big.Int) []*homo.Ciphertext {
	vs := make([]uint64, len(ms))
	for i, m := range ms {
		vs[i] = homo.EncodeMod(m, pBig).Uint64()
	}
	return s.dealVec(vs, nil)
}

// EncryptZeroVec returns n fresh sharings of zero.
func (s *Scheme) EncryptZeroVec(n int) []*homo.Ciphertext {
	return s.dealVec(make([]uint64, n), nil)
}

// --- adoption and wire --------------------------------------------------

// Adopt validates a deserialized share vector and re-tags it for this
// instance: exact bit length 64N+1 (sentinel limb present, no excess),
// and every share a reduced residue < P. Anything else is rejected, so
// a malformed or truncated wire share can never reach the arithmetic.
func (s *Scheme) Adopt(c *homo.Ciphertext) (*homo.Ciphertext, error) {
	n := s.geo.p.N
	if c == nil || c.V == nil || c.V.Sign() < 0 {
		return nil, fmt.Errorf("shamir: malformed share vector")
	}
	if got, want := c.V.BitLen(), 64*n+1; got != want {
		return nil, fmt.Errorf("shamir: share vector has %d bits, want %d (N=%d)", got, want, n)
	}
	src := c.V.Bits() // the bit length fixes the limb count and the sentinel limb to 1
	for i := 0; i < n; i++ {
		if share(src, i) >= P {
			return nil, fmt.Errorf("shamir: share %d out of field range", i)
		}
	}
	out, ws := s.blank()
	copy(ws, src)
	return out, nil
}

// AppendCiphertext appends the canonical compact wire form of c.
func (s *Scheme) AppendCiphertext(dst []byte, c *homo.Ciphertext) []byte {
	return homo.AppendCiphertext(dst, c)
}

// MaxCiphertextBytes bounds the wire size of any share vector: the
// sentinel limb fixes it to exactly 8N+1 magnitude bytes plus the
// uvarint length prefix.
func (s *Scheme) MaxCiphertextBytes() int {
	n := 8*s.geo.p.N + 1
	return n + len(binary.AppendUvarint(nil, uint64(n)))
}

var (
	_ homo.Scheme           = (*Scheme)(nil)
	_ homo.BatchScheme      = (*Scheme)(nil)
	_ homo.LinCombiner      = (*Scheme)(nil)
	_ homo.IntoDecryptor    = (*Scheme)(nil)
	_ homo.IntoEncryptor    = (*Scheme)(nil)
	_ homo.IntoRerandomizer = (*Scheme)(nil)
	_ homo.Adopter          = (*Scheme)(nil)
	_ homo.WireCiphertext   = (*Scheme)(nil)
)
