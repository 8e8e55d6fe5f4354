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
// canonical big-endian wire form is injective.
type Scheme struct {
	geo *Geometry
	tag uint64

	// rng supplies the aux randomness that is the entire hiding margin.
	// ChaCha8 seeded from crypto/rand: cryptographically strong draws
	// at ~ns cost, mutex-guarded because encrypt paths run concurrently
	// (batch vec ops, netgrid hosts).
	mu  sync.Mutex
	rng *mrand.ChaCha8
}

var tagCounter atomic.Uint64

// New builds a Scheme for the given geometry. The aux-randomness
// generator is seeded from crypto/rand.
func New(p Params) (*Scheme, error) {
	geo, err := NewGeometry(p)
	if err != nil {
		return nil, err
	}
	var seed [32]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("shamir: seeding rng: %w", err)
	}
	return &Scheme{geo: geo, tag: tagCounter.Add(1), rng: mrand.NewChaCha8(seed)}, nil
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

// drawAux fills buf with uniform residues under the rng lock. One lock
// round-trip covers a whole batch when callers pre-size buf.
func (s *Scheme) drawAux(buf []uint64) {
	s.mu.Lock()
	for i := range buf {
		for {
			// 61 uniform bits; only the single value P (= 2^61−1) is
			// rejected, so the loop all but never repeats.
			if v := s.rng.Uint64() >> 3; v < P {
				buf[i] = v
				break
			}
		}
	}
	s.mu.Unlock()
}

// --- ciphertext packing -------------------------------------------------

// wordBits is the big.Word width of this platform. On 64-bit platforms
// shares map 1:1 onto big.Int limbs and the hot paths run directly on
// the word slices; elsewhere they fall back to the byte codec.
const wordBits = 32 << (^big.Word(0) >> 63)

// newCipher wraps a share vector (ownership transfers) as a ciphertext.
func (s *Scheme) newCipher(shares []uint64) *homo.Ciphertext {
	n := s.geo.p.N
	v := new(big.Int)
	if wordBits == 64 {
		ws := make([]big.Word, n+1)
		for i, sh := range shares {
			ws[i] = big.Word(sh)
		}
		ws[n] = 1 // sentinel limb: constant bit length 64N+1
		v.SetBits(ws)
	} else {
		buf := make([]byte, 8*n+1)
		buf[0] = 1
		for i, sh := range shares {
			binary.BigEndian.PutUint64(buf[len(buf)-8*(i+1):], sh)
		}
		v.SetBytes(buf)
	}
	return &homo.Ciphertext{V: v, Tag: s.tag}
}

// shares extracts the share vector of a ciphertext produced (or
// adopted) by this scheme instance. The tag check makes cross-scheme
// mix-ups panic exactly like the other backends.
func (s *Scheme) shares(c *homo.Ciphertext) []uint64 {
	if c.Tag != s.tag {
		panic("shamir: ciphertext from a different scheme instance")
	}
	n := s.geo.p.N
	out := make([]uint64, n)
	if wordBits == 64 {
		ws := c.V.Bits()
		if len(ws) != n+1 || ws[n] != 1 {
			panic("shamir: corrupted share vector")
		}
		for i := range out {
			out[i] = uint64(ws[i])
		}
	} else {
		buf := make([]byte, 8*n+1)
		c.V.FillBytes(buf)
		if buf[0] != 1 {
			panic("shamir: corrupted share vector")
		}
		for i := range out {
			out[i] = binary.BigEndian.Uint64(buf[len(buf)-8*(i+1):])
		}
	}
	return out
}

// --- Encryptor ----------------------------------------------------------

// encryptResidue deals a fresh sharing of a reduced residue.
func (s *Scheme) encryptResidue(v uint64) *homo.Ciphertext {
	p := s.geo.p
	secrets := make([]uint64, p.W) // slot 0 carries the value; others stay 0
	secrets[0] = v
	aux := make([]uint64, p.K-1)
	s.drawAux(aux)
	return s.newCipher(s.geo.Deal(secrets, aux))
}

// Encrypt deals m (mod P) into N shares.
func (s *Scheme) Encrypt(m *big.Int) *homo.Ciphertext {
	return s.encryptResidue(homo.EncodeMod(m, pBig).Uint64())
}

// EncryptInt deals the given int64.
func (s *Scheme) EncryptInt(m int64) *homo.Ciphertext {
	return s.encryptResidue(fieldEncodeInt64(m))
}

// EncryptZero returns a fresh sharing of zero.
func (s *Scheme) EncryptZero() *homo.Ciphertext { return s.encryptResidue(0) }

// --- Decryptor ----------------------------------------------------------

// Decrypt reconstructs the plaintext in [0, P) from the first T shares
// — a single precomputed-Lagrange dot product.
func (s *Scheme) Decrypt(c *homo.Ciphertext) *big.Int {
	return new(big.Int).SetUint64(s.geo.ReconstructSlot(s.shares(c), 0))
}

// DecryptSigned reconstructs the plaintext decoded into (−P/2, P/2].
func (s *Scheme) DecryptSigned(c *homo.Ciphertext) *big.Int {
	return homo.DecodeSigned(s.Decrypt(c), pBig)
}

// --- Public (homomorphic arithmetic) ------------------------------------

// Add returns the componentwise share sum — an encryption of the
// plaintext sum, by linearity of interpolation.
func (s *Scheme) Add(a, b *homo.Ciphertext) *homo.Ciphertext {
	sa, sb := s.shares(a), s.shares(b)
	AddSlices(sa, sa, sb)
	return s.newCipher(sa)
}

// Sub returns the componentwise share difference.
func (s *Scheme) Sub(a, b *homo.Ciphertext) *homo.Ciphertext {
	sa, sb := s.shares(a), s.shares(b)
	SubSlices(sa, sa, sb)
	return s.newCipher(sa)
}

// ScalarMul returns m·x sharewise; m may be negative.
func (s *Scheme) ScalarMul(m int64, a *homo.Ciphertext) *homo.Ciphertext {
	sa := s.shares(a)
	ScaleSlice(sa, sa, fieldEncodeInt64(m))
	return s.newCipher(sa)
}

// Rerandomize adds a fresh sharing of zero: the plaintext (every
// packed slot) is preserved while every share changes uniformly, so
// the recipient cannot tell whether the underlying counter moved.
func (s *Scheme) Rerandomize(a *homo.Ciphertext) *homo.Ciphertext {
	sa := s.shares(a)
	zero := make([]uint64, s.geo.p.W)
	aux := make([]uint64, s.geo.p.K-1)
	s.drawAux(aux)
	z := s.geo.Deal(zero, aux)
	AddSlices(sa, sa, z)
	return s.newCipher(sa)
}

// --- batch capability ---------------------------------------------------

// The batch interfaces are implemented with plain loops, NOT the homo
// worker pool: a share add costs a few nanoseconds, three orders of
// magnitude below the pool's dispatch overhead, so the serial loop IS
// the fast path (Paillier's cheap AddVec/ScalarVec are plain loops for
// the same reason). Randomness for encrypt-class batches is drawn in
// one locked pass per call.

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

// RerandomizeVec refreshes every ciphertext, drawing the whole batch's
// aux randomness under one lock round-trip.
func (s *Scheme) RerandomizeVec(xs []*homo.Ciphertext) []*homo.Ciphertext {
	p := s.geo.p
	aux := make([]uint64, len(xs)*(p.K-1))
	s.drawAux(aux)
	zero := make([]uint64, p.W)
	z := make([]uint64, p.N)
	out := make([]*homo.Ciphertext, len(xs))
	for i, x := range xs {
		sx := s.shares(x)
		s.geo.DealInto(z, zero, aux[i*(p.K-1):(i+1)*(p.K-1)])
		AddSlices(sx, sx, z)
		out[i] = s.newCipher(sx)
	}
	return out
}

// EncryptVec deals every plaintext with one batched randomness draw.
func (s *Scheme) EncryptVec(ms []*big.Int) []*homo.Ciphertext {
	p := s.geo.p
	aux := make([]uint64, len(ms)*(p.K-1))
	s.drawAux(aux)
	secrets := make([]uint64, p.W)
	out := make([]*homo.Ciphertext, len(ms))
	for i, m := range ms {
		secrets[0] = homo.EncodeMod(m, pBig).Uint64()
		sh := make([]uint64, p.N)
		s.geo.DealInto(sh, secrets, aux[i*(p.K-1):(i+1)*(p.K-1)])
		out[i] = s.newCipher(sh)
	}
	return out
}

// EncryptZeroVec returns n fresh sharings of zero.
func (s *Scheme) EncryptZeroVec(n int) []*homo.Ciphertext {
	p := s.geo.p
	aux := make([]uint64, n*(p.K-1))
	s.drawAux(aux)
	zero := make([]uint64, p.W)
	out := make([]*homo.Ciphertext, n)
	for i := range out {
		sh := make([]uint64, p.N)
		s.geo.DealInto(sh, zero, aux[i*(p.K-1):(i+1)*(p.K-1)])
		out[i] = s.newCipher(sh)
	}
	return out
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
	buf := make([]byte, 8*n+1)
	c.V.FillBytes(buf)
	if buf[0] != 1 {
		return nil, fmt.Errorf("shamir: share vector sentinel corrupted")
	}
	for i := 0; i < n; i++ {
		if binary.BigEndian.Uint64(buf[len(buf)-8*(i+1):]) >= P {
			return nil, fmt.Errorf("shamir: share %d out of field range", i)
		}
	}
	return &homo.Ciphertext{V: new(big.Int).Set(c.V), Tag: s.tag}, nil
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
	_ homo.Scheme         = (*Scheme)(nil)
	_ homo.BatchScheme    = (*Scheme)(nil)
	_ homo.Adopter        = (*Scheme)(nil)
	_ homo.WireCiphertext = (*Scheme)(nil)
)
