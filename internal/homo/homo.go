// Package homo defines the additively homomorphic cryptosystem
// abstraction used throughout secmr, together with the capability split
// the paper's protocol relies on.
//
// The paper (§4.2) requires an additively homomorphic probabilistic
// public-key cryptosystem whose homomorphic operators A+ and A− can be
// applied without knowing either key. It obtains one by composing two
// cryptosystems (footnote 1). We obtain the same behavioural guarantees
// by splitting capabilities at the type level:
//
//   - Public     — homomorphic arithmetic and rerandomization only.
//     This is the only capability ever handed to a broker.
//   - Encryptor  — Encrypt. Held by accountants.
//   - Decryptor  — Decrypt. Held by controllers.
//
// A broker holding only Public can neither read counters nor forge an
// encryption of a chosen value (it can build E(0) and linear
// combinations of ciphertexts it has seen, which is exactly the power
// the paper grants malicious brokers: "it can only set the value to a
// random number").
//
// Three implementations exist: internal/paillier (the paper's
// public-key cryptosystem), internal/shamir (Shamir secret sharing over
// GF(2^61−1): information-theoretic sub-k hiding, no key split — see
// DESIGN.md §13) and the Plain scheme in this package (a transparent
// stand-in with the same interface, used for large-scale shape
// experiments where crypto constant factors are irrelevant, and as the
// differential-testing oracle).
package homo

import "math/big"

// Ciphertext is an opaque encrypted value. The concrete representation
// belongs to the scheme that produced it; mixing ciphertexts from
// different scheme instances is a programming error and panics.
type Ciphertext struct {
	// V is the raw ciphertext value. For Paillier this is an element
	// of Z*_{N²}; for the Plain scheme it encodes the plaintext and a
	// nonce. Treat as opaque outside the producing scheme.
	V *big.Int
	// Tag identifies the producing scheme instance for mix-up checks.
	Tag uint64
}

// Clone returns an independent copy of the ciphertext.
func (c *Ciphertext) Clone() *Ciphertext {
	if c == nil {
		return nil
	}
	return &Ciphertext{V: new(big.Int).Set(c.V), Tag: c.Tag}
}

// Equal reports whether two ciphertexts are bit-identical. Note that
// for a probabilistic scheme, Equal(E(x), E(x)) is almost surely false
// for two independent encryptions: equality of ciphertexts does not
// reveal equality of plaintexts beyond the trivial case of a copied
// ciphertext.
func (c *Ciphertext) Equal(d *Ciphertext) bool {
	if c == nil || d == nil {
		return c == d
	}
	return c.Tag == d.Tag && c.V.Cmp(d.V) == 0
}

// Public is the key-less capability: homomorphic arithmetic over
// ciphertexts. All operations return fresh ciphertexts and never
// mutate their arguments.
type Public interface {
	// Add returns an encryption of the sum of the two plaintexts
	// (the paper's A+).
	Add(a, b *Ciphertext) *Ciphertext
	// Sub returns an encryption of the difference (the paper's A−).
	Sub(a, b *Ciphertext) *Ciphertext
	// ScalarMul returns an encryption of m·x given E(x). m may be
	// negative.
	ScalarMul(m int64, a *Ciphertext) *Ciphertext
	// Rerandomize returns a fresh-looking ciphertext with the same
	// plaintext (the paper's Ẽ(x)); indistinguishable from a new
	// encryption.
	Rerandomize(a *Ciphertext) *Ciphertext
	// EncryptZero returns a fresh encryption of zero. Harmless to
	// expose without the encryption capability: E(0) carries no
	// information, and Algorithm 1 requires brokers to initialize
	// counters to E(0).
	EncryptZero() *Ciphertext
	// PlaintextSpace returns the modulus M of the plaintext ring Z_M.
	PlaintextSpace() *big.Int
}

// Encryptor is the accountant capability.
type Encryptor interface {
	// Encrypt encrypts m interpreted modulo the plaintext space.
	// Negative m are supported through modular shifting (see
	// DecodeSigned).
	Encrypt(m *big.Int) *Ciphertext
	// EncryptInt is a convenience wrapper over Encrypt.
	EncryptInt(m int64) *Ciphertext
}

// Decryptor is the controller capability.
type Decryptor interface {
	// Decrypt returns the plaintext in [0, M).
	Decrypt(c *Ciphertext) *big.Int
	// DecryptSigned returns the plaintext decoded to a signed value in
	// (−M/2, M/2].
	DecryptSigned(c *Ciphertext) *big.Int
}

// Scheme bundles every capability; factories return a Scheme and the
// protocol wiring distributes the narrow interfaces to each entity.
type Scheme interface {
	Public
	Encryptor
	Decryptor
	// Name identifies the scheme ("paillier-1024", "plain", ...).
	Name() string
}

// Adopter is implemented by schemes that can take ownership of a
// deserialized ciphertext: Adopt validates that the raw value is a
// well-formed ciphertext for this scheme instance and returns a copy
// carrying the instance's tag. Wire codecs call it on every ciphertext
// they decode, restoring the in-process mix-up protection the Tag
// field provides.
type Adopter interface {
	Adopt(c *Ciphertext) (*Ciphertext, error)
}

// DecodeSigned maps a residue v ∈ [0, M) to the signed representative
// in (−M/2, M/2]. This implements the paper's "standard shifting
// techniques ... to support the encryption of negative integers".
func DecodeSigned(v, m *big.Int) *big.Int {
	half := new(big.Int).Rsh(m, 1)
	if v.Cmp(half) > 0 {
		return new(big.Int).Sub(v, m)
	}
	return new(big.Int).Set(v)
}

// EncodeMod maps an arbitrary (possibly negative) integer into [0, M).
func EncodeMod(x, m *big.Int) *big.Int {
	r := new(big.Int).Mod(x, m)
	if r.Sign() < 0 {
		r.Add(r, m)
	}
	return r
}
