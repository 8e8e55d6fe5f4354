package homo

import (
	"math"
	"math/big"
	"slices"
)

// Destination-passing capability: one fused linear combination, one
// encryption, one refresh and one decrypt, each into storage the caller
// owns. A broker's SFE inputs (the full-neighbourhood counter, the
// blinded Δs) are consumed by the controller inside the call and
// dropped, an accountant's ⊥ reply supersedes a counter nobody else
// holds, a payload is dealt into a counter its receiver superseded, and
// the controller reads every plaintext as an int64 or a sign; producing
// those through Public, Encryptor and Decryptor costs a fresh ciphertext
// or big.Int per op for values nobody keeps.
//
// The capability is optional, like the batch one (batch.go): the
// package helpers accept any Public/Encryptor/Decryptor and fall back to
// Add/Sub/ScalarMul, EncryptInt, Rerandomize and DecryptSigned, so
// protocol code written against the helpers runs unchanged — and
// plaintext-identically — over schemes that never opted in. Shamir
// implements all four natively over its share limbs; Paillier and Plain
// ride the fallback.
//
// Ownership rule for a destination ciphertext: a non-nil dst must be a
// ciphertext the caller obtained from the same scheme and has never
// published — not stored in a counter another party can reach, not
// sent, not handed to a hook. Everything else in the system treats
// ciphertexts as immutable and shares their pointers freely; a
// destination is overwritten, so it must be reachable from its owner
// alone. A LinCombInto dst may appear among xs.

// LinCombiner is the key-less fused capability.
type LinCombiner interface {
	// LinCombInto sets dst to an encryption of Σ coeffs[i]·xs[i] and
	// returns it; nil coeffs means the plain sum, an empty xs yields an
	// encryption of zero, and a nil dst allocates a fresh result. The
	// operands are never mutated (dst excepted, when it is one of them).
	LinCombInto(dst *Ciphertext, coeffs []int64, xs []*Ciphertext) *Ciphertext
}

// IntoEncryptor is the accountant-side destination-passing capability.
type IntoEncryptor interface {
	// EncryptIntInto sets dst to a fresh encryption of m and returns it;
	// a nil dst allocates.
	EncryptIntInto(dst *Ciphertext, m int64) *Ciphertext
}

// IntoRerandomizer is the key-less destination-passing refresh.
type IntoRerandomizer interface {
	// RerandomizeInto sets dst to a fresh encryption of a's plaintext and
	// returns it; a nil dst allocates. a is never mutated, and must not
	// be dst.
	RerandomizeInto(dst, a *Ciphertext) *Ciphertext
}

// IntoDecryptor is the controller-side destination-passing capability.
type IntoDecryptor interface {
	// DecryptSignedInto sets dst to DecryptSigned(c) and returns it; a
	// nil dst allocates.
	DecryptSignedInto(dst *big.Int, c *Ciphertext) *big.Int
}

// LinCombInto computes dst = Σ coeffs[i]·xs[i], natively when pub
// supports it. The result is always the return value: dst itself when
// one was passed, a fresh ciphertext otherwise.
func LinCombInto(pub Public, dst *Ciphertext, coeffs []int64, xs []*Ciphertext) *Ciphertext {
	if coeffs != nil && len(coeffs) != len(xs) {
		panic("homo: LinCombInto length mismatch")
	}
	if lc, ok := pub.(LinCombiner); ok {
		return lc.LinCombInto(dst, coeffs, xs)
	}
	r := linCombSerial(pub, coeffs, xs)
	if dst == nil {
		return r
	}
	if dst.Tag != r.Tag {
		panic("homo: LinCombInto destination from a different scheme instance")
	}
	dst.V.Set(r.V)
	return dst
}

// linCombSerial is the fallback fold. Adjacent terms sharing a
// coefficient are summed before they are scaled (λ·a + λ·b costs one
// ScalarMul, not two), coefficient ±1 is never scaled, and negative
// terms are accumulated apart and subtracted once: ScalarMul(−m) would
// cost Paillier a full-width exponent where Sub costs one inverse.
func linCombSerial(pub Public, coeffs []int64, xs []*Ciphertext) *Ciphertext {
	var pos, neg *Ciphertext // Σ positive terms, Σ |negative terms|
	for i := 0; i < len(xs); {
		m, run := int64(1), xs[i]
		if coeffs != nil {
			m = coeffs[i]
		}
		for i++; i < len(xs) && (coeffs == nil || coeffs[i] == m); i++ {
			run = pub.Add(run, xs[i])
		}
		if m == 0 {
			continue
		}
		acc := &pos
		if m < 0 && m != math.MinInt64 { // −MinInt64 overflows; ScalarMul takes it as is
			m, acc = -m, &neg
		}
		if m != 1 {
			run = pub.ScalarMul(m, run)
		}
		if *acc != nil {
			run = pub.Add(*acc, run)
		}
		*acc = run
	}
	switch {
	case pos == nil && neg == nil:
		return pub.EncryptZero()
	case pos == nil:
		return pub.Sub(pub.EncryptZero(), neg)
	case neg != nil:
		return pub.Sub(pos, neg)
	case slices.Contains(xs, pos):
		// A lone coefficient-1 term: the result must be the caller's to
		// keep or overwrite, never the operand itself.
		return pub.ScalarMul(1, pos)
	}
	return pos
}

// EncryptIntInto encrypts m into dst when enc supports it. Otherwise it
// returns enc.EncryptInt(m) and leaves dst alone: for a scheme without
// the capability, writing a fresh result over dst would save nothing.
// The result is always the return value.
func EncryptIntInto(enc Encryptor, dst *Ciphertext, m int64) *Ciphertext {
	if ie, ok := enc.(IntoEncryptor); ok {
		return ie.EncryptIntInto(dst, m)
	}
	return enc.EncryptInt(m)
}

// RerandomizeInto refreshes a into dst when pub supports it. Otherwise
// it returns pub.Rerandomize(a) and leaves dst alone, like
// EncryptIntInto. The result is always the return value.
func RerandomizeInto(pub Public, dst, a *Ciphertext) *Ciphertext {
	if r, ok := pub.(IntoRerandomizer); ok {
		return r.RerandomizeInto(dst, a)
	}
	return pub.Rerandomize(a)
}

// DealsInto reports whether s encrypts and refreshes into a destination
// natively (IntoEncryptor and IntoRerandomizer both): only then is
// ciphertext storage worth keeping for reuse.
func DealsInto(s Public) bool {
	_, enc := s.(IntoEncryptor)
	_, rr := s.(IntoRerandomizer)
	return enc && rr
}

// DecryptSignedInto decrypts c to its signed plaintext in dst, without
// allocating when dec supports it.
func DecryptSignedInto(dec Decryptor, dst *big.Int, c *Ciphertext) *big.Int {
	if id, ok := dec.(IntoDecryptor); ok {
		return id.DecryptSignedInto(dst, c)
	}
	v := dec.DecryptSigned(c)
	if dst == nil {
		return v
	}
	return dst.Set(v)
}
