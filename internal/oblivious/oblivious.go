// Package oblivious implements the paper's oblivious counters (§4.2,
// §5.2): encrypted counters that anyone can add and rerandomize
// without keys, extended with the two anti-malicious fields —
//
//   - a share field: the values the accountant of a resource assigns
//     to its neighbours (and to itself) sum to 1 modulo the plaintext
//     space, so the sum of a full neighbourhood of counters carries
//     E(1) in this field if and only if every neighbour was counted
//     exactly once;
//   - a timestamp vector: one Lamport-clock slot per message source,
//     so the controller can detect replayed (stale) counters.
//
// A Counter bundles the three protocol values (sum, count, num) with
// one share field and one stamp vector; componentwise addition
// preserves all invariants. The package also provides the blinded-sign
// secure function evaluation primitive used between broker and
// controller (§5.1).
package oblivious

import (
	"math/rand"

	"secmr/internal/homo"
)

// Counter is one oblivious counter message: the §5.2 payload
// ⟨sum, count, num, share, T_⊥, T_v1, …, T_vd⟩ with each field an
// independently homomorphic ciphertext, which lets the controller
// decrypt verification fields without learning the counter values.
type Counter struct {
	Sum, Count, Num *homo.Ciphertext
	Share           *homo.Ciphertext
	Stamps          []*homo.Ciphertext
}

// vec flattens the counter into the fixed field order
// (sum, count, num, share, stamps…) for the homo vector helpers.
func (c *Counter) vec() []*homo.Ciphertext {
	v := make([]*homo.Ciphertext, 0, 4+len(c.Stamps))
	v = append(v, c.Sum, c.Count, c.Num, c.Share)
	return append(v, c.Stamps...)
}

// fromVec rebuilds a counter from vec's layout. The slice is owned by
// the result afterwards.
func fromVec(v []*homo.Ciphertext) *Counter {
	return &Counter{Sum: v[0], Count: v[1], Num: v[2], Share: v[3], Stamps: v[4:]}
}

// NewZero returns an all-E(0) counter with the given number of stamp
// slots through homo.EncryptZeroVec: Paillier computes the 4+slots
// encryptions of zero on the shared worker pool, Shamir draws their
// randomness in one pass, and a scheme without the batch capability
// runs the identical serial loop. Add and Rerandomize go field by
// field.
func NewZero(pub homo.Public, slots int) *Counter {
	return fromVec(homo.EncryptZeroVec(pub, 4+slots))
}

// Add returns the componentwise homomorphic sum. Both operands must
// have the same number of stamp slots.
func Add(pub homo.Public, a, b *Counter) *Counter {
	if len(a.Stamps) != len(b.Stamps) {
		panic("oblivious: stamp slot mismatch")
	}
	return fromVec(homo.AddVec(pub, a.vec(), b.vec()))
}

// Rerandomize refreshes every component so the recipient cannot tell
// whether the counter changed (§5.2: "further rerandomized to conceal
// from the receiver the fact that the counter was not changed").
func Rerandomize(pub homo.Public, c *Counter) *Counter {
	return fromVec(homo.RerandomizeVec(pub, c.vec()))
}

// Clone deep-copies the counter.
func (c *Counter) Clone() *Counter {
	out := &Counter{
		Sum:    c.Sum.Clone(),
		Count:  c.Count.Clone(),
		Num:    c.Num.Clone(),
		Share:  c.Share.Clone(),
		Stamps: make([]*homo.Ciphertext, len(c.Stamps)),
	}
	for i := range c.Stamps {
		out.Stamps[i] = c.Stamps[i].Clone()
	}
	return out
}

// BlindFactor draws the multiplicative blind of the sign SFE, uniform in
// [1, 2^bits]. A caller may fold it into the coefficients of the linear
// combination it blinds instead of scaling the result: r ≤ 2^40 by the
// range check and the protocol's threshold numerators and denominators
// are ≤ 2^20 (arm.Rational), so r·λ ≤ 2^60 cannot overflow an int64 —
// core draws 16 bits, leaving r·λd ≤ 2^36.
func BlindFactor(bits int, rng *rand.Rand) int64 {
	if bits < 1 || bits > 40 {
		panic("oblivious: blindBits out of range")
	}
	return rng.Int63n(1<<bits) + 1
}

// Blind multiplies an encrypted signed value by a fresh random
// positive scalar, hiding its magnitude but preserving its sign — the
// cheap ad-hoc sign-evaluation SFE of §5.1 (in place of a generic [9]
// circuit or the [12] oblivious-counter protocol): the broker blinds,
// the controller decrypts and reveals only the sign. blindBits
// controls the blinding range [1, 2^blindBits].
func Blind(pub homo.Public, c *homo.Ciphertext, blindBits int, rng *rand.Rand) *homo.Ciphertext {
	return pub.ScalarMul(BlindFactor(blindBits, rng), c)
}

// SignOf decrypts a (blinded) value and returns its sign: −1, 0, +1.
func SignOf(dec homo.Decryptor, c *homo.Ciphertext) int {
	return dec.DecryptSigned(c).Sign()
}
