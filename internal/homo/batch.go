package homo

import "math/big"

// Batch capability: n fresh encryptions of zero in one call. Oblivious
// counters start life as vectors of E(0) (sum, count, num, share, one
// stamp per neighbour), and that burst is the one vector operation
// whose elements are expensive enough to fan out: Paillier computes
// them over the shared worker pool (workers.go), Shamir draws their
// randomness in one pass. The Plain stand-in does not implement it —
// its ~100 ns operations ride the serial fallback.
//
// The capability is optional: EncryptZeroVec accepts any Public and
// falls back to an elementwise loop, and the two must decrypt alike
// (enforced by the cross-check tests in batch_test.go).

// BatchPublic is the key-less batch capability. Implementations must
// be safe for concurrent use.
type BatchPublic interface {
	Public
	// EncryptZeroVec returns n fresh encryptions of zero.
	EncryptZeroVec(n int) []*Ciphertext
}

// BatchScheme is a Scheme with the batch capability.
type BatchScheme interface {
	Scheme
	BatchPublic
}

// EncryptZeroVec returns n fresh encryptions of zero, batched when pub
// supports it.
func EncryptZeroVec(pub Public, n int) []*Ciphertext {
	if bp, ok := pub.(BatchPublic); ok {
		return bp.EncryptZeroVec(n)
	}
	out := make([]*Ciphertext, n)
	for i := range out {
		out[i] = pub.EncryptZero()
	}
	return out
}

// The elementwise helpers below are serial loops over the scalar
// operations: no scheme gains from batching them.

// AddVec returns the elementwise sum of two equal-length ciphertext
// vectors.
func AddVec(pub Public, a, b []*Ciphertext) []*Ciphertext {
	if len(a) != len(b) {
		panic("homo: AddVec length mismatch")
	}
	out := make([]*Ciphertext, len(a))
	for i := range a {
		out[i] = pub.Add(a[i], b[i])
	}
	return out
}

// RerandomizeVec refreshes every ciphertext.
func RerandomizeVec(pub Public, xs []*Ciphertext) []*Ciphertext {
	out := make([]*Ciphertext, len(xs))
	for i := range xs {
		out[i] = pub.Rerandomize(xs[i])
	}
	return out
}

// ScalarVec returns elementwise ms[i] ∗ xs[i].
func ScalarVec(pub Public, ms []int64, xs []*Ciphertext) []*Ciphertext {
	if len(ms) != len(xs) {
		panic("homo: ScalarVec length mismatch")
	}
	out := make([]*Ciphertext, len(xs))
	for i := range xs {
		out[i] = pub.ScalarMul(ms[i], xs[i])
	}
	return out
}

// EncryptVec encrypts every plaintext.
func EncryptVec(enc Encryptor, ms []*big.Int) []*Ciphertext {
	out := make([]*Ciphertext, len(ms))
	for i := range ms {
		out[i] = enc.Encrypt(ms[i])
	}
	return out
}
