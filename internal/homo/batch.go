package homo

import "math/big"

// Batch capability: vectorized homomorphic operations. Oblivious
// counters are vectors of ciphertexts (sum, count, num, share, one
// stamp per neighbour), so every counter transfer performs a burst of
// independent per-slot operations; a scheme implementing the batch
// interfaces may execute each burst over the shared worker pool
// (workers.go) instead of serially.
//
// The capability is optional: the package-level *Vec helpers accept any
// Public/Encryptor and fall back to an elementwise serial loop, so
// protocol code written against the helpers runs unchanged over schemes
// that never opted in. Results are plaintext-identical either way: a
// batch operation must decrypt to exactly what its serial counterpart
// would (enforced by the cross-check tests in batch_test.go).
//
// Paillier implements the capability and parallelizes the operations
// that are modular exponentiations (encrypt, encrypt-zero,
// rerandomize), far above dispatch overhead. Shamir implements it as
// plain loops over its field kernels; the Plain stand-in deliberately
// does not — its ~100 ns operations ride the serial fallback.

// BatchPublic is the key-less batch capability: elementwise vector
// forms of the Public operations. Implementations must be safe for
// concurrent use and must never mutate their arguments.
type BatchPublic interface {
	Public
	// AddVec returns the elementwise homomorphic sum; a and b must have
	// equal length.
	AddVec(a, b []*Ciphertext) []*Ciphertext
	// RerandomizeVec refreshes every ciphertext.
	RerandomizeVec(xs []*Ciphertext) []*Ciphertext
	// ScalarVec returns elementwise m[i] ∗ x[i]; ms and xs must have
	// equal length.
	ScalarVec(ms []int64, xs []*Ciphertext) []*Ciphertext
	// EncryptZeroVec returns n fresh encryptions of zero.
	EncryptZeroVec(n int) []*Ciphertext
}

// BatchEncryptor is the accountant-side batch capability.
type BatchEncryptor interface {
	Encryptor
	// EncryptVec encrypts every plaintext.
	EncryptVec(ms []*big.Int) []*Ciphertext
}

// BatchScheme bundles the batch capabilities a fully batch-capable
// scheme provides on top of Scheme.
type BatchScheme interface {
	Scheme
	BatchPublic
	BatchEncryptor
}

// AddVec returns the elementwise sum of two equal-length ciphertext
// vectors, batched when pub supports it.
func AddVec(pub Public, a, b []*Ciphertext) []*Ciphertext {
	if len(a) != len(b) {
		panic("homo: AddVec length mismatch")
	}
	if bp, ok := pub.(BatchPublic); ok {
		return bp.AddVec(a, b)
	}
	out := make([]*Ciphertext, len(a))
	for i := range a {
		out[i] = pub.Add(a[i], b[i])
	}
	return out
}

// RerandomizeVec refreshes every ciphertext, batched when pub supports
// it.
func RerandomizeVec(pub Public, xs []*Ciphertext) []*Ciphertext {
	if bp, ok := pub.(BatchPublic); ok {
		return bp.RerandomizeVec(xs)
	}
	out := make([]*Ciphertext, len(xs))
	for i := range xs {
		out[i] = pub.Rerandomize(xs[i])
	}
	return out
}

// ScalarVec returns elementwise ms[i] ∗ xs[i], batched when pub
// supports it.
func ScalarVec(pub Public, ms []int64, xs []*Ciphertext) []*Ciphertext {
	if len(ms) != len(xs) {
		panic("homo: ScalarVec length mismatch")
	}
	if bp, ok := pub.(BatchPublic); ok {
		return bp.ScalarVec(ms, xs)
	}
	out := make([]*Ciphertext, len(xs))
	for i := range xs {
		out[i] = pub.ScalarMul(ms[i], xs[i])
	}
	return out
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

// EncryptVec encrypts every plaintext, batched when enc supports it.
func EncryptVec(enc Encryptor, ms []*big.Int) []*Ciphertext {
	if be, ok := enc.(BatchEncryptor); ok {
		return be.EncryptVec(ms)
	}
	out := make([]*Ciphertext, len(ms))
	for i := range ms {
		out[i] = enc.Encrypt(ms[i])
	}
	return out
}
