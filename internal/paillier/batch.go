package paillier

import (
	"math/big"

	"secmr/internal/homo"
)

// Batch capability (homo.BatchScheme): the expensive vector operations
// (Encrypt, EncryptZero, Rerandomize — modular exponentiations) fan
// their elementwise big.Int work out over the shared homo worker pool.
// All Scheme operations are already safe for concurrent use (immutable
// keys, sync.Pool scratch, a once-built noise table), so each element
// simply runs the serial operation on a worker; outputs land at their
// input's index, making the batch plaintext-identical to the serial
// loop. The cheap ones (Add, ScalarMul — a few modular multiplications)
// are plain loops: a counter is 4 + degree ciphertexts, far too short
// to repay a dispatch.

// EncryptVec encrypts every plaintext in parallel.
func (s *Scheme) EncryptVec(ms []*big.Int) []*homo.Ciphertext {
	out := make([]*homo.Ciphertext, len(ms))
	homo.ParallelFor(len(ms), func(i int) { out[i] = s.Encrypt(ms[i]) })
	return out
}

// AddVec returns the elementwise homomorphic sum.
func (s *Scheme) AddVec(a, b []*homo.Ciphertext) []*homo.Ciphertext {
	if len(a) != len(b) {
		panic("paillier: AddVec length mismatch")
	}
	out := make([]*homo.Ciphertext, len(a))
	for i := range a {
		out[i] = s.Add(a[i], b[i])
	}
	return out
}

// RerandomizeVec refreshes every ciphertext in parallel.
func (s *Scheme) RerandomizeVec(xs []*homo.Ciphertext) []*homo.Ciphertext {
	out := make([]*homo.Ciphertext, len(xs))
	homo.ParallelFor(len(xs), func(i int) { out[i] = s.Rerandomize(xs[i]) })
	return out
}

// ScalarVec returns elementwise ms[i] ∗ xs[i].
func (s *Scheme) ScalarVec(ms []int64, xs []*homo.Ciphertext) []*homo.Ciphertext {
	if len(ms) != len(xs) {
		panic("paillier: ScalarVec length mismatch")
	}
	out := make([]*homo.Ciphertext, len(xs))
	for i := range xs {
		out[i] = s.ScalarMul(ms[i], xs[i])
	}
	return out
}

// EncryptZeroVec returns n fresh encryptions of zero in parallel.
func (s *Scheme) EncryptZeroVec(n int) []*homo.Ciphertext {
	out := make([]*homo.Ciphertext, n)
	homo.ParallelFor(n, func(i int) { out[i] = s.EncryptZero() })
	return out
}

var _ homo.BatchScheme = (*Scheme)(nil)
