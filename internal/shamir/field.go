// Package shamir implements Shamir secret sharing over the 64-bit
// Mersenne prime field GF(2^61−1) — the raw-speed ceiling for the
// oblivious counter hot path (ROADMAP: "constant-time share adds
// instead of modular exponentiation").
//
// A secret is hidden in a random polynomial and dealt as n
// field-element shares, one per member of a share-holding committee.
// Share addition is componentwise field addition — a handful of uint64
// adds instead of a 2048-bit modular multiplication — and any K−1
// shares are statistically independent of the secret
// (information-theoretic hiding), while any K shares reconstruct
// exactly. That k-of-n threshold is
// matched to the protocol's k-gate by the homo.Scheme adapter in
// scheme.go; this file is the field kernel: branch-light scalar
// arithmetic and flat []uint64 batch loops the compiler can keep in
// registers.
//
// The approach follows the additive/secret-sharing line of Bickson et
// al., "Peer-to-Peer Secure Multi-Party Numerical Computation"
// (arXiv:0810.1624) and its malicious-adversary follow-up
// (arXiv:0901.2689): for grid-scale aggregation, information-theoretic
// sharing replaces public-key homomorphic operations entirely.
package shamir

import "math/bits"

// P is the field modulus 2^61 − 1 (a Mersenne prime). Every share and
// every plaintext is a residue in [0, P).
//
// 2^61−1 is chosen over a general 64-bit prime because reduction after
// multiplication is two shifts and two adds (2^61 ≡ 1), sums of two
// residues never overflow uint64 (P < 2^62), and the plaintext space
// ≈ 2.3·10^18 dwarfs every counter the protocol aggregates.
const P uint64 = 1<<61 - 1

// fieldAdd returns a+b mod P. Inputs must be reduced residues.
func fieldAdd(a, b uint64) uint64 {
	s := a + b // < 2^63: no overflow for reduced inputs
	if s >= P {
		s -= P
	}
	return s
}

// fieldSub returns a−b mod P. Inputs must be reduced residues.
func fieldSub(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + P - b
}

// fieldMul returns a·b mod P via one 64×64→128 multiply and the
// Mersenne folding 2^64 ≡ 8, 2^61 ≡ 1 (mod P).
func fieldMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// hi < P²/2^64 < 2^58, so 8·hi < 2^61: the fold cannot overflow.
	r := (lo & P) + (lo >> 61) + hi<<3
	r = (r & P) + (r >> 61)
	if r >= P {
		r -= P
	}
	return r
}

// fieldPow returns a^e mod P by square-and-multiply.
func fieldPow(a, e uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = fieldMul(r, a)
		}
		a = fieldMul(a, a)
	}
	return r
}

// fieldInv returns a^(−1) mod P (Fermat). a must be nonzero.
func fieldInv(a uint64) uint64 {
	if a == 0 {
		panic("shamir: inverse of zero")
	}
	return fieldPow(a, P-2)
}

// fieldReduce maps an arbitrary uint64 into [0, P).
func fieldReduce(x uint64) uint64 {
	r := (x & P) + (x >> 61)
	if r >= P {
		r -= P
	}
	return r
}

// fieldEncodeInt64 maps a signed integer to its residue in [0, P).
func fieldEncodeInt64(m int64) uint64 {
	if m >= 0 {
		return fieldReduce(uint64(m))
	}
	return fieldSub(0, fieldReduce(uint64(-m)))
}

// hornerEval evaluates the polynomial with the given coefficients
// (constant term first) at x, by Horner's rule. Coefficients must be
// reduced residues.
func hornerEval(coeffs []uint64, x uint64) uint64 {
	r := uint64(0)
	for i := len(coeffs) - 1; i >= 0; i-- {
		r = fieldAdd(fieldMul(r, x), coeffs[i])
	}
	return r
}

// AddSlices sets dst[i] = a[i] + b[i] mod P for every i — the batched
// share-add kernel. All three slices must have equal length; dst may
// alias a or b. The loop is branch-light and bounds-check-eliminated
// so the compiler can unroll/vectorize it.
func AddSlices(dst, a, b []uint64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("shamir: AddSlices length mismatch")
	}
	for i := range dst {
		s := a[i] + b[i]
		if s >= P {
			s -= P
		}
		dst[i] = s
	}
}

// SubSlices sets dst[i] = a[i] − b[i] mod P for every i.
func SubSlices(dst, a, b []uint64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("shamir: SubSlices length mismatch")
	}
	for i := range dst {
		dst[i] = fieldSub(a[i], b[i])
	}
}

// ScaleSlice sets dst[i] = m·a[i] mod P for every i.
func ScaleSlice(dst, a []uint64, m uint64) {
	if len(dst) != len(a) {
		panic("shamir: ScaleSlice length mismatch")
	}
	for i := range dst {
		dst[i] = fieldMul(a[i], m)
	}
}

// Dot returns Σ a[i]·b[i] mod P — the share-combine kernel: with a a
// precomputed Lagrange reconstruction vector and b a share slice, Dot
// is one secret's reconstruction.
func Dot(a, b []uint64) uint64 {
	if len(a) != len(b) {
		panic("shamir: Dot length mismatch")
	}
	acc := uint64(0)
	for i := range a {
		acc = fieldAdd(acc, fieldMul(a[i], b[i]))
	}
	return acc
}
