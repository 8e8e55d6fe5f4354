package paillier

import (
	"crypto/rand"
	"math/big"
)

// Encryption and rerandomization each consume one noise factor
// r^N mod N² — the dominant modular exponentiation on the accountant's
// hot path (every vote-count update re-encrypts two counters). The
// scheme draws it from a fixed-base table (noiseTable, on unless
// disabled): it samples one random unit h at first use, precomputes
// windowed powers of hᴺ mod N² in Montgomery form, and draws each
// online factor as (hᴺ)^a for random a < N — ceil(|N|/4) division-free
// Montgomery products instead of a full |N|-bit modular
// exponentiation, split in two halves over the worker pool when a core
// is idle (fixedbase.go).
//
// The table is an optimization only: operations remain correct (and the
// plaintexts identical) without it. Its trade-off is that noise units
// are drawn from the cyclic subgroup ⟨h⟩ rather than all of Z*_N — the
// standard precomputation compromise (cf. Paillier '99 §6 on shrinking
// the encryption workload); deployments wanting strictly uniform noise
// call UseFixedBaseNoise(false) and pay one inline |N|-bit modular
// exponentiation per factor.

// uniformNoise computes one factor from a uniform unit of Z*_N.
func (s *Scheme) uniformNoise() *big.Int {
	return new(big.Int).Exp(s.randomUnit(), s.pub.N, s.pub.N2)
}

// UseFixedBaseNoise toggles the fixed-base noise table (on by
// default). Disable to draw every inline factor from a uniform unit at
// full modular-exponentiation cost.
func (s *Scheme) UseFixedBaseNoise(enabled bool) { s.fbDisable.Store(!enabled) }

// noiseTable lazily builds the fixed-base table over hᴺ mod N².
func (s *Scheme) noiseTable() *fixedBase {
	s.fbOnce.Do(func() {
		h := s.randomUnit()
		hn := new(big.Int).Exp(h, s.pub.N, s.pub.N2)
		s.fbTable = newFixedBase(hn, s.pub.N2, s.pub.N.BitLen())
	})
	return s.fbTable
}

// withNoise returns x·rᴺ mod N² for x in [0, N²) and one fresh noise
// factor: (hᴺ)^a for uniform a ∈ [1, N), the product with x folded into
// the fixed-base table's last Montgomery product; or, with the table
// disabled, a uniform inline factor.
func (s *Scheme) withNoise(x *big.Int) *big.Int {
	if s.fbDisable.Load() {
		t := scratch.Get().(*big.Int)
		v := new(big.Int).Mod(t.Mul(x, s.uniformNoise()), s.pub.N2)
		scratch.Put(t)
		return v
	}
	for {
		a, err := rand.Int(rand.Reader, s.pub.N)
		if err != nil {
			panic("paillier: crypto/rand failure: " + err.Error())
		}
		if a.Sign() != 0 {
			return s.noiseTable().expMul(a, x)
		}
	}
}
