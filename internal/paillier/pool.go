package paillier

import (
	"crypto/rand"
	"math/big"

	"secmr/internal/randpool"
)

// Encryption and rerandomization each consume one noise factor
// r^N mod N² — the dominant modular exponentiation on the accountant's
// hot path (every vote-count update re-encrypts two counters). Two
// complementary accelerations exist:
//
//   - a precomputed-randomness pool (StartNoisePool, built on the
//     scheme-agnostic internal/randpool): background workers keep
//     uniformly-drawn factors ready so the protocol thread only
//     multiplies. Needs spare cores; on a single-CPU host the workers
//     compete with the protocol thread and the pool is a wash.
//
//   - a fixed-base table (noiseTable, always on unless disabled): the
//     scheme samples one random unit h at first use, precomputes
//     windowed powers of hᴺ mod N² in Montgomery form, and draws each
//     online factor as (hᴺ)^a for random a < N — ceil(|N|/4)
//     division-free Montgomery products instead of a full |N|-bit
//     modular exponentiation, split in two halves over the worker pool
//     when a core is idle (fixedbase.go).
//
// Both are optimizations only: operations remain correct (and the
// plaintexts identical) with neither. The fixed-base trade-off is that
// noise units are drawn from the cyclic subgroup ⟨h⟩ rather than all of
// Z*_N — the standard precomputation compromise (cf. Paillier '99 §6 on
// shrinking the encryption workload); deployments wanting strictly
// uniform noise call UseFixedBaseNoise(false) and rely on the pool.

// StartNoisePool launches `workers` background goroutines keeping up
// to `buffer` precomputed uniform noise factors ready. It returns a
// stop function; calling it (once) drains the workers. Starting a
// second pool replaces the first (the old one must be stopped by its
// own stop function).
func (s *Scheme) StartNoisePool(buffer, workers int) (stop func()) {
	p := randpool.New(buffer, workers, s.uniformNoise)
	s.poolMu.Lock()
	s.pool = p
	s.poolMu.Unlock()
	return func() {
		p.Stop()
		s.poolMu.Lock()
		if s.pool == p {
			s.pool = nil
		}
		s.poolMu.Unlock()
	}
}

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
// factor: a pooled factor when one is ready; otherwise (hᴺ)^a for
// uniform a ∈ [1, N), the product with x folded into the fixed-base
// table's last Montgomery product; or, with the table disabled, a
// uniform inline factor. Never blocks.
func (s *Scheme) withNoise(x *big.Int) *big.Int {
	s.poolMu.RLock()
	p := s.pool
	s.poolMu.RUnlock()
	var r *big.Int
	if p != nil {
		r, _ = p.Get()
	}
	if r == nil && s.fbDisable.Load() {
		r = s.uniformNoise()
	}
	if r != nil {
		t := scratch.Get().(*big.Int)
		v := new(big.Int).Mod(t.Mul(x, r), s.pub.N2)
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
