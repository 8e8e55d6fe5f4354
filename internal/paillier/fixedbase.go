package paillier

import (
	"math/big"
	"math/bits"
	"sync"

	"secmr/internal/homo"
)

// fixedBase is windowed fixed-base exponentiation modulo one odd
// modulus, in Montgomery arithmetic: the same base (Paillier's noise
// base hᴺ mod N²) is raised to many different exponents, so a one-time
// table of base^(d·16^i) turns each exponentiation into at most
// ceil(maxBits/4) modular multiplications and no squarings — ≤ 256
// for a 1024-bit exponent instead of ~1280 multiply/square steps.
//
// Every multiplication is a Montgomery product (REDC with radix
// R = 2^(W·n), W = bits.UintSize, n the modulus length in words): three
// n×n-word products, an add and a shift, no division. The rows are
// stored in Montgomery form (x·R mod m) and built with Montgomery
// products from the first row on, so set-up converts only the base;
// the one REDC that leaves the domain is the product with the caller's
// plain multiplier at the end. Results are exact residues, bit-identical
// to big.Int.Exp. The table is immutable after construction and safe
// for concurrent use; per-call scratch comes from a sync.Pool.
type fixedBase struct {
	base    *big.Int // plain base, for exponents past maxBits
	mod     *big.Int // odd modulus m > 1
	minv    *big.Int // −m⁻¹ mod R
	words   int      // n: the modulus length in words, R = 2^(W·n)
	maxBits int
	// rows[i·span + d−1] = Montgomery form of base^(d·16^i), for
	// d ∈ [1, 16). The words of all rows share one backing array.
	rows []big.Int
}

const (
	window = 4             // exponent digit width in bits; divides wbits
	span   = 1<<window - 1 // table entries per digit, and the digit mask
	wbits  = bits.UintSize // the Montgomery radix's word width
)

// montScratch holds one Montgomery product's intermediates and one
// half-product accumulator.
type montScratch struct {
	acc, t, q, lo big.Int
}

// expScratch is one exponentiation's scratch: one montScratch per half
// of the digit product, so the halves can run on two goroutines.
type expScratch struct{ half [2]montScratch }

var expScratchPool = sync.Pool{New: func() any { return new(expScratch) }}

// newFixedBase precomputes the table for base^e mod mod with
// e < 2^maxBits. mod must be odd and greater than 1, base in [0, mod).
func newFixedBase(base, mod *big.Int, maxBits int) *fixedBase {
	if mod == nil || mod.Bit(0) != 1 || mod.Cmp(one) <= 0 {
		panic("paillier: fixed-base modulus must be odd and > 1")
	}
	if base == nil || base.Sign() < 0 || base.Cmp(mod) >= 0 {
		panic("paillier: fixed-base base out of range [0, mod)")
	}
	if maxBits < 1 {
		panic("paillier: fixed-base maxBits must be positive")
	}
	n := len(mod.Bits())
	r := new(big.Int).Lsh(one, uint(n*wbits))
	minv := new(big.Int).ModInverse(mod, r)
	t := &fixedBase{
		base: new(big.Int).Set(base), mod: mod, minv: minv.Sub(r, minv),
		words: n, maxBits: maxBits,
	}
	digits := (maxBits + window - 1) / window
	t.rows = make([]big.Int, digits*span)
	store := make([]big.Word, digits*span*n)
	var s montScratch
	// cur = Montgomery form of base^(16^i) at the top of each iteration:
	// the one conversion into the domain.
	cur := new(big.Int).Lsh(base, uint(n*wbits))
	cur.Mod(cur, mod)
	x := &s.acc
	for i := 0; i < digits; i++ {
		x.Set(cur)
		for d := 0; d < span; d++ {
			if d > 0 {
				t.mul(x, x, cur, &s)
			}
			k := i*span + d
			w := store[k*n : (k+1)*n : (k+1)*n]
			copy(w, x.Bits())
			t.rows[k].SetBits(w)
		}
		for sq := 0; sq < window; sq++ {
			t.mul(cur, cur, cur, &s)
		}
	}
	return t
}

// low returns x's words below the radix: x mod R, as a view.
func (t *fixedBase) low(x *big.Int) []big.Word {
	w := x.Bits()
	if len(w) > t.words {
		w = w[:t.words]
	}
	return w
}

// redc sets z = x·R⁻¹ mod m for 0 ≤ x < m·R. z must not be x, s.lo or
// s.q.
func (t *fixedBase) redc(z, x *big.Int, s *montScratch) {
	s.lo.SetBits(t.low(x)) // a read-only view of x's low words
	s.q.Mul(&s.lo, t.minv)
	s.q.SetBits(t.low(&s.q)) // q = (x mod R)·(−m⁻¹) mod R
	z.Mul(&s.q, t.mod)
	z.Add(z, x) // ≡ 0 mod R
	z.Rsh(z, uint(t.words*wbits))
	if z.Cmp(t.mod) >= 0 {
		z.Sub(z, t.mod)
	}
}

// mul sets z = a·b·R⁻¹ mod m for a, b in [0, m) — the Montgomery
// product. z may be a or b.
func (t *fixedBase) mul(z, a, b *big.Int, s *montScratch) {
	s.t.Mul(a, b)
	t.redc(z, &s.t, s)
}

// digit returns the i-th window-bit digit of the exponent words ws.
func digit(ws []big.Word, i int) big.Word {
	off := i * window
	w := off / wbits
	if w >= len(ws) {
		return 0
	}
	return ws[w] >> (uint(off) % wbits) & span
}

// half multiplies the rows selected by digits [from, to) of ws into
// s.acc (Montgomery form) and reports whether any digit was nonzero.
func (t *fixedBase) half(ws []big.Word, from, to int, s *montScratch) bool {
	ok := false
	for i := from; i < to; i++ {
		d := digit(ws, i)
		if d == 0 {
			continue
		}
		row := &t.rows[i*span+int(d)-1]
		if !ok {
			s.acc.Set(row)
			ok = true
			continue
		}
		t.mul(&s.acc, &s.acc, row, s)
	}
	return ok
}

// expMul returns base^e · x mod m for e ≥ 0 and x in [0, m). The digit
// product is split into two halves on the homo worker pool (inline at
// GOMAXPROCS 1, or when no worker is idle), joined by one Montgomery
// product; multiplying the plain x in is the REDC that leaves the
// domain. Exponents longer than maxBits fall back to math/big's general
// exponentiation of the plain base.
func (t *fixedBase) expMul(e, x *big.Int) *big.Int {
	if e.Sign() < 0 {
		panic("paillier: negative fixed-base exponent")
	}
	if e.BitLen() > t.maxBits {
		z := new(big.Int).Exp(t.base, e, t.mod)
		return z.Mod(z.Mul(z, x), t.mod)
	}
	s := expScratchPool.Get().(*expScratch)
	defer expScratchPool.Put(s)
	ws, digits := e.Bits(), (t.maxBits+window-1)/window
	var ok [2]bool
	homo.ParallelFor(2, func(h int) {
		from, to := 0, digits/2
		if h == 1 {
			from, to = digits/2, digits
		}
		ok[h] = t.half(ws, from, to, &s.half[h])
	})
	a, b := &s.half[0], &s.half[1]
	acc := &a.acc
	switch {
	case ok[0] && ok[1]:
		t.mul(acc, acc, &b.acc, a)
	case ok[1]:
		acc = &b.acc
	case !ok[0]:
		return new(big.Int).Set(x) // e = 0
	}
	t.mul(&a.t, acc, x, b)
	return new(big.Int).Set(&a.t)
}
