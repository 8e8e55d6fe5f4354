package paillier

import (
	"math/big"
	"math/bits"
	"sync"

	"secmr/internal/homo"
)

// fixedBase is Lim–Lee comb exponentiation ("More Flexible
// Exponentiation with Precomputation", CRYPTO '94) modulo one odd
// modulus, in Montgomery arithmetic: the same base (Paillier's noise
// base hᴺ mod N²) is raised to many different exponents, so a one-time
// table turns each exponentiation into a few squarings and about
// maxBits/h multiplications.
//
// An exponent below 2^maxBits is cut into h blocks of a bits, each
// block into sub-blocks of b bits; column j holds, for every nonzero
// h-bit index u, the product Π_i base^(u_i·2^(i·a + j·b)). A draw walks
// the sub-block bits k from b−1 down to 0: one squaring, then one
// multiplication per column by the entry whose index is bit k of
// column j in each block. A 1024-bit exponent (h = 8, a = 128, b = 8,
// 16 columns of 255 entries) costs ≤ 7 squarings and ≤ 128
// multiplications instead of ~1280 multiply/square steps; combShape
// picks the shape for other sizes.
//
// Every multiplication is a Montgomery product (REDC with radix
// R = 2^(W·n), W = bits.UintSize, n the modulus length in words): three
// n×n-word products, an add and a shift, no division; a squaring is the
// same with math/big's sqr path for the first product. The entries are
// stored in Montgomery form (x·R mod m) and built with Montgomery
// products, so set-up converts only the base; the one REDC that leaves
// the domain is the product with the caller's plain multiplier at the
// end. Results are exact residues, bit-identical to big.Int.Exp. The
// table is immutable after construction and safe for concurrent use;
// per-call scratch comes from a sync.Pool.
type fixedBase struct {
	base    *big.Int // plain base, for exponents past maxBits
	mod     *big.Int // odd modulus m > 1
	minv    *big.Int // −m⁻¹ mod R
	words   int      // n: the modulus length in words, R = 2^(W·n)
	maxBits int
	// The comb's shape: h blocks of a bits, sub-blocks of b bits, cols
	// columns (cols·b ≥ a; the last column may be short).
	h, a, b, cols int
	// entries[j·(2^h−1) + u−1] = Montgomery form of column j's product
	// for index u ∈ [1, 2^h). The words of all entries share one
	// backing array.
	entries []big.Int
}

const (
	combH = 8             // most blocks: a column holds 2^combH − 1 entries
	combV = 16            // most columns
	wbits = bits.UintSize // the Montgomery radix's word width
)

// combShape picks the comb for exponents below 2^maxBits: the fewest
// products per draw (a multiplications and b−1 squarings) over h ≤
// combH blocks and v ≤ combV columns, with a table no larger than a
// 4-bit window's ceil(maxBits/4)·15 entries plus 10 %; ties go to the
// smaller table. Every block holds at least one bit below maxBits. At
// maxBits 1024 it is h = 8, a = 128, b = 8, 16 columns (4,080 entries
// against the window's 3,840).
func combShape(maxBits int) (h, a, b, cols int) {
	budget := 11 * 15 * ((maxBits + 3) / 4) / 10
	best, bestSize := -1, 0
	for hh := 1; hh <= combH; hh++ {
		aa := (maxBits + hh - 1) / hh
		if (hh-1)*aa >= maxBits {
			continue // block hh−1 would be empty: a shape with fewer blocks covers it
		}
		for v := 1; v <= combV; v++ {
			bb := (aa + v - 1) / v
			cc := (aa + bb - 1) / bb
			size := cc * (1<<hh - 1)
			if size > budget {
				break
			}
			if cost := aa + bb - 1; best < 0 || cost < best || cost == best && size < bestSize {
				best, bestSize = cost, size
				h, a, b, cols = hh, aa, bb, cc
			}
		}
	}
	return h, a, b, cols
}

// montScratch holds one Montgomery product's intermediates and one
// half-product accumulator.
type montScratch struct {
	acc, t, q, lo big.Int
}

// expScratch is one exponentiation's scratch: one montScratch per half
// of the columns, so the halves can run on two goroutines.
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
	t.h, t.a, t.b, t.cols = combShape(maxBits)
	span := 1<<t.h - 1
	t.entries = make([]big.Int, t.cols*span)
	store := make([]big.Word, t.cols*span*n)
	put := func(k int, x *big.Int) {
		w := store[k*n : (k+1)*n : (k+1)*n]
		copy(w, x.Bits())
		t.entries[k].SetBits(w)
	}
	var s montScratch
	// The single-bit entries: base^(2^(i·a + j·b)) for block i and
	// column j, read off one squaring chain in increasing bit order.
	// cur = Montgomery form of base^(2^p): the one conversion into the
	// domain.
	cur := new(big.Int).Lsh(base, uint(n*wbits))
	cur.Mod(cur, mod)
	p := 0
	for i := 0; i < t.h; i++ {
		for j := 0; j < t.cols; j++ {
			for ; p < i*t.a+j*t.b; p++ {
				t.mul(cur, cur, cur, &s)
			}
			put(j*span+1<<i-1, cur)
		}
	}
	// Every other entry: the entry without u's top bit times the top
	// bit's entry, one Montgomery product each.
	for j := 0; j < t.cols; j++ {
		col := t.entries[j*span : (j+1)*span]
		for u := 3; u <= span; u++ {
			top := 1 << (bits.Len(uint(u)) - 1)
			if u == top {
				continue
			}
			t.mul(&s.acc, &col[u-top-1], &col[top-1], &s)
			put(j*span+u-1, &s.acc)
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
// product; a == b squares. z may be a or b.
func (t *fixedBase) mul(z, a, b *big.Int, s *montScratch) {
	s.t.Mul(a, b)
	t.redc(z, &s.t, s)
}

// index returns the comb index at bit offset off of every block of the
// exponent words ws: bit off of block i is bit i of the index.
func (t *fixedBase) index(ws []big.Word, off int) int {
	u := 0
	for i, p := 0, off; i < t.h; i, p = i+1, p+t.a {
		if w := p / wbits; w < len(ws) {
			u |= int(ws[w]>>(uint(p)%wbits)&1) << i
		}
	}
	return u
}

// half multiplies the entries selected by columns [from, to) of ws into
// s.acc (Montgomery form) and reports whether any index was nonzero.
func (t *fixedBase) half(ws []big.Word, from, to int, s *montScratch) bool {
	span := 1<<t.h - 1
	ok := false
	for k := t.b - 1; k >= 0; k-- {
		if ok {
			t.mul(&s.acc, &s.acc, &s.acc, s)
		}
		for j := from; j < to && j*t.b+k < t.a; j++ {
			u := t.index(ws, j*t.b+k)
			if u == 0 {
				continue
			}
			e := &t.entries[j*span+u-1]
			if !ok {
				s.acc.Set(e)
				ok = true
				continue
			}
			t.mul(&s.acc, &s.acc, e, s)
		}
	}
	return ok
}

// expMul returns base^e · x mod m for e ≥ 0 and x in [0, m). The comb
// is split by columns into two halves on the homo worker pool (inline
// at GOMAXPROCS 1, or when no worker is idle), each with its own
// squarings, joined by one Montgomery product; multiplying the plain x
// in is the REDC that leaves the domain. Exponents longer than maxBits
// fall back to math/big's general exponentiation of the plain base.
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
	ws := e.Bits()
	var ok [2]bool
	homo.ParallelFor(2, func(h int) {
		from, to := 0, t.cols/2
		if h == 1 {
			from, to = t.cols/2, t.cols
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
