// Package fixedbase implements windowed fixed-base modular
// exponentiation: when the same base is raised to many different
// exponents — Paillier's precomputed-noise base — a one-time table of
// base^(d·2^(w·i)) turns every subsequent exponentiation into at most
// ceil(maxBits/w) modular multiplications, eliminating the squarings a
// general square-and-multiply pays.
//
// For a 1024-bit exponent with the default 4-bit window that is ≤256
// multiplications instead of ~1280 multiply/square steps, a 4–6×
// speedup per exponentiation at ~1 MB of table per 2048-bit modulus.
// The table is immutable after construction and safe for concurrent
// use.
package fixedbase

import "math/big"

var one = big.NewInt(1)

// Table holds the precomputed powers of one fixed base modulo one
// fixed modulus, for exponents up to a fixed bit length.
type Table struct {
	mod     *big.Int
	window  uint
	maxBits int
	// rows[i][d-1] = base^(d·2^(window·i)) mod mod for d ∈ [1, 2^window).
	rows [][]*big.Int
}

// New precomputes the table for base^e mod mod with e < 2^maxBits.
// window is the digit width in bits (0 selects the default of 4; the
// table holds ceil(maxBits/window)·(2^window − 1) residues, so widths
// above ~6 trade a lot of memory for few multiplications). base must
// lie in [0, mod) and mod must be positive.
func New(base, mod *big.Int, maxBits int, window uint) *Table {
	if mod == nil || mod.Sign() <= 0 {
		panic("fixedbase: modulus must be positive")
	}
	if base == nil || base.Sign() < 0 || base.Cmp(mod) >= 0 {
		panic("fixedbase: base out of range [0, mod)")
	}
	if maxBits < 1 {
		panic("fixedbase: maxBits must be positive")
	}
	if window == 0 {
		window = 4
	}
	t := &Table{mod: mod, window: window, maxBits: maxBits}
	digits := (maxBits + int(window) - 1) / int(window)
	span := int64(1) << window
	t.rows = make([][]*big.Int, digits)
	// cur = base^(2^(window·i)) at the top of each iteration.
	cur := new(big.Int).Set(base)
	for i := 0; i < digits; i++ {
		row := make([]*big.Int, span-1)
		row[0] = new(big.Int).Set(cur)
		for d := int64(1); d < span-1; d++ {
			row[d] = new(big.Int).Mul(row[d-1], cur)
			row[d].Mod(row[d], mod)
		}
		t.rows[i] = row
		// Advance cur to base^(2^(window·(i+1))) by squaring.
		for s := uint(0); s < window; s++ {
			cur.Mul(cur, cur)
			cur.Mod(cur, mod)
		}
	}
	return t
}

// MaxBits returns the largest exponent bit length the table covers.
func (t *Table) MaxBits() int { return t.maxBits }

// Exp returns base^e mod mod. e must be non-negative; exponents longer
// than maxBits fall back to math/big's general exponentiation (correct,
// just not accelerated).
func (t *Table) Exp(e *big.Int) *big.Int {
	if e.Sign() < 0 {
		panic("fixedbase: negative exponent")
	}
	if e.BitLen() > t.maxBits {
		// The base is recoverable from the first table row.
		return new(big.Int).Exp(t.rows[0][0], e, t.mod)
	}
	acc := new(big.Int).Set(one)
	for i := range t.rows {
		d := t.digit(e, uint(i)*t.window)
		if d == 0 {
			continue
		}
		acc.Mul(acc, t.rows[i][d-1])
		acc.Mod(acc, t.mod)
	}
	// The all-zero-digit exponent skips every reduction; mod 1 is the
	// one modulus where the unreduced empty product (1) is not already
	// a residue.
	return acc.Mod(acc, t.mod)
}

// digit extracts window bits of e starting at bit offset off.
func (t *Table) digit(e *big.Int, off uint) uint {
	var d uint
	for b := uint(0); b < t.window; b++ {
		if e.Bit(int(off+b)) == 1 {
			d |= 1 << b
		}
	}
	return d
}
