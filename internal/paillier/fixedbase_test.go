package paillier

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// exp returns base^e mod m.
func (t *fixedBase) exp(e *big.Int) *big.Int { return t.expMul(e, one) }

// oddModulus draws a random odd modulus of exactly bits bits (bits ≥ 2).
func oddModulus(rng *rand.Rand, bits int) *big.Int {
	m := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(bits-1)))
	m.SetBit(m, bits-1, 1)
	return m.SetBit(m, 0, 1)
}

// edgeExponents lists {0, 1, 2^k ± 1, all-ones, random} below 2^maxBits,
// plus mod−1 when it fits.
func edgeExponents(rng *rand.Rand, mod *big.Int, maxBits int) []*big.Int {
	es := []*big.Int{big.NewInt(0), big.NewInt(1)}
	for _, k := range []int{1, 3, 4, 5, 31, 32, 33, 63, 64, 65, maxBits / 2, maxBits - 1, maxBits} {
		if k < 1 || k > maxBits {
			continue
		}
		p := new(big.Int).Lsh(one, uint(k))
		es = append(es, new(big.Int).Sub(p, one)) // 2^k − 1; all-ones at k = maxBits
		if k < maxBits {
			es = append(es, p, new(big.Int).Add(p, one))
		}
	}
	if m1 := new(big.Int).Sub(mod, one); m1.BitLen() <= maxBits {
		es = append(es, m1)
	}
	for i := 0; i < 4; i++ {
		es = append(es, new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(maxBits))))
	}
	return es
}

// checkTable holds exp and expMul against big.Int.Exp for every
// exponent.
func checkTable(t *testing.T, tab *fixedBase, base, mod *big.Int, es []*big.Int, x *big.Int) {
	t.Helper()
	for _, e := range es {
		want := new(big.Int).Exp(base, e, mod)
		if got := tab.exp(e); got.Cmp(want) != 0 {
			t.Fatalf("mod=%v base=%v e=%v: exp %v, want %v", mod, base, e, got, want)
		}
		want.Mod(want.Mul(want, x), mod)
		if got := tab.expMul(e, x); got.Cmp(want) != 0 {
			t.Fatalf("mod=%v base=%v e=%v x=%v: expMul %v, want %v", mod, base, e, x, got, want)
		}
	}
}

// TestNoiseTableAgainstBigExp cross-checks the table against math/big
// over random odd moduli of one to several words, including the
// 2048-bit size of a Paillier-1024 N², random bases and random
// exponents.
func TestNoiseTableAgainstBigExp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []int{2, 3, 17, 61, 64, 65, 127, 200, 2048} {
		for trial := 0; trial < 3; trial++ {
			mod := oddModulus(rng, bits)
			base := new(big.Int).Rand(rng, mod)
			maxBits := bits/2 + 1
			tab := newFixedBase(base, mod, maxBits)
			var es []*big.Int
			for i := 0; i < 12; i++ {
				es = append(es, new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(maxBits))))
			}
			checkTable(t, tab, base, mod, es, new(big.Int).Rand(rng, mod))
		}
	}
}

// TestNoiseTableEdgeExponents pins {0, 1, 2^k ± 1, m−1, all-ones} on
// small and multi-word moduli, and on a real scheme's noise table with
// exponent N−1.
func TestNoiseTableEdgeExponents(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, bits := range []int{20, 64, 130, 1024} {
		mod := oddModulus(rng, bits)
		base := new(big.Int).Rand(rng, mod)
		for _, maxBits := range []int{bits / 2, bits} {
			tab := newFixedBase(base, mod, maxBits)
			checkTable(t, tab, base, mod, edgeExponents(rng, mod, maxBits), big.NewInt(1))
		}
	}
	s := testScheme
	tab := s.noiseTable()
	n1 := new(big.Int).Sub(s.pub.N, one)
	checkTable(t, tab, tab.base, s.pub.N2, append(edgeExponents(rng, s.pub.N, s.pub.N.BitLen()), n1), n1)
}

// TestNoiseTableRowsInMontgomeryForm pins the stored representation:
// entry u−1 of column j is Π_i base^(u_i·2^(i·a + j·b))·R mod m, and one
// REDC takes it out of the domain. maxBits 33 gives a comb whose blocks
// overrun maxBits (h·a > 33) and whose last column is short (cols·b > a).
func TestNoiseTableRowsInMontgomeryForm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mod := oddModulus(rng, 150)
	base := new(big.Int).Rand(rng, mod)
	for _, maxBits := range []int{1, 9, 33, 64} {
		tab := newFixedBase(base, mod, maxBits)
		span := 1<<tab.h - 1
		if len(tab.entries) != tab.cols*span {
			t.Fatalf("maxBits %d: %d table entries, want %d", maxBits, len(tab.entries), tab.cols*span)
		}
		if maxBits == 33 && (tab.h*tab.a <= maxBits || tab.cols*tab.b <= tab.a) {
			t.Fatalf("maxBits 33: shape h=%d a=%d b=%d cols=%d no longer covers the ragged edges",
				tab.h, tab.a, tab.b, tab.cols)
		}
		r := new(big.Int).Lsh(one, uint(tab.words*wbits))
		var s montScratch
		for j := 0; j < tab.cols; j++ {
			for u := 1; u <= span; u++ {
				e := new(big.Int)
				for i := 0; i < tab.h; i++ {
					if u>>i&1 == 1 {
						e.SetBit(e, i*tab.a+j*tab.b, 1)
					}
				}
				want := new(big.Int).Exp(base, e, mod)
				entry := &tab.entries[j*span+u-1]
				mont := new(big.Int).Mod(new(big.Int).Mul(want, r), mod)
				if entry.Cmp(mont) != 0 {
					t.Fatalf("maxBits %d column %d index %d: %v, want Montgomery form %v", maxBits, j, u, entry, mont)
				}
				got := new(big.Int)
				tab.redc(got, entry, &s)
				if got.Cmp(want) != 0 {
					t.Fatalf("maxBits %d column %d index %d: REDC gives %v, want %v", maxBits, j, u, got, want)
				}
			}
		}
	}
}

// TestNoiseTableShape pins the comb at a Paillier-1024 exponent
// (h = 8 blocks of 128 bits, 16 columns of 8-bit sub-blocks) and holds
// the table at every maxBits to at most 1.1× the entries of a 4-bit
// window (ceil(maxBits/4)·15), with every block holding a bit below
// maxBits and every column a bit below a.
func TestNoiseTableShape(t *testing.T) {
	if h, a, b, cols := combShape(1024); h != 8 || a != 128 || b != 8 || cols != 16 {
		t.Fatalf("combShape(1024) = h %d a %d b %d cols %d, want 8 128 8 16", h, a, b, cols)
	}
	for maxBits := 1; maxBits <= 4096; maxBits++ {
		h, a, b, cols := combShape(maxBits)
		window := (maxBits + 3) / 4 * 15
		if size := cols * (1<<h - 1); 10*size > 11*window {
			t.Fatalf("maxBits %d: %d entries, over 1.1 × %d", maxBits, size, window)
		}
		if h < 1 || h > combH || cols < 1 || cols > combV || (h-1)*a >= maxBits || h*a < maxBits ||
			(cols-1)*b >= a || cols*b < a {
			t.Fatalf("maxBits %d: malformed shape h %d a %d b %d cols %d", maxBits, h, a, b, cols)
		}
	}
}

// TestNoiseTableMaxBitsAgainstBigExp cross-checks the comb against
// math/big at key-independent exponent sizes around the shape's
// boundaries (one block, one column, a byte, a Paillier-1024 N, the
// 256-bit key's N), on the edge exponents and random ones.
func TestNoiseTableMaxBitsAgainstBigExp(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, maxBits := range []int{1, 7, 8, 9, 127, 256, 1023, 1024} {
		mod := oddModulus(rng, 300)
		if maxBits > 256 {
			mod = oddModulus(rng, 2048)
		}
		base := new(big.Int).Rand(rng, mod)
		tab := newFixedBase(base, mod, maxBits)
		checkTable(t, tab, base, mod, edgeExponents(rng, mod, maxBits), new(big.Int).Rand(rng, mod))
	}
}

// TestNoiseTableZeroExponentAndEmptyHalves pins base^0 = 1 (and
// base^0·x = x) on every modulus size, and exponents whose bits all
// sit in one half of the columns, so each branch of the join runs.
func TestNoiseTableZeroExponentAndEmptyHalves(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, bits := range []int{2, 7, 64, 65, 300} {
		mod := oddModulus(rng, bits)
		base := new(big.Int).Rand(rng, mod)
		tab := newFixedBase(base, mod, 64)
		if got := tab.exp(new(big.Int)); got.Cmp(one) != 0 {
			t.Fatalf("mod=%v: base^0 = %v, want 1", mod, got)
		}
		// Every bit of every block in columns [0, cols/2), then in
		// [cols/2, cols): the first half alone, then the second alone.
		split := tab.cols / 2 * tab.b
		lowOnly, highOnly := new(big.Int), new(big.Int)
		for p := 0; p < tab.maxBits; p++ {
			if p%tab.a < split {
				lowOnly.SetBit(lowOnly, p, 1)
			} else {
				highOnly.SetBit(highOnly, p, 1)
			}
		}
		if lowOnly.Sign() == 0 || highOnly.Sign() == 0 {
			t.Fatalf("maxBits 64: comb with %d columns has an empty half", tab.cols)
		}
		x := new(big.Int).Rand(rng, mod)
		checkTable(t, tab, base, mod, []*big.Int{new(big.Int), lowOnly, highOnly}, x)
	}
}

// TestNoiseTableOverlongExponentFallsBack: exponents past maxBits take
// math/big's general path over the plain base — a Montgomery row there
// would be off by a factor of R.
func TestNoiseTableOverlongExponentFallsBack(t *testing.T) {
	mod := big.NewInt(999983)
	base := big.NewInt(777)
	tab := newFixedBase(base, mod, 8)
	x := big.NewInt(4242)
	checkTable(t, tab, base, mod, []*big.Int{big.NewInt(1 << 8), big.NewInt(1 << 30)}, x)
}

func TestNoiseTableValidation(t *testing.T) {
	mod := big.NewInt(97)
	for name, fn := range map[string]func(){
		"nil mod":       func() { newFixedBase(big.NewInt(2), nil, 8) },
		"zero mod":      func() { newFixedBase(big.NewInt(0), big.NewInt(0), 8) },
		"mod 1":         func() { newFixedBase(big.NewInt(0), big.NewInt(1), 8) },
		"even mod":      func() { newFixedBase(big.NewInt(2), big.NewInt(98), 8) },
		"negative base": func() { newFixedBase(big.NewInt(-1), mod, 8) },
		"base >= mod":   func() { newFixedBase(big.NewInt(97), mod, 8) },
		"zero maxBits":  func() { newFixedBase(big.NewInt(2), mod, 0) },
		"negative exp":  func() { newFixedBase(big.NewInt(2), mod, 8).exp(big.NewInt(-1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestNoiseTableConcurrentExp: the table and its split product are
// usable from many goroutines at once (run with -race).
func TestNoiseTableConcurrentExp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mod := oddModulus(rng, 256)
	base := new(big.Int).Rand(rng, mod)
	tab := newFixedBase(base, mod, 128)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				e := new(big.Int).Rand(rng, new(big.Int).Lsh(one, 128))
				if tab.exp(e).Cmp(new(big.Int).Exp(base, e, mod)) != 0 {
					done <- fmt.Errorf("mismatch at exponent %v", e)
					return
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
