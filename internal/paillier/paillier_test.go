package paillier

import (
	"crypto/rand"
	"math/big"
	"runtime"
	"testing"
	"testing/quick"

	"secmr/internal/homo"
)

// testScheme caches one keypair per test binary run; key generation is
// the expensive part and the tests only need a single instance.
var testScheme = mustScheme(256)

func mustScheme(bits int) *Scheme {
	s, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		panic(err)
	}
	return s
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	s := testScheme
	for _, m := range []int64{0, 1, 2, 17, 1 << 40, -1, -12345} {
		c := s.EncryptInt(m)
		got := s.DecryptSigned(c)
		if got.Int64() != m {
			t.Errorf("round trip %d: got %s", m, got)
		}
	}
}

func TestDecryptUnsignedRange(t *testing.T) {
	s := testScheme
	c := s.EncryptInt(-1)
	v := s.Decrypt(c)
	want := new(big.Int).Sub(s.PlaintextSpace(), big.NewInt(1))
	if v.Cmp(want) != 0 {
		t.Errorf("E(-1) decrypts to %s, want N-1=%s", v, want)
	}
}

// textbookDecrypt is Paillier's decryption without CRT:
// L(c^λ mod N²)·μ mod N, λ = lcm(p−1, q−1), μ = L(g^λ mod N²)^{−1} mod N.
func textbookDecrypt(s *Scheme, c *big.Int) *big.Int {
	n, n2 := s.pub.N, s.pub.N2
	pm1, qm1 := new(big.Int).Sub(s.priv.p, one), new(big.Int).Sub(s.priv.q, one)
	lambda := new(big.Int).Mul(pm1, qm1)
	lambda.Div(lambda, new(big.Int).GCD(nil, nil, pm1, qm1))
	g := new(big.Int).Add(n, one)
	mu := new(big.Int).ModInverse(lFunc(new(big.Int).Exp(g, lambda, n2), n), n)
	m := lFunc(new(big.Int).Exp(c, lambda, n2), n)
	return m.Mod(m.Mul(m, mu), n)
}

// TestDecryptHalvesMatchTextbook holds the CRT decryption — its p- and
// q-halves inline at GOMAXPROCS 1, on the worker pool at 4 — to the
// textbook formula for {0, ±1, ±(N−1)/2, random}.
func TestDecryptHalvesMatchTextbook(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	s := testScheme
	half := new(big.Int).Rsh(new(big.Int).Sub(s.pub.N, one), 1)
	ms := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-1), half, new(big.Int).Neg(half)}
	for i := 0; i < 4; i++ {
		r, err := rand.Int(rand.Reader, s.pub.N)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, r)
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, m := range ms {
			c := s.Encrypt(m)
			want := textbookDecrypt(s, c.V)
			if got := s.Decrypt(c); got.Cmp(want) != 0 || got.Cmp(homo.EncodeMod(m, s.pub.N)) != 0 {
				t.Fatalf("GOMAXPROCS %d, m=%v: Decrypt %v, textbook %v", procs, m, got, want)
			}
			if m.Cmp(half) <= 0 {
				if got := s.DecryptSigned(c); got.Cmp(m) != 0 {
					t.Fatalf("GOMAXPROCS %d: DecryptSigned %v, want %v", procs, got, m)
				}
			}
		}
	}
}

// TestNoiseOpAllocs gates the allocations of Encrypt and Rerandomize on
// the fixed-base path: 12 and 8 on amd64 (AllocsPerRun runs them at
// GOMAXPROCS 1, so the noise halves run inline). The Mul+Mod table this
// replaced made 492 and 489.
func TestNoiseOpAllocs(t *testing.T) {
	s := mustScheme(1024)
	m, c := big.NewInt(123456), s.EncryptInt(7)
	for _, op := range []struct {
		name string
		run  func()
	}{
		{"Encrypt", func() { s.Encrypt(m) }},
		{"Rerandomize", func() { s.Rerandomize(c) }},
	} {
		if got := testing.AllocsPerRun(20, op.run); got > 24 {
			t.Errorf("%s: %v allocs/op, want ≤ 24", op.name, got)
		}
	}
}

func TestProbabilisticEncryption(t *testing.T) {
	s := testScheme
	a := s.EncryptInt(42)
	b := s.EncryptInt(42)
	if a.Equal(b) {
		t.Fatal("two encryptions of the same plaintext are identical; scheme is not probabilistic")
	}
	if s.Decrypt(a).Cmp(s.Decrypt(b)) != 0 {
		t.Fatal("decryptions differ")
	}
}

func TestHomomorphicAddSubProperty(t *testing.T) {
	s := testScheme
	f := func(x, y int64) bool {
		ex, ey := s.EncryptInt(x), s.EncryptInt(y)
		sum := s.DecryptSigned(s.Add(ex, ey))
		diff := s.DecryptSigned(s.Sub(ex, ey))
		wantSum := new(big.Int).Add(big.NewInt(x), big.NewInt(y))
		wantDiff := new(big.Int).Sub(big.NewInt(x), big.NewInt(y))
		return sum.Cmp(wantSum) == 0 && diff.Cmp(wantDiff) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestScalarMulProperty(t *testing.T) {
	s := testScheme
	f := func(x int32, m int16) bool {
		c := s.ScalarMul(int64(m), s.EncryptInt(int64(x)))
		got := s.DecryptSigned(c)
		want := new(big.Int).Mul(big.NewInt(int64(x)), big.NewInt(int64(m)))
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRerandomizePreservesPlaintextAndChangesCipher(t *testing.T) {
	s := testScheme
	c := s.EncryptInt(99)
	r := s.Rerandomize(c)
	if c.Equal(r) {
		t.Fatal("rerandomization returned an identical ciphertext")
	}
	if s.Decrypt(c).Cmp(s.Decrypt(r)) != 0 {
		t.Fatal("rerandomization changed the plaintext")
	}
}

func TestIteratedAddMatchesScalarMul(t *testing.T) {
	s := testScheme
	c := s.EncryptInt(7)
	acc := s.EncryptZero()
	for i := 0; i < 5; i++ {
		acc = s.Add(acc, c)
	}
	if s.Decrypt(acc).Cmp(s.Decrypt(s.ScalarMul(5, c))) != 0 {
		t.Fatal("5 additions != ScalarMul(5)")
	}
}

func TestModularWraparound(t *testing.T) {
	s := testScheme
	n := s.PlaintextSpace()
	// E(N-1) + E(2) should decrypt to 1.
	a := s.Encrypt(new(big.Int).Sub(n, big.NewInt(1)))
	b := s.EncryptInt(2)
	if got := s.Decrypt(s.Add(a, b)); got.Int64() != 1 {
		t.Errorf("wraparound sum = %s, want 1", got)
	}
}

func TestCrossSchemeMixPanics(t *testing.T) {
	s1 := testScheme
	s2 := mustScheme(64)
	defer func() {
		if recover() == nil {
			t.Fatal("mixing ciphertexts across schemes did not panic")
		}
	}()
	s1.Add(s1.EncryptInt(1), s2.EncryptInt(1))
}

func TestTinyKeySizesWork(t *testing.T) {
	for _, bits := range []int{16, 24, 48, 128} {
		s := mustScheme(bits)
		c := s.Add(s.EncryptInt(3), s.EncryptInt(4))
		if got := s.Decrypt(c).Int64(); got != 7 {
			t.Errorf("bits=%d: 3+4=%d", bits, got)
		}
	}
}

// TestAdoptRejectsNonUnits: Adopt accepts exactly the units of
// Z*_{N²}. Its gcd is taken with N, so multiples of either prime — p·k
// for several k, N itself, p² — must still fail, as must 0, N² and a
// negative value; a real ciphertext comes back re-tagged and equal.
func TestAdoptRejectsNonUnits(t *testing.T) {
	s := testScheme
	p, q, n2 := s.priv.p, s.priv.q, s.pub.N2
	for name, v := range map[string]*big.Int{
		"p":        new(big.Int).Set(p),
		"p·7":      new(big.Int).Mul(p, big.NewInt(7)),
		"p·(q+1)":  new(big.Int).Mul(p, new(big.Int).Add(q, one)),
		"q·(p−1)":  new(big.Int).Mul(q, new(big.Int).Sub(p, one)),
		"N":        new(big.Int).Set(s.pub.N),
		"p²":       new(big.Int).Mul(p, p),
		"N²−p":     new(big.Int).Sub(n2, p),
		"zero":     new(big.Int),
		"N²":       new(big.Int).Set(n2),
		"negative": new(big.Int).Neg(s.EncryptInt(5).V),
	} {
		if c, err := s.Adopt(&homo.Ciphertext{V: v}); err == nil {
			t.Errorf("%s: adopted %v", name, c.V)
		}
	}
	if _, err := s.Adopt(nil); err == nil {
		t.Error("nil ciphertext adopted")
	}
	c := s.EncryptInt(-9)
	got, err := s.Adopt(&homo.Ciphertext{V: new(big.Int).Set(c.V)})
	if err != nil {
		t.Fatal(err)
	}
	if got.V.Cmp(c.V) != 0 || got.Tag != c.Tag || s.DecryptSigned(got).Int64() != -9 {
		t.Fatalf("adopted ciphertext %v (tag %d), want %v (tag %d)", got.V, got.Tag, c.V, c.Tag)
	}
}

func TestGenerateKeyRejectsTooSmall(t *testing.T) {
	if _, err := GenerateKey(rand.Reader, 8); err == nil {
		t.Fatal("expected error for 8-bit modulus")
	}
}

func TestPlainAndPaillierAgree(t *testing.T) {
	// Differential test: a random expression DAG evaluated over both
	// schemes must decrypt identically (signed).
	pl := homo.NewPlain(128)
	pa := testScheme
	type pair struct{ a, b *homo.Ciphertext }
	vals := []int64{5, -3, 100, 0, 77}
	cts := make([]pair, len(vals))
	for i, v := range vals {
		cts[i] = pair{pl.EncryptInt(v), pa.EncryptInt(v)}
	}
	// (5 + -3)*4 - 100 + rerand(77) = -90 + 77 = -15
	x := pair{pl.Add(cts[0].a, cts[1].a), pa.Add(cts[0].b, cts[1].b)}
	x = pair{pl.ScalarMul(4, x.a), pa.ScalarMul(4, x.b)}
	x = pair{pl.Sub(x.a, cts[2].a), pa.Sub(x.b, cts[2].b)}
	x = pair{pl.Add(x.a, pl.Rerandomize(cts[4].a)), pa.Add(x.b, pa.Rerandomize(cts[4].b))}
	gp := pl.DecryptSigned(x.a)
	ga := pa.DecryptSigned(x.b)
	if gp.Cmp(ga) != 0 || gp.Int64() != -15 {
		t.Fatalf("plain=%s paillier=%s want -15", gp, ga)
	}
}

func BenchmarkPaillierEncrypt(b *testing.B) {
	for _, bits := range []int{256, 512, 1024} {
		s := mustScheme(bits)
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.EncryptInt(int64(i))
			}
		})
	}
}

func BenchmarkPaillierDecrypt(b *testing.B) {
	for _, bits := range []int{256, 512, 1024} {
		s := mustScheme(bits)
		c := s.EncryptInt(123456)
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Decrypt(c)
			}
		})
	}
}

func BenchmarkPaillierAdd(b *testing.B) {
	s := testScheme
	x, y := s.EncryptInt(1), s.EncryptInt(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(x, y)
	}
}

func BenchmarkPaillierRerandomize(b *testing.B) {
	s := testScheme
	x := s.EncryptInt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Rerandomize(x)
	}
}
