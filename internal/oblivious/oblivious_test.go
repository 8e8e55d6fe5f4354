package oblivious

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"

	"secmr/internal/homo"
	"secmr/internal/paillier"
)

var (
	testPlain    = homo.NewPlain(96)
	testPaillier = mustPaillier()
)

func mustPaillier() *paillier.Scheme {
	s, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		panic(err)
	}
	return s
}

func schemes() map[string]homo.Scheme {
	return map[string]homo.Scheme{"plain": testPlain, "paillier": testPaillier}
}

func TestCounterAddComponentwise(t *testing.T) {
	for name, s := range schemes() {
		a := &Counter{
			Sum: s.EncryptInt(3), Count: s.EncryptInt(10), Num: s.EncryptInt(1),
			Share:  s.EncryptInt(7),
			Stamps: []*homo.Ciphertext{s.EncryptInt(5), s.EncryptInt(0)},
		}
		b := &Counter{
			Sum: s.EncryptInt(4), Count: s.EncryptInt(20), Num: s.EncryptInt(2),
			Share:  s.EncryptInt(-6),
			Stamps: []*homo.Ciphertext{s.EncryptInt(0), s.EncryptInt(9)},
		}
		c := Add(s, a, b)
		got := []int64{
			s.DecryptSigned(c.Sum).Int64(), s.DecryptSigned(c.Count).Int64(),
			s.DecryptSigned(c.Num).Int64(), s.DecryptSigned(c.Share).Int64(),
			s.DecryptSigned(c.Stamps[0]).Int64(), s.DecryptSigned(c.Stamps[1]).Int64(),
		}
		want := []int64{7, 30, 3, 1, 5, 9}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: component %d = %d want %d", name, i, got[i], want[i])
			}
		}
	}
}

func TestCounterAddSlotMismatchPanics(t *testing.T) {
	s := testPlain
	a, b := NewZero(s, 2), NewZero(s, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(s, a, b)
}

func TestNewZeroDecryptsToZero(t *testing.T) {
	for name, s := range schemes() {
		z := NewZero(s, 3)
		for _, ct := range append([]*homo.Ciphertext{z.Sum, z.Count, z.Num, z.Share}, z.Stamps...) {
			if s.Decrypt(ct).Sign() != 0 {
				t.Errorf("%s: NewZero component nonzero", name)
			}
		}
	}
}

func TestRerandomizeConceals(t *testing.T) {
	s := testPaillier
	c := &Counter{Sum: s.EncryptInt(1), Count: s.EncryptInt(2), Num: s.EncryptInt(3),
		Share: s.EncryptInt(4), Stamps: []*homo.Ciphertext{s.EncryptInt(5)}}
	r := Rerandomize(s, c)
	if c.Sum.Equal(r.Sum) || c.Share.Equal(r.Share) || c.Stamps[0].Equal(r.Stamps[0]) {
		t.Fatal("rerandomized components identical to originals")
	}
	if s.Decrypt(r.Sum).Int64() != 1 || s.Decrypt(r.Stamps[0]).Int64() != 5 {
		t.Fatal("rerandomization changed plaintexts")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := testPlain
	c := NewZero(s, 1)
	d := c.Clone()
	d.Sum.V.Add(d.Sum.V, big.NewInt(1))
	if s.Decrypt(c.Sum).Sign() != 0 {
		t.Fatal("clone aliases original")
	}
}

func TestBlindPreservesSign(t *testing.T) {
	rng := mrand.New(mrand.NewSource(2))
	for name, s := range schemes() {
		for _, v := range []int64{-100000, -7, -1, 0, 1, 42, 99999} {
			c := Blind(s, s.EncryptInt(v), 16, rng)
			got := SignOf(s, c)
			want := 0
			if v > 0 {
				want = 1
			} else if v < 0 {
				want = -1
			}
			if got != want {
				t.Errorf("%s: sign(blind(%d)) = %d want %d", name, v, got, want)
			}
		}
	}
}

func TestBlindHidesMagnitude(t *testing.T) {
	// Two blindings of the same value should decrypt differently
	// (overwhelmingly), and neither should equal the original value.
	s := testPlain
	rng := mrand.New(mrand.NewSource(3))
	c := s.EncryptInt(12345)
	a := s.DecryptSigned(Blind(s, c, 20, rng)).Int64()
	b := s.DecryptSigned(Blind(s, c, 20, rng)).Int64()
	if a == b {
		t.Fatal("two blindings decrypted identically")
	}
	if a == 12345 && b == 12345 {
		t.Fatal("blinding did not change magnitude")
	}
}

func TestBlindValidation(t *testing.T) {
	rng := mrand.New(mrand.NewSource(4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad blindBits")
		}
	}()
	Blind(testPlain, testPlain.EncryptInt(1), 0, rng)
}

func TestShareInvarianceUnderCounterSummation(t *testing.T) {
	// End-to-end share-field behaviour: three neighbours' counters,
	// each carrying its assigned share, summed once → share field
	// decrypts to 1; one counted twice → ≠ 1. The shares are explicit;
	// that a real dealing sums to 1 is core's
	// TestAccountantShareInvariants.
	s := testPaillier
	shares := []*homo.Ciphertext{s.EncryptInt(1 << 40), s.EncryptInt(-77), s.EncryptInt(78 - 1<<40)}
	counters := make([]*Counter, 3)
	for i := range counters {
		counters[i] = &Counter{
			Sum: s.EncryptInt(int64(i)), Count: s.EncryptInt(10), Num: s.EncryptInt(1),
			Share: shares[i], Stamps: []*homo.Ciphertext{s.EncryptZero()},
		}
	}
	total := NewZero(s, 1)
	for _, c := range counters {
		total = Add(s, total, c)
	}
	if s.DecryptSigned(total.Share).Int64() != 1 {
		t.Fatal("honest sum share != 1")
	}
	cheat := Add(s, total, counters[0]) // double count
	if s.DecryptSigned(cheat.Share).Int64() == 1 {
		t.Fatal("double count not reflected in share field")
	}
}

func BenchmarkCounterAddPaillier(b *testing.B) {
	s := testPaillier
	x, y := NewZero(s, 4), NewZero(s, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Add(s, x, y)
	}
}

func BenchmarkBlindSignSFE(b *testing.B) {
	s := testPaillier
	rng := mrand.New(mrand.NewSource(1))
	c := s.EncryptInt(-42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SignOf(s, Blind(s, c, 16, rng))
	}
}
