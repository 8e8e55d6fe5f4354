// Package paillier implements the Paillier probabilistic additively
// homomorphic public-key cryptosystem (Paillier, Eurocrypt '99), the
// cryptosystem the paper bases its oblivious counters on (footnote 1).
//
// The implementation uses the standard g = N+1 simplification, CRT
// decryption for a ~4x speedup, and satisfies the homo.Scheme
// capability interfaces so that protocol code can run identically over
// Paillier or the plain stand-in scheme.
//
// Plaintext space: Z_N. Ciphertext space: Z*_{N²}.
//
//	E(m; r) = (1+N)^m · r^N mod N²  =  (1 + mN) · r^N mod N²
//	D(c)    = L(c^λ mod N²) · μ mod N,   L(x) = (x−1)/N
//
// Homomorphism: E(a)·E(b) = E(a+b),  E(a)^k = E(k·a).
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"secmr/internal/homo"
)

var one = big.NewInt(1)

// scratch pools the oversized intermediate products of Add and of the
// uniform noise path (a 1024-bit key multiplies 2048-bit residues into
// 4096-bit products before reduction); reusing that scratch roughly
// halves the bytes those allocate. Only intermediates
// live here — every ciphertext handed out is fresh.
var scratch = sync.Pool{New: func() any { return new(big.Int) }}

// PublicKey holds the Paillier public parameters.
type PublicKey struct {
	N  *big.Int // modulus
	N2 *big.Int // N²
}

// PrivateKey holds the factorization and the CRT decryption
// precomputation.
type PrivateKey struct {
	PublicKey
	p, q  *big.Int   // primes, p != q
	crt   [2]crtHalf // the p-half and the q-half of a decryption
	pinvq *big.Int   // p^{−1} mod q for CRT recombination
}

// crtHalf is one prime's share of CRT decryption: mp = L_p(c^{p−1} mod
// p²)·h mod p.
type crtHalf struct {
	p, p2, pm1 *big.Int // p, p², p−1
	h          *big.Int // L_p(g^{p−1} mod p²)^{−1} mod p
}

// open returns L_p(c^{p−1} mod p²)·h mod p.
func (k *crtHalf) open(c *big.Int) *big.Int {
	x := new(big.Int).Mod(c, k.p2)
	x.Exp(x, k.pm1, k.p2)
	x = lFunc(x, k.p)
	return x.Mod(x.Mul(x, k.h), k.p)
}

// Scheme is a Paillier instance implementing homo.Scheme. The zero
// value is unusable; construct with GenerateKey.
type Scheme struct {
	pub  PublicKey
	priv *PrivateKey // nil for a public-only instance
	tag  uint64

	// Fixed-base noise: a one-time comb table over hᴺ mod N² (h a
	// random unit) turns every online noise factor into a fixed-base
	// exponentiation — see noiseTable.
	fbOnce    sync.Once
	fbTable   *fixedBase
	fbDisable atomic.Bool
}

var tagCounter atomic.Uint64

// GenerateKey creates a fresh Paillier key pair with an N of the given
// bit length, reading randomness from rng (crypto/rand.Reader in
// production; a deterministic reader is acceptable for reproducible
// simulations).
func GenerateKey(rng io.Reader, bits int) (*Scheme, error) {
	if bits < 16 {
		return nil, errors.New("paillier: modulus below 16 bits")
	}
	var p, q *big.Int
	var err error
	for {
		p, err = rand.Prime(rng, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating p: %w", err)
		}
		q, err = rand.Prime(rng, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		// gcd(pq, (p−1)(q−1)) must be 1; guaranteed when p,q have the
		// same bit length, but check anyway for odd splits.
		n := new(big.Int).Mul(p, q)
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		if new(big.Int).GCD(nil, nil, n, phi).Cmp(one) == 0 {
			break
		}
	}
	return newScheme(p, q)
}

func newScheme(p, q *big.Int) (*Scheme, error) {
	n := new(big.Int).Mul(p, q)
	priv := &PrivateKey{
		PublicKey: PublicKey{N: n, N2: new(big.Int).Mul(n, n)},
		p:         p, q: q,
	}
	// h = L_p((1+N)^{p−1} mod p²)^{−1} mod p for each prime. (1+N)^{p−1}
	// mod p² = 1 + (p−1)·N mod p², so L_p(...) = ((p−1)·N mod p²)/p ...
	// computed the direct way below to keep the code obviously correct.
	g := new(big.Int).Add(n, one)
	for i, pr := range []*big.Int{p, q} {
		k := &priv.crt[i]
		k.p, k.p2, k.pm1 = pr, new(big.Int).Mul(pr, pr), new(big.Int).Sub(pr, one)
		k.h = new(big.Int).ModInverse(lFunc(new(big.Int).Exp(g, k.pm1, k.p2), pr), pr)
		if k.h == nil {
			return nil, errors.New("paillier: degenerate key (no CRT inverse)")
		}
	}
	priv.pinvq = new(big.Int).ModInverse(p, q)
	if priv.pinvq == nil {
		return nil, errors.New("paillier: p not invertible mod q")
	}
	return &Scheme{pub: priv.PublicKey, priv: priv, tag: tagCounter.Add(1)}, nil
}

// lFunc computes L_d(x) = (x−1)/d.
func lFunc(x, d *big.Int) *big.Int {
	return new(big.Int).Div(new(big.Int).Sub(x, one), d)
}

// Name identifies the scheme and its modulus size.
func (s *Scheme) Name() string { return fmt.Sprintf("paillier-%d", s.pub.N.BitLen()) }

// PlaintextSpace returns N.
func (s *Scheme) PlaintextSpace() *big.Int { return new(big.Int).Set(s.pub.N) }

// Public returns the public key.
func (s *Scheme) Public() PublicKey { return s.pub }

// randomUnit draws r uniformly from Z*_N.
func (s *Scheme) randomUnit() *big.Int {
	for {
		r, err := rand.Int(rand.Reader, s.pub.N)
		if err != nil {
			panic("paillier: crypto/rand failure: " + err.Error())
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, s.pub.N).Cmp(one) == 0 {
			return r
		}
	}
}

func (s *Scheme) check(c *homo.Ciphertext) {
	if c.Tag != s.tag {
		panic("paillier: ciphertext from a different scheme instance")
	}
}

// Encrypt encrypts m mod N.
func (s *Scheme) Encrypt(m *big.Int) *homo.Ciphertext {
	// (1 + m·N) mod N² — the g=N+1 fast path: one multiplication where
	// the generic g^m costs a full modular exponentiation. m < N, so
	// 1 + m·N < N² needs no reduction.
	x := homo.EncodeMod(m, s.pub.N)
	x.Mul(x, s.pub.N)
	x.Add(x, one)
	// times r^N mod N² (fixed-base or uniform; see pool.go)
	return &homo.Ciphertext{V: s.withNoise(x), Tag: s.tag}
}

// EncryptInt encrypts an int64 (negatives via modular shifting).
func (s *Scheme) EncryptInt(m int64) *homo.Ciphertext {
	return s.Encrypt(big.NewInt(m))
}

// EncryptZero returns a fresh encryption of 0.
func (s *Scheme) EncryptZero() *homo.Ciphertext { return s.EncryptInt(0) }

// Decrypt returns the plaintext in [0, N) using CRT. The p-half and the
// q-half are independent exponentiations, run on the homo worker pool
// (inline at GOMAXPROCS 1, or when no worker is idle).
func (s *Scheme) Decrypt(c *homo.Ciphertext) *big.Int {
	if s.priv == nil {
		panic("paillier: Decrypt on a public-only scheme")
	}
	s.check(c)
	var half [2]*big.Int
	homo.ParallelFor(2, func(i int) { half[i] = s.priv.crt[i].open(c.V) })
	mp, mq := half[0], half[1]
	// CRT: m = mp + p·((mq−mp)·p^{−1} mod q)
	t := mq.Sub(mq, mp)
	t.Mul(t, s.priv.pinvq).Mod(t, s.priv.q)
	m := t.Mul(t, s.priv.p)
	return m.Add(m, mp)
}

// DecryptSigned decrypts and decodes into (−N/2, N/2].
func (s *Scheme) DecryptSigned(c *homo.Ciphertext) *big.Int {
	return homo.DecodeSigned(s.Decrypt(c), s.pub.N)
}

// Add implements the homomorphic A+: E(a)·E(b) mod N².
func (s *Scheme) Add(a, b *homo.Ciphertext) *homo.Ciphertext {
	s.check(a)
	s.check(b)
	t := scratch.Get().(*big.Int)
	t.Mul(a.V, b.V)
	v := new(big.Int).Mod(t, s.pub.N2)
	scratch.Put(t)
	return &homo.Ciphertext{V: v, Tag: s.tag}
}

// Sub implements A−: E(a)·E(b)^{−1} mod N².
func (s *Scheme) Sub(a, b *homo.Ciphertext) *homo.Ciphertext {
	s.check(a)
	s.check(b)
	inv := new(big.Int).ModInverse(b.V, s.pub.N2)
	if inv == nil {
		panic("paillier: non-invertible ciphertext")
	}
	inv.Mul(a.V, inv)
	v := new(big.Int).Mod(inv, s.pub.N2)
	return &homo.Ciphertext{V: v, Tag: s.tag}
}

// ScalarMul implements m ∗ E(x) = E(x)^m mod N², with negative m
// handled through the plaintext ring.
func (s *Scheme) ScalarMul(m int64, a *homo.Ciphertext) *homo.Ciphertext {
	s.check(a)
	e := homo.EncodeMod(big.NewInt(m), s.pub.N)
	v := new(big.Int).Exp(a.V, e, s.pub.N2)
	return &homo.Ciphertext{V: v, Tag: s.tag}
}

// Rerandomize multiplies by a fresh encryption of zero: c·r^N mod N².
func (s *Scheme) Rerandomize(a *homo.Ciphertext) *homo.Ciphertext {
	s.check(a)
	return &homo.Ciphertext{V: s.withNoise(a.V), Tag: s.tag}
}

// Adopt validates and re-tags a deserialized ciphertext: it must be a
// unit of Z*_{N²}. N and N² have the same prime factors, so that is
// gcd(c, N) = 1, a gcd of half the width.
func (s *Scheme) Adopt(c *homo.Ciphertext) (*homo.Ciphertext, error) {
	if c == nil || c.V == nil || c.V.Sign() <= 0 || c.V.Cmp(s.pub.N2) >= 0 {
		return nil, errors.New("paillier: ciphertext out of range")
	}
	if new(big.Int).GCD(nil, nil, c.V, s.pub.N).Cmp(one) != 0 {
		return nil, errors.New("paillier: ciphertext not a unit mod N²")
	}
	return &homo.Ciphertext{V: new(big.Int).Set(c.V), Tag: s.tag}, nil
}

var (
	_ homo.Scheme  = (*Scheme)(nil)
	_ homo.Adopter = (*Scheme)(nil)
)
