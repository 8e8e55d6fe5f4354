package homo_test

// Micro-benchmarks for the crypto backends. Run with e.g.
//
//	go test ./internal/homo/ -run=^$ -bench . -benchmem -cpu 1,4,8
//
// and convert to JSON with cmd/benchjson (see BENCH_homo.json at the
// repo root). The PaillierEncrypt/PaillierEncryptNoFixedBase pair
// quantifies the fixed-base noise win, which shows at -cpu 1 already
// (at -cpu > 1 the table's two half-products also share the worker
// pool).

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"

	"secmr/internal/homo"
	"secmr/internal/oblivious"
	"secmr/internal/paillier"
	"secmr/internal/shamir"
)

const (
	benchSlots = 16 // stamp slots per oblivious counter (20-slot vectors)
)

var (
	benchOnce     sync.Once
	benchPaillier *paillier.Scheme
)

func benchScheme(b *testing.B) *paillier.Scheme {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		benchPaillier, err = paillier.GenerateKey(rand.Reader, 1024)
		if err != nil {
			panic(err)
		}
	})
	return benchPaillier
}

// benchCounters builds two oblivious counters with live values.
func benchCounters(b *testing.B, s homo.Scheme) (x, y *oblivious.Counter) {
	b.Helper()
	rng := mrand.New(mrand.NewSource(1))
	x, y = oblivious.NewZero(s, benchSlots), oblivious.NewZero(s, benchSlots)
	x.Sum, y.Sum = s.EncryptInt(rng.Int63n(1000)), s.EncryptInt(rng.Int63n(1000))
	x.Count, y.Count = s.EncryptInt(1), s.EncryptInt(1)
	return x, y
}

// BenchmarkObliviousAddVec is the acceptance benchmark: one oblivious
// counter addition (20 componentwise homomorphic adds).
func BenchmarkObliviousAddVec(b *testing.B) {
	s := benchScheme(b)
	x, y := benchCounters(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oblivious.Add(s, x, y)
	}
}

// BenchmarkPaillierEncrypt measures the production path: g=N+1 fast
// path plus fixed-base noise.
func BenchmarkPaillierEncrypt(b *testing.B) {
	s := benchScheme(b)
	m := big.NewInt(123456)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Encrypt(m)
	}
}

// BenchmarkPaillierEncryptNoFixedBase disables the fixed-base noise
// table, restoring the full r^N modular exponentiation per encryption —
// the pre-optimization cost.
func BenchmarkPaillierEncryptNoFixedBase(b *testing.B) {
	s := benchScheme(b)
	s.UseFixedBaseNoise(false)
	defer s.UseFixedBaseNoise(true)
	m := big.NewInt(123456)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Encrypt(m)
	}
}

// BenchmarkPaillierNoiseTable measures the one-time cost of the
// fixed-base noise table, paid in a scheme's first Encrypt: each
// iteration imports the public key afresh (untimed), so its first
// encryption builds the table, then draws one factor from it.
func BenchmarkPaillierNoiseTable(b *testing.B) {
	pub, err := benchScheme(b).ExportPublic()
	if err != nil {
		b.Fatal(err)
	}
	m := big.NewInt(123456)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := paillier.Import(pub)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		s.Encrypt(m)
	}
}

// BenchmarkPaillierDecrypt is one CRT decryption, its p- and q-halves
// on the worker pool at -cpu > 1.
func BenchmarkPaillierDecrypt(b *testing.B) {
	s := benchScheme(b)
	c := s.EncryptInt(123456)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Decrypt(c)
	}
}

func BenchmarkPaillierAdd(b *testing.B) {
	s := benchScheme(b)
	x, y := s.EncryptInt(41), s.EncryptInt(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(x, y)
	}
}

func BenchmarkPaillierRerandomize(b *testing.B) {
	s := benchScheme(b)
	x := s.EncryptInt(41)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Rerandomize(x)
	}
}

// --- Shamir backend ----------------------------------------------------

// benchShamir mirrors the facade's default committee sizing for the
// chaos-scale grids (k=2): 2-of-6 sharing.
func benchShamir(b *testing.B) *shamir.Scheme {
	b.Helper()
	s, err := shamir.New(shamir.Params{K: 2, N: 6, W: 1})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkShamirObliviousAddVec is the Shamir counterpart of the
// acceptance benchmark BenchmarkObliviousAddVec: the same 20-element
// oblivious counter addition, but over share vectors — componentwise
// field adds instead of modmuls in Z*_{N²}.
func BenchmarkShamirObliviousAddVec(b *testing.B) {
	s := benchShamir(b)
	x, y := benchCounters(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oblivious.Add(s, x, y)
	}
}

func BenchmarkShamirEncrypt(b *testing.B) {
	s := benchShamir(b)
	m := big.NewInt(123456)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Encrypt(m)
	}
}

// BenchmarkShamirEncryptIntInto deals into a destination the caller
// owns, as a transmit's stamps and the accountant's ⊥ counters do (the
// benchmark's mine_churn_shamir makes about 16k encryptions a step):
// the dealing kernel with no allocation around it.
func BenchmarkShamirEncryptIntInto(b *testing.B) {
	s := benchShamir(b)
	dst := s.EncryptInt(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		homo.EncryptIntInto(s, dst, 123456)
	}
}

func BenchmarkShamirDecrypt(b *testing.B) {
	s := benchShamir(b)
	c := s.EncryptInt(123456)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Decrypt(c)
	}
}

func BenchmarkShamirAdd(b *testing.B) {
	s := benchShamir(b)
	x, y := s.EncryptInt(41), s.EncryptInt(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(x, y)
	}
}

// BenchmarkShamirLinCombInto is the broker's Δ^uv: four terms, two
// coefficients, into a destination it owns.
func BenchmarkShamirLinCombInto(b *testing.B) {
	s := benchShamir(b)
	xs := []*homo.Ciphertext{s.EncryptInt(41), s.EncryptInt(1), s.EncryptInt(99), s.EncryptInt(7)}
	coeffs := []int64{1 << 20, 1 << 20, -157286, -157286}
	dst := s.LinCombInto(nil, coeffs, xs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		homo.LinCombInto(s, dst, coeffs, xs)
	}
}

func BenchmarkShamirDecryptSignedInto(b *testing.B) {
	s := benchShamir(b)
	c, dst := s.EncryptInt(-123456), new(big.Int)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		homo.DecryptSignedInto(s, dst, c)
	}
}

func BenchmarkShamirRerandomize(b *testing.B) {
	s := benchShamir(b)
	x := s.EncryptInt(41)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Rerandomize(x)
	}
}
