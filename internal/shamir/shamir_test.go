package shamir

import (
	"math/rand/v2"
	"testing"
)

func randResidues(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64N(P)
	}
	return out
}

// dealRef is the reference dealing: the shares f(1) … f(N) of
// f(x) = secret + Σ_a aux[a]·x^(a+1), each by hornerEval.
func dealRef(p Params, secret uint64, aux []uint64) []uint64 {
	coeffs := append([]uint64{secret}, aux...)
	out := make([]uint64, p.N)
	for i := range out {
		out[i] = hornerEval(coeffs, uint64(i+1))
	}
	return out
}

func TestParamsValidate(t *testing.T) {
	good := []Params{{K: 1, N: 1, W: 1}, {K: 2, N: 6, W: 1}, {K: 3, N: 8, W: 1}, {K: 2, N: MaxShares, W: 1}}
	for _, p := range good {
		if _, err := NewGeometry(p); err != nil {
			t.Fatalf("NewGeometry(%+v): %v", p, err)
		}
	}
	bad := []Params{
		{K: 0, N: 3, W: 1},
		{K: 2, N: 3, W: 0},
		{K: 2, N: 8, W: 3},             // one secret per polynomial
		{K: 3, N: 2, W: 1},             // N < K
		{K: 2, N: MaxShares + 1, W: 1}, // committee cap
	}
	for _, p := range bad {
		if _, err := NewGeometry(p); err == nil {
			t.Fatalf("NewGeometry(%+v) accepted invalid params", p)
		}
	}
}

func TestDealReconstructRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, p := range []Params{
		{K: 1, N: 1, W: 1},
		{K: 2, N: 3, W: 1},
		{K: 3, N: 7, W: 1},
	} {
		g, err := NewGeometry(p)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			secret := rng.Uint64N(P)
			shares := dealRef(p, secret, randResidues(rng, p.K-1))
			if got := g.Reconstruct(shares); got != secret {
				t.Fatalf("%+v trial %d: reconstructed %d, want %d", p, trial, got, secret)
			}
		}
	}
}

// TestDealLinearity verifies the property the whole homomorphic scheme
// rests on: sharewise sums reconstruct to plaintext sums.
func TestDealLinearity(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	p := Params{K: 3, N: 9, W: 1}
	g, err := NewGeometry(p)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := rng.Uint64N(P), rng.Uint64N(P)
	sh1 := dealRef(p, s1, randResidues(rng, p.K-1))
	sh2 := dealRef(p, s2, randResidues(rng, p.K-1))
	sum := make([]uint64, p.N)
	AddSlices(sum, sh1, sh2)
	if got, want := g.Reconstruct(sum), fieldAdd(s1, s2); got != want {
		t.Fatalf("sum reconstructed %d, want %d", got, want)
	}
}

// TestSubThresholdHiding is the constructive perfect-hiding witness:
// for ANY two secrets s1 ≠ s2 and any K−1 observed shares of s1, there
// exists a valid dealing of s2 that agrees exactly on those shares. An
// adversary holding K−1 shares therefore cannot distinguish any two
// secrets — the k-TTP property, information-theoretically.
func TestSubThresholdHiding(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, p := range []Params{{K: 2, N: 4, W: 1}, {K: 3, N: 8, W: 1}, {K: 4, N: 12, W: 1}} {
		g, err := NewGeometry(p)
		if err != nil {
			t.Fatal(err)
		}
		s1, s2 := rng.Uint64N(P), rng.Uint64N(P)
		sh1 := dealRef(p, s1, randResidues(rng, p.K-1))

		// The adversary sees shares at points 1 … K−1.
		observed := sh1[:p.K-1]

		// Constructive witness: a degree-(K−1) polynomial is pinned by
		// K point values. Pin it to s2 at x = 0 and to the observed
		// shares at points 1…K−1, then check it is a consistent dealing
		// of s2 agreeing with the adversary's view.
		xs := make([]uint64, p.K)
		ys := make([]uint64, p.K)
		ys[0] = s2
		for i := 0; i < p.K-1; i++ {
			xs[1+i] = uint64(i + 1)
			ys[1+i] = observed[i]
		}
		evalAt := func(y uint64) uint64 {
			return Dot(lagrangeVector(xs, y), ys)
		}
		// The witness polynomial agrees with the adversary's view…
		for i := 0; i < p.K-1; i++ {
			if evalAt(uint64(i+1)) != observed[i] {
				t.Fatalf("%+v: witness disagrees with observed share %d", p, i)
			}
		}
		// …and its full share vector reconstructs to s2, not s1.
		witness := make([]uint64, p.N)
		for i := range witness {
			witness[i] = evalAt(uint64(i + 1))
		}
		if got := g.Reconstruct(witness); got != s2 {
			t.Fatalf("%+v: witness reconstructs to %d, want s2=%d", p, got, s2)
		}
	}
}

// TestAuxRandomizesShares checks that redealing the same secret with
// fresh aux randomness changes every share (K ≥ 2): the aux draws are
// the hiding margin, so identical share vectors for a fixed plaintext
// would be a catastrophic RNG failure.
func TestAuxRandomizesShares(t *testing.T) {
	p := Params{K: 3, N: 6, W: 1}
	s := MustNew(p)
	a := sharesOf(s, s.EncryptInt(12345))
	b := sharesOf(s, s.EncryptInt(12345))
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == p.N {
		t.Fatal("two independent dealings produced identical share vectors")
	}
}

func TestReconstructPanicsBelowThreshold(t *testing.T) {
	g, err := NewGeometry(Params{K: 3, N: 6, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reconstruct with sub-threshold shares did not panic")
		}
	}()
	g.Reconstruct(make([]uint64, 2))
}
