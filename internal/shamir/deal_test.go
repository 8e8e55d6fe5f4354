package shamir

import (
	"math/rand/v2"
	"testing"

	"secmr/internal/homo"
)

// sharesOf extracts a ciphertext's N shares.
func sharesOf(s *Scheme, c *homo.Ciphertext) []uint64 {
	ws := s.limbs(c)
	out := make([]uint64, s.geo.p.N)
	for i := range out {
		out[i] = share(ws, i)
	}
	return out
}

// TestCoefficientMajorDealing: with the secret and the aux residues
// fixed, the coefficient-major dealing is share for share the
// per-share Horner evaluation of the polynomial v + Σ aux[a]·x^(a+1)
// at x = 1 … N, fresh or into a destination, alone or onto a base; it
// reconstructs to v, and RerandomizeInto keeps the plaintext. K = 16
// and 20 outgrow the 16-element buffer dealing used to stage its
// defining values in.
func TestCoefficientMajorDealing(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 31))
	for _, k := range []int{1, 2, 3, 8, 16, 20} {
		for _, n := range []int{k, k + 4} {
			s := MustNew(Params{K: k, N: n, W: 1})
			base := s.EncryptInt(rng.Int64N(1 << 40))
			dst := s.EncryptZero()
			for trial := 0; trial < 8; trial++ {
				v, aux := rng.Uint64N(P), make([]uint64, k-1)
				for a := range aux {
					aux[a] = rng.Uint64N(P)
				}
				if trial == 0 { // the field's edge
					v = P - 1
					for a := range aux {
						aux[a] = P - 1
					}
				}
				coeffs := append([]uint64{v}, aux...)
				baseShares := sharesOf(s, base)
				for _, c := range []struct {
					name string
					got  *homo.Ciphertext
					base []uint64
				}{
					{"fresh", s.deal(nil, v, aux, nil), nil},
					{"into dst", s.deal(dst, v, aux, nil), nil},
					{"onto a base", s.deal(nil, v, aux, s.limbs(base)), baseShares},
				} {
					got := sharesOf(s, c.got)
					for i := range got {
						want := hornerEval(coeffs, uint64(i+1))
						if c.base != nil {
							want = fieldAdd(want, c.base[i])
						}
						if got[i] != want {
							t.Fatalf("%s %s: share %d = %d, Horner gives %d", s.Name(), c.name, i, got[i], want)
						}
					}
					want := v
					if c.base != nil {
						want = fieldAdd(v, s.open(base))
					}
					if r := s.geo.Reconstruct(got); r != want {
						t.Fatalf("%s %s: reconstructs to %d, want %d", s.Name(), c.name, r, want)
					}
				}
				m := rng.Int64N(1<<50) - 1<<49
				if got := s.openSigned(s.RerandomizeInto(dst, s.EncryptInt(m))); got != m {
					t.Fatalf("%s: RerandomizeInto opens to %d, want %d", s.Name(), got, m)
				}
			}
		}
	}
}
