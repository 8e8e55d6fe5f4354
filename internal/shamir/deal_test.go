package shamir

import (
	"math/big"
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
// fixed, the unpacked coefficient-major dealing is share for share the
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
					if r := s.geo.ReconstructSlot(got, 0); r != want {
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

// TestPackedDealingUnchanged: a packed (W > 1) dealing, passed through
// the same coefficient-major loop, is share for share Geometry.Deal of
// (v, 0, …) with the same aux, alone or onto a base, and opens to v in
// slot 0 and 0 in every other slot.
func TestPackedDealingUnchanged(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 33))
	for _, p := range []Params{{K: 1, N: 3, W: 2}, {K: 2, N: 8, W: 3}, {K: 3, N: 6, W: 2}, {K: 3, N: 12, W: 4}, {K: 17, N: 20, W: 2}} {
		s := MustNew(p)
		base := s.EncryptInt(-987654321)
		for trial := 0; trial < 8; trial++ {
			secrets, aux := make([]uint64, p.W), make([]uint64, p.K-1)
			secrets[0] = rng.Uint64N(P)
			for a := range aux {
				aux[a] = rng.Uint64N(P)
			}
			ref := s.geo.Deal(secrets, aux)
			got := sharesOf(s, s.deal(nil, secrets[0], aux, nil))
			onto := sharesOf(s, s.deal(nil, secrets[0], aux, s.limbs(base)))
			baseShares := sharesOf(s, base)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s: share %d = %d, Geometry.Deal gives %d", s.Name(), i, got[i], ref[i])
				}
				if want := fieldAdd(ref[i], baseShares[i]); onto[i] != want {
					t.Fatalf("%s onto a base: share %d = %d, want %d", s.Name(), i, onto[i], want)
				}
			}
			for j, r := range s.geo.Reconstruct(got) {
				if r != secrets[j] {
					t.Fatalf("%s: slot %d opens to %d, want %d", s.Name(), j, r, secrets[j])
				}
			}
		}
		if got := s.DecryptSigned(s.RerandomizeInto(s.EncryptZero(), base)); got.Cmp(big.NewInt(-987654321)) != 0 {
			t.Fatalf("%s: RerandomizeInto opens to %s", s.Name(), got)
		}
	}
}
