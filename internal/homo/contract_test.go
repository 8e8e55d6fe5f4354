package homo_test

import (
	"math/big"
	"testing"

	"secmr/internal/homo"
	"secmr/internal/shamir"
)

// TestOpsNeitherMutateNorAliasArguments pins the contract oblivious
// counters rest on when they share ciphertext pointers: every Public,
// Encryptor and Decryptor op (and Adopt) leaves its arguments
// bit-identical, and no result shares storage with an argument — so
// clobbering a result afterwards cannot reach an input. Shamir reads
// its operands' share limbs in place, which makes the second half
// load-bearing. LinCombInto is held to the same contract on its
// operands (natively on Shamir, through the serial fallback on Plain,
// Paillier and a Shamir whose capability is hidden), and its one
// exception — the destination — to its own: written only when it
// carries this instance's tag. EncryptIntInto and RerandomizeInto deal
// into their destination where they are native and return a fresh
// encryption elsewhere.
func TestOpsNeitherMutateNorAliasArguments(t *testing.T) {
	sh := shamir.MustNew(shamir.Params{K: 3, N: 7, W: 1})
	schemes := append([]testScheme{{"shamir", sh, true}, {"shamir-serial", struct{ homo.Scheme }{sh}, false}},
		allSchemes(t)...)
	for _, ts := range schemes {
		t.Run(ts.name, func(t *testing.T) {
			s := ts.scheme
			const x, y = 1234567, -89
			a, b := s.EncryptInt(x), s.EncryptInt(y)
			a0, b0 := a.Clone(), b.Clone()
			m := big.NewInt(-424242)

			ops := map[string]func() []*big.Int{
				"Add":           func() []*big.Int { return []*big.Int{s.Add(a, b).V} },
				"Add(a,a)":      func() []*big.Int { return []*big.Int{s.Add(a, a).V} },
				"Sub":           func() []*big.Int { return []*big.Int{s.Sub(a, b).V} },
				"ScalarMul":     func() []*big.Int { return []*big.Int{s.ScalarMul(-77, a).V} },
				"ScalarMul(1)":  func() []*big.Int { return []*big.Int{s.ScalarMul(1, a).V} },
				"Rerandomize":   func() []*big.Int { return []*big.Int{s.Rerandomize(a).V} },
				"Encrypt":       func() []*big.Int { return []*big.Int{s.Encrypt(m).V} },
				"Decrypt":       func() []*big.Int { return []*big.Int{s.Decrypt(a)} },
				"DecryptSigned": func() []*big.Int { return []*big.Int{s.DecryptSigned(b)} },
				"AddVec": func() []*big.Int {
					return values(homo.AddVec(s, []*homo.Ciphertext{a, b}, []*homo.Ciphertext{b, b}))
				},
				"ScalarVec": func() []*big.Int {
					return values(homo.ScalarVec(s, []int64{3, 1}, []*homo.Ciphertext{a, b}))
				},
				"RerandomizeVec": func() []*big.Int {
					return values(homo.RerandomizeVec(s, []*homo.Ciphertext{a, b, a}))
				},
				"LinCombInto": func() []*big.Int {
					return []*big.Int{lin(t, s, 3*x-4*y, nil, []int64{3, -2, -2}, a, b, b).V}
				},
				"LinCombInto(-a)": func() []*big.Int {
					return []*big.Int{lin(t, s, -x, nil, []int64{-1, 0}, a, b).V}
				},
				"LinCombInto(sum)": func() []*big.Int {
					return []*big.Int{lin(t, s, 2*x+y, nil, nil, a, b, a).V}
				},
				"LinCombInto(1·a)": func() []*big.Int {
					return []*big.Int{lin(t, s, x, nil, []int64{1}, a).V}
				},
				"LinCombInto(a)": func() []*big.Int {
					return []*big.Int{lin(t, s, x, nil, nil, a).V}
				},
				"LinCombInto()": func() []*big.Int {
					return []*big.Int{lin(t, s, 0, nil, nil).V}
				},
				"LinCombInto(dst)": func() []*big.Int {
					dst := lin(t, s, y, nil, nil, b)
					if got := lin(t, s, 2*x+y, dst, []int64{2, 1}, a, dst); got != dst {
						t.Fatal("LinCombInto did not return its destination")
					}
					return []*big.Int{dst.V}
				},
				"EncryptIntInto(dst)": func() []*big.Int {
					dst := s.EncryptInt(5)
					got := homo.EncryptIntInto(s, dst, y)
					if _, native := s.(homo.IntoEncryptor); native && got != dst {
						t.Fatal("EncryptIntInto did not deal into its destination")
					}
					if v := s.DecryptSigned(got).Int64(); v != y {
						t.Fatalf("EncryptIntInto decrypts to %d, want %d", v, y)
					}
					return []*big.Int{got.V, homo.EncryptIntInto(s, nil, x).V}
				},
				"RerandomizeInto(dst)": func() []*big.Int {
					dst := s.EncryptInt(5)
					got := homo.RerandomizeInto(s, dst, b)
					if _, native := s.(homo.IntoRerandomizer); native && got != dst {
						t.Fatal("RerandomizeInto did not deal into its destination")
					}
					if got.Equal(b) {
						t.Fatal("RerandomizeInto returned its operand's ciphertext")
					}
					if v := s.DecryptSigned(got).Int64(); v != y {
						t.Fatalf("RerandomizeInto decrypts to %d, want %d", v, y)
					}
					return []*big.Int{got.V, homo.RerandomizeInto(s, nil, a).V}
				},
				"DecryptSignedInto": func() []*big.Int {
					dst := big.NewInt(99)
					if got := homo.DecryptSignedInto(s, dst, b); got != dst || got.Int64() != y {
						t.Fatalf("DecryptSignedInto = %v, want %d in the destination", got, y)
					}
					return []*big.Int{dst, homo.DecryptSignedInto(s, nil, a)}
				},
			}
			if ad, ok := s.(homo.Adopter); ok {
				ops["Adopt"] = func() []*big.Int {
					c, err := ad.Adopt(a)
					if err != nil {
						t.Fatal(err)
					}
					return []*big.Int{c.V}
				}
			}
			for name, op := range ops {
				results := op()
				intact := func(when string) {
					t.Helper()
					if !a.Equal(a0) || !b.Equal(b0) || m.Int64() != -424242 {
						t.Fatalf("%s %s an argument", name, when)
					}
					if got := s.DecryptSigned(a).Int64(); got != x {
						t.Fatalf("%s: first operand now decrypts to %d, want %d", name, got, x)
					}
					if got := s.DecryptSigned(b).Int64(); got != y {
						t.Fatalf("%s: second operand now decrypts to %d, want %d", name, got, y)
					}
				}
				intact("mutated")
				for _, v := range results {
					ws := v.Bits() // the result's own words: a shared limb array shows here
					for i := range ws {
						ws[i] = ^big.Word(0)
					}
					v.SetInt64(0)
				}
				intact("returned a result aliasing")
			}

			// A destination from elsewhere is refused before it is written.
			foreign := a.Clone()
			foreign.Tag++
			f0 := foreign.Clone()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("LinCombInto wrote into a foreign destination")
					}
				}()
				homo.LinCombInto(s, foreign, nil, []*homo.Ciphertext{a, b})
			}()
			if !foreign.Equal(f0) {
				t.Fatal("LinCombInto modified a destination it refused")
			}
		})
	}
}

// lin runs homo.LinCombInto and checks the plaintext of the result.
func lin(t *testing.T, s homo.Scheme, want int64, dst *homo.Ciphertext, coeffs []int64, xs ...*homo.Ciphertext) *homo.Ciphertext {
	t.Helper()
	r := homo.LinCombInto(s, dst, coeffs, xs)
	if got := s.DecryptSigned(r).Int64(); got != want {
		t.Fatalf("LinCombInto(%v) decrypts to %d, want %d", coeffs, got, want)
	}
	return r
}

func values(cs []*homo.Ciphertext) []*big.Int {
	out := make([]*big.Int, len(cs))
	for i, c := range cs {
		out[i] = c.V
	}
	return out
}
