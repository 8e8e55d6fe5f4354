package shamir_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"slices"
	"testing"

	"secmr/internal/homo"
	"secmr/internal/shamir"
)

// FuzzDecodeShare feeds arbitrary bytes through the wire decoder and
// share adoption path. Invariants: no panic anywhere; whatever Adopt
// accepts must decrypt without panicking and re-encode canonically
// (byte-identical), so a hostile peer can neither crash a node with a
// crafted share vector nor smuggle two wire forms of one ciphertext.
func FuzzDecodeShare(f *testing.F) {
	s, err := shamir.New(shamir.Params{K: 2, N: 4, W: 1})
	if err != nil {
		f.Fatal(err)
	}
	// Seed with a valid wire share, a truncation, and junk.
	valid := s.AppendCiphertext(nil, s.EncryptInt(123456))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, n, err := homo.ReadCiphertext(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("ReadCiphertext consumed %d of %d bytes", n, len(data))
		}
		adopted, err := s.Adopt(c)
		if err != nil {
			return
		}
		// Accepted shares must be fully well-formed: decrypt cannot
		// panic and the encoding must be canonical.
		_ = s.DecryptSigned(adopted)
		re := s.AppendCiphertext(nil, adopted)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("adopted share re-encodes differently: %x vs %x", re, data[:n])
		}
	})
}

// pack builds the ciphertext integer 2^(64N) + Σ shareᵢ·2^(64i) from
// bytes, independently of the scheme's limb accessors.
func pack(shares []uint64) *big.Int {
	buf := make([]byte, 8*len(shares)+1)
	buf[0] = 1
	for i, sh := range shares {
		binary.BigEndian.PutUint64(buf[len(buf)-8*(i+1):], sh)
	}
	return new(big.Int).SetBytes(buf)
}

// unpack is pack's inverse on a ciphertext of n shares.
func unpack(c *homo.Ciphertext, n int) []uint64 {
	buf := make([]byte, 8*n+1)
	c.V.FillBytes(buf)
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(buf[len(buf)-8*(i+1):])
	}
	return out
}

// FuzzLimbKernel holds the in-place limb kernel to the flat []uint64
// reference kernels: on arbitrary share vectors (not only ones a
// dealing can produce) Add/Sub/ScalarMul/Decrypt must equal
// AddSlices/SubSlices/ScaleSlice/Reconstruct on the extracted shares,
// LinCombInto must equal their composition (coefficients 0, ±1,
// MinInt64, MaxInt64 and m; nil coefficients; no terms; a destination
// that is also an operand), Rerandomize must preserve the plaintext, no
// op may touch its operands, and Adopt must draw the field boundary
// exactly. Shares come from data eight bytes at a time (mod P,
// zero-padded), first a then b; the seeds pin the edge limbs and
// scalars on a 3-of-7 committee (the benchmark's) and on a 3-of-20 one,
// whose shares LinCombInto folds in two runs.
func FuzzLimbKernel(f *testing.F) {
	type rig struct {
		p   shamir.Params
		s   *shamir.Scheme
		geo *shamir.Geometry
	}
	rigs := map[bool]rig{}
	for wide, p := range map[bool]shamir.Params{false: {K: 3, N: 7, W: 1}, true: {K: 3, N: 20, W: 1}} {
		geo, err := shamir.NewGeometry(p)
		if err != nil {
			f.Fatal(err)
		}
		rigs[wide] = rig{p, shamir.MustNew(p), geo}
	}
	limbs := func(vs ...uint64) []byte {
		var out []byte
		for i := 0; i < 40; i++ {
			out = binary.LittleEndian.AppendUint64(out, vs[i%len(vs)])
		}
		return out
	}
	for _, wide := range []bool{false, true} {
		for _, m := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 61, -(1<<61 - 1)} {
			f.Add(limbs(0), m, wide)
			f.Add(limbs(1), m, wide)
			f.Add(limbs(shamir.P-1), m, wide)
			f.Add(limbs(0, shamir.P-1, 1, 0x0123456789abcdef), m, wide)
		}
	}
	f.Add([]byte("an odd-length tail is zero-padded"), int64(-7), false)

	f.Fuzz(func(t *testing.T, data []byte, m int64, wide bool) {
		p, s, geo := rigs[wide].p, rigs[wide].s, rigs[wide].geo
		a, b := make([]uint64, p.N), make([]uint64, p.N)
		for i := range data {
			if sh := i / 8; sh < 2*p.N {
				dst := &a[sh%p.N]
				if sh >= p.N {
					dst = &b[sh%p.N]
				}
				*dst |= uint64(data[i]) << (8 * (i % 8))
			}
		}
		for i := range a {
			a[i], b[i] = a[i]%shamir.P, b[i]%shamir.P
		}
		adopt := func(shares []uint64) *homo.Ciphertext {
			c, err := s.Adopt(&homo.Ciphertext{V: pack(shares)})
			if err != nil {
				t.Fatalf("Adopt rejected reduced shares %x: %v", shares, err)
			}
			return c
		}
		ca, cb := adopt(a), adopt(b)
		same := func(op string, got *homo.Ciphertext, want []uint64) {
			t.Helper()
			if g := unpack(got, p.N); !slices.Equal(g, want) {
				t.Fatalf("%s: shares %x, reference kernel %x", op, g, want)
			}
			if !slices.Equal(unpack(ca, p.N), a) || !slices.Equal(unpack(cb, p.N), b) {
				t.Fatalf("%s touched an operand", op)
			}
		}
		want := make([]uint64, p.N)
		shamir.AddSlices(want, a, b)
		same("Add", s.Add(ca, cb), want)
		shamir.SubSlices(want, a, b)
		same("Sub", s.Sub(ca, cb), want)
		residue := func(c int64) uint64 { return new(big.Int).Mod(big.NewInt(c), s.PlaintextSpace()).Uint64() }
		shamir.ScaleSlice(want, a, residue(m))
		same("ScalarMul", s.ScalarMul(m, ca), want)

		comb := func(coeffs []int64, xs ...[]uint64) []uint64 {
			acc, term := make([]uint64, p.N), make([]uint64, p.N)
			for j, x := range xs {
				switch {
				case coeffs == nil || coeffs[j] == 1:
					shamir.AddSlices(acc, acc, x)
				case coeffs[j] == -1:
					shamir.SubSlices(acc, acc, x)
				default:
					shamir.ScaleSlice(term, x, residue(coeffs[j]))
					shamir.AddSlices(acc, acc, term)
				}
			}
			return acc
		}
		for _, c := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64} {
			coeffs := []int64{c, m}
			same("LinCombInto", s.LinCombInto(nil, coeffs, []*homo.Ciphertext{ca, cb}), comb(coeffs, a, b))
			dst := s.LinCombInto(nil, nil, []*homo.Ciphertext{ca}) // a copy of a this test owns
			same("LinCombInto of one term", dst, a)
			if got := s.LinCombInto(dst, coeffs, []*homo.Ciphertext{cb, dst}); got != dst {
				t.Fatal("LinCombInto did not return its destination")
			}
			same("LinCombInto into an operand", dst, comb(coeffs, b, a))
		}
		same("LinCombInto without coefficients", s.LinCombInto(nil, nil, []*homo.Ciphertext{ca, cb, ca}), comb(nil, a, b, a))
		same("LinCombInto of no terms", s.LinCombInto(nil, nil, nil), make([]uint64, p.N))

		plain := new(big.Int).SetUint64(geo.Reconstruct(a))
		if got := s.Decrypt(ca); got.Cmp(plain) != 0 {
			t.Fatalf("Decrypt = %s, Reconstruct = %s", got, plain)
		}
		if got, want := s.DecryptSigned(ca), homo.DecodeSigned(plain, s.PlaintextSpace()); got.Cmp(want) != 0 {
			t.Fatalf("DecryptSigned = %s, want %s", got, want)
		}
		if got := geo.Reconstruct(unpack(s.Rerandomize(ca), p.N)); got != geo.Reconstruct(a) {
			t.Fatalf("Rerandomize moved the plaintext to %x from %x", got, geo.Reconstruct(a))
		}
		same("Rerandomize", ca, a)

		// The field boundary, on share j of this vector.
		j := int(uint64(m) % uint64(p.N))
		edge := slices.Clone(a)
		edge[j] = shamir.P - 1
		adopt(edge)
		edge[j] = shamir.P
		full := pack(edge)
		edge[j] = a[j]
		good := pack(edge)
		for name, v := range map[string]*big.Int{
			"share = P":        full,
			"missing sentinel": new(big.Int).SetBit(new(big.Int).Set(good), 64*p.N, 0),
			"extra limb":       new(big.Int).SetBit(new(big.Int).Set(good), 64*(p.N+1), 1),
			"negative":         new(big.Int).Neg(good),
		} {
			if _, err := s.Adopt(&homo.Ciphertext{V: v}); err == nil {
				t.Fatalf("Adopt accepted a vector with %s", name)
			}
		}
	})
}
