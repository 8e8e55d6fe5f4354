package shamir_test

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"sync"
	"testing"

	"secmr/internal/homo"
	"secmr/internal/shamir"
)

func newScheme(t testing.TB, p shamir.Params) *shamir.Scheme {
	t.Helper()
	s, err := shamir.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSchemeSemanticsVsExactOracle drives a random op sequence through
// the scheme while mirroring it in exact big.Int arithmetic, and
// demands the decrypted residue equal the true value mod P at every
// step — chained scalar-muls grow without bound, so the oracle must be
// exact, not another fixed-width scheme.
func TestSchemeSemanticsVsExactOracle(t *testing.T) {
	s := newScheme(t, shamir.Params{K: 2, N: 6, W: 1})
	rng := rand.New(rand.NewPCG(21, 22))

	type pair struct {
		sh *homo.Ciphertext
		pl *big.Int
	}
	vals := make([]pair, 0, 32)
	for i := 0; i < 16; i++ {
		m := rng.Int64N(1<<40) - 1<<39
		vals = append(vals, pair{s.EncryptInt(m), big.NewInt(m)})
	}
	fieldP := s.PlaintextSpace()
	check := func(p pair) {
		got := s.Decrypt(p.sh)
		want := homo.EncodeMod(p.pl, fieldP)
		if got.Cmp(want) != 0 {
			t.Fatalf("plaintext mismatch: shamir %s, oracle %s", got, want)
		}
	}
	for step := 0; step < 200; step++ {
		a := vals[rng.IntN(len(vals))]
		b := vals[rng.IntN(len(vals))]
		var next pair
		switch rng.IntN(4) {
		case 0:
			next = pair{s.Add(a.sh, b.sh), new(big.Int).Add(a.pl, b.pl)}
		case 1:
			next = pair{s.Sub(a.sh, b.sh), new(big.Int).Sub(a.pl, b.pl)}
		case 2:
			m := rng.Int64N(2001) - 1000
			next = pair{s.ScalarMul(m, a.sh), new(big.Int).Mul(a.pl, big.NewInt(m))}
		case 3:
			next = pair{s.Rerandomize(a.sh), a.pl}
		}
		check(next)
		vals[rng.IntN(len(vals))] = next
	}
}

func TestEncryptDecryptModularValues(t *testing.T) {
	s := newScheme(t, shamir.Params{K: 3, N: 8, W: 1})
	p := s.PlaintextSpace()
	cases := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(p, big.NewInt(1)),
		new(big.Int).Neg(big.NewInt(7)), // reduced mod P on encrypt
	}
	for _, m := range cases {
		want := new(big.Int).Mod(m, p)
		if got := s.Decrypt(s.Encrypt(m)); got.Cmp(want) != 0 {
			t.Fatalf("Decrypt(Encrypt(%s)) = %s, want %s", m, got, want)
		}
	}
	if got := s.Decrypt(s.EncryptZero()); got.Sign() != 0 {
		t.Fatalf("EncryptZero decrypted to %s", got)
	}
}

// TestRerandomizeFreshensShares: the plaintext survives but the share
// vector must change — a broker relaying unrefreshed vectors would let
// recipients correlate counter traffic.
func TestRerandomizeFreshensShares(t *testing.T) {
	s := newScheme(t, shamir.Params{K: 2, N: 5, W: 1})
	c := s.EncryptInt(42)
	r := s.Rerandomize(c)
	if s.DecryptSigned(r).Int64() != 42 {
		t.Fatal("Rerandomize changed the plaintext")
	}
	if c.V.Cmp(r.V) == 0 {
		t.Fatal("Rerandomize left the share vector unchanged")
	}
}

func TestBatchOpsMatchSerial(t *testing.T) {
	s := newScheme(t, shamir.Params{K: 2, N: 6, W: 1})
	rng := rand.New(rand.NewPCG(23, 24))
	const n = 33
	ms := make([]*big.Int, n)
	scalars := make([]int64, n)
	for i := range ms {
		ms[i] = big.NewInt(rng.Int64N(1 << 32))
		scalars[i] = rng.Int64N(201) - 100
	}
	xs := s.EncryptVec(ms)
	ys := s.EncryptZeroVec(n)
	if len(xs) != n || len(ys) != n {
		t.Fatal("vec length mismatch")
	}
	for i, y := range ys {
		if s.Decrypt(y).Sign() != 0 {
			t.Fatalf("EncryptZeroVec[%d] nonzero", i)
		}
	}
	for i, c := range s.AddVec(xs, ys) {
		if got := s.Decrypt(c); got.Cmp(ms[i]) != 0 {
			t.Fatalf("AddVec[%d] = %s, want %s", i, got, ms[i])
		}
	}
	for i, c := range s.ScalarVec(scalars, xs) {
		want := new(big.Int).Mul(ms[i], big.NewInt(scalars[i]))
		if got := s.DecryptSigned(c); got.Cmp(want) != 0 {
			t.Fatalf("ScalarVec[%d] = %s, want %s", i, got, want)
		}
	}
	for i, c := range s.RerandomizeVec(xs) {
		if got := s.Decrypt(c); got.Cmp(ms[i]) != 0 {
			t.Fatalf("RerandomizeVec[%d] = %s, want %s", i, got, ms[i])
		}
		if c.V.Cmp(xs[i].V) == 0 {
			t.Fatalf("RerandomizeVec[%d] left shares unchanged", i)
		}
	}
}

func TestPackedWidthScheme(t *testing.T) {
	// W > 1 geometries still behave as a scalar scheme on slot 0.
	s := newScheme(t, shamir.Params{K: 2, N: 8, W: 3})
	c := s.Add(s.EncryptInt(100), s.EncryptInt(-58))
	if got := s.DecryptSigned(c).Int64(); got != 42 {
		t.Fatalf("packed scheme decrypted %d, want 42", got)
	}
}

func TestWireRoundTrip(t *testing.T) {
	s := newScheme(t, shamir.Params{K: 2, N: 6, W: 1})
	c := s.EncryptInt(123456789)
	buf := s.AppendCiphertext(nil, c)
	if len(buf) > s.MaxCiphertextBytes() {
		t.Fatalf("wire form %d bytes exceeds MaxCiphertextBytes %d", len(buf), s.MaxCiphertextBytes())
	}
	// The sentinel limb fixes the size exactly, not just bounds it.
	if len(buf) != s.MaxCiphertextBytes() {
		t.Fatalf("wire form %d bytes, want exactly %d", len(buf), s.MaxCiphertextBytes())
	}
	dec, n, err := homo.ReadCiphertext(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("ReadCiphertext consumed %d of %d bytes", n, len(buf))
	}
	adopted, err := s.Adopt(dec)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.DecryptSigned(adopted).Int64(); got != 123456789 {
		t.Fatalf("round-tripped plaintext %d", got)
	}
	// Canonical: re-encoding the adopted ciphertext is byte-identical.
	if !bytes.Equal(buf, s.AppendCiphertext(nil, adopted)) {
		t.Fatal("re-encoding is not canonical")
	}
}

func TestAdoptRejectsMalformed(t *testing.T) {
	s := newScheme(t, shamir.Params{K: 2, N: 4, W: 1})
	good := s.EncryptInt(7)

	reject := func(name string, c *homo.Ciphertext) {
		t.Helper()
		if _, err := s.Adopt(c); err == nil {
			t.Fatalf("%s: Adopt accepted malformed share vector", name)
		}
	}
	reject("nil value", &homo.Ciphertext{})
	reject("zero", &homo.Ciphertext{V: new(big.Int)})
	reject("negative", &homo.Ciphertext{V: big.NewInt(-5)})

	// Wrong geometry: a vector for a different committee size.
	other := newScheme(t, shamir.Params{K: 2, N: 6, W: 1})
	reject("wrong N", other.EncryptInt(7))

	// Truncated wire bytes: drop the last byte and reparse.
	buf := s.AppendCiphertext(nil, good)
	if _, _, err := homo.ReadCiphertext(buf[:len(buf)-1]); err == nil {
		t.Fatal("ReadCiphertext accepted truncated share bytes")
	}

	// Out-of-field share: force a limb to 2^61 (≥ P) while keeping the
	// sentinel and bit length intact.
	raw := make([]byte, 8*4+1)
	new(big.Int).Set(good.V).FillBytes(raw)
	raw[len(raw)-8] = 0xFF // top byte of share 0 → value ≥ 2^56·0xFF > P
	bad := new(big.Int).SetBytes(raw)
	reject("share ≥ P", &homo.Ciphertext{V: bad})

	// Oversized: an extra high bit breaks the exact-length check.
	over := new(big.Int).Lsh(big.NewInt(1), uint(64*4+3))
	over.Or(over, good.V)
	reject("excess bits", &homo.Ciphertext{V: over})

	// A Paillier-sized random integer of the wrong shape.
	reject("alien integer", &homo.Ciphertext{V: new(big.Int).Lsh(big.NewInt(12345), 200)})
}

func TestCrossInstanceMixupPanics(t *testing.T) {
	a := newScheme(t, shamir.Params{K: 2, N: 4, W: 1})
	b := newScheme(t, shamir.Params{K: 2, N: 4, W: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("cross-instance Add did not panic")
		}
	}()
	a.Add(a.EncryptInt(1), b.EncryptInt(2))
}

func TestSchemeName(t *testing.T) {
	if got := newScheme(t, shamir.Params{K: 2, N: 6, W: 1}).Name(); got != "shamir61-2of6" {
		t.Fatalf("Name = %q", got)
	}
	if got := newScheme(t, shamir.Params{K: 2, N: 8, W: 3}).Name(); got != "shamir61-2of8-w3" {
		t.Fatalf("packed Name = %q", got)
	}
}

// TestConcurrentEncrypt: dealers on several goroutines, each drawing
// aux residues from its own pooled stream, through every dealing entry
// point. Run with -race. Every share vector must open to its plaintext,
// and no two dealings of one value may share a vector — two goroutines
// handed the same stream state would repeat one.
func TestConcurrentEncrypt(t *testing.T) {
	s := newScheme(t, shamir.Params{K: 3, N: 8, W: 1})
	const dealers, rounds = 8, 200
	vecs := make([][]string, dealers)
	var wg sync.WaitGroup
	for g := 0; g < dealers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := s.EncryptZero()
			for i := 0; i < rounds; i++ {
				m := int64(i % 7)
				deals := []*homo.Ciphertext{s.EncryptInt(m), s.EncryptIntInto(dst, m), s.Rerandomize(s.EncryptInt(m))}
				deals = append(deals, s.EncryptZeroVec(2)...)
				for j, c := range deals {
					want := m
					if j > 2 {
						want = 0
					}
					if got := s.DecryptSigned(c).Int64(); got != want {
						t.Errorf("dealer %d: vector %d opens to %d, want %d", g, j, got, want)
						return
					}
					vecs[g] = append(vecs[g], c.V.Text(16))
				}
			}
		}(g)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, vs := range vecs {
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("two dealings produced the same share vector %s", v)
			}
			seen[v] = true
		}
	}
}

// TestSchemeOpAllocs is the per-op allocation gate for the Shamir
// workloads' homo layer: every result is one heap object (header,
// big.Int and limbs together) wherever the limbs fit the largest
// 32-word cell, two past it, and no operand is copied. The parent of
// this gate read 5, 5, 4, 8, 7, 7, 9, 3, 6 in table order, and the
// parent of one-object ciphertexts 2 for every fresh result. Encrypt of
// a value outside int64 — no protocol value is — adds homo.EncodeMod's
// three temporaries. The
// destination-passing ops write into storage the caller already holds:
// nothing allocated with a destination at any geometry (the 16-of-20
// and 20-of-24 rows outgrow a 16-element stack buffer), one result
// without. The aux draw behind every dealing allocates nothing either
// once its pooled stream exists.
func TestSchemeOpAllocs(t *testing.T) {
	for _, p := range []shamir.Params{
		{K: 3, N: 7, W: 1},   // BENCHMARK.json's mine_churn_shamir
		{K: 2, N: 6, W: 1},   // BENCH_homo.json
		{K: 16, N: 20, W: 1}, // the facade at k = 16 with four spare holders
		{K: 20, N: 24, W: 1},
	} {
		s := newScheme(t, p)
		fresh := 1.0 // allocations per fresh result
		if p.N*64/bits.UintSize+1 > 32 {
			fresh = 2
		}
		a, b := s.EncryptInt(1234567), s.EncryptInt(-89)
		m := big.NewInt(-424242)
		dst, plain := s.LinCombInto(nil, nil, nil), new(big.Int)
		coeffs, terms := []int64{1 << 20, 1 << 20, -3, -3}, []*homo.Ciphertext{a, b, b, a}
		for _, op := range []struct {
			name string
			max  float64
			run  func()
		}{
			{"Add", fresh, func() { s.Add(a, b) }},
			{"Sub", fresh, func() { s.Sub(a, b) }},
			{"ScalarMul", fresh, func() { s.ScalarMul(-77, a) }},
			{"Rerandomize", fresh, func() { s.Rerandomize(a) }},
			{"EncryptInt", fresh, func() { s.EncryptInt(-5) }},
			{"EncryptZero", fresh, func() { s.EncryptZero() }},
			{"Encrypt", fresh, func() { s.Encrypt(m) }},
			{"Decrypt", 2, func() { s.Decrypt(a) }},
			{"DecryptSigned", 2, func() { s.DecryptSigned(b) }},
			{"LinCombInto(dst)", 0, func() { s.LinCombInto(dst, coeffs, terms) }},
			{"LinCombInto(dst) sum", 0, func() { s.LinCombInto(dst, nil, terms) }},
			{"LinCombInto(nil)", fresh, func() { s.LinCombInto(nil, coeffs, terms) }},
			{"DecryptSignedInto", 0, func() { s.DecryptSignedInto(plain, b) }},
			{"EncryptIntInto(dst)", 0, func() { s.EncryptIntInto(dst, -5) }},
			{"RerandomizeInto(dst)", 0, func() { s.RerandomizeInto(dst, a) }},
			{"RerandomizeInto(nil)", fresh, func() { s.RerandomizeInto(nil, a) }},
		} {
			if got := testing.AllocsPerRun(200, op.run); got > op.max {
				t.Errorf("%s %s: %v allocs/op, want ≤ %v", s.Name(), op.name, got, op.max)
			}
		}
	}
}

// TestLinCombIntoPastOneRun: at N > 16 LinCombInto accumulates in
// several runs of 16 shares. Every run must equal the composition of
// Add and ScalarMul, also when the destination is an operand, and an
// operand that fails its check must leave the destination untouched.
func TestLinCombIntoPastOneRun(t *testing.T) {
	for _, p := range []shamir.Params{{K: 16, N: 20, W: 1}, {K: 3, N: 33, W: 1}, {K: 20, N: 48, W: 1}} {
		s := newScheme(t, p)
		a, b := s.EncryptInt(1234567), s.EncryptInt(-89)
		coeffs := []int64{-3, 1 << 40}
		want := s.Add(s.ScalarMul(coeffs[0], a), s.ScalarMul(coeffs[1], b))
		if got := s.LinCombInto(nil, coeffs, []*homo.Ciphertext{a, b}); got.V.Cmp(want.V) != 0 {
			t.Fatalf("%s: LinCombInto differs from Add∘ScalarMul", s.Name())
		}
		dst := s.LinCombInto(nil, nil, []*homo.Ciphertext{a}) // a copy of a this test owns
		if s.LinCombInto(dst, coeffs, []*homo.Ciphertext{dst, b}); dst.V.Cmp(want.V) != 0 {
			t.Fatalf("%s: LinCombInto into an operand differs from Add∘ScalarMul", s.Name())
		}
		if got := s.DecryptSigned(dst).Int64(); got != -3*1234567-89<<40 {
			t.Fatalf("%s: opens to %d", s.Name(), got)
		}
		before := dst.V.Text(16)
		func() {
			defer func() { _ = recover() }()
			s.LinCombInto(dst, nil, []*homo.Ciphertext{a, newScheme(t, p).EncryptInt(1)})
			t.Fatalf("%s: a foreign operand did not panic", s.Name())
		}()
		if dst.V.Text(16) != before {
			t.Fatalf("%s: a failed check changed the destination", s.Name())
		}
	}
}

// freshResults returns one ciphertext from every op that returns fresh
// storage, in allocation order.
func freshResults(t *testing.T, s *shamir.Scheme) []*homo.Ciphertext {
	t.Helper()
	a, b := s.EncryptInt(1234567), s.EncryptInt(-89)
	adopted, err := s.Adopt(&homo.Ciphertext{V: new(big.Int).Set(a.V)})
	if err != nil {
		t.Fatal(err)
	}
	out := []*homo.Ciphertext{a, b, adopted,
		s.Add(a, b), s.Sub(a, b), s.ScalarMul(-77, a), s.Rerandomize(a),
		s.EncryptZero(), s.Encrypt(new(big.Int).Lsh(big.NewInt(1), 70)),
		s.LinCombInto(nil, []int64{3, -1}, []*homo.Ciphertext{a, b}), s.RerandomizeInto(nil, b)}
	out = append(out, s.EncryptZeroVec(3)...)
	return append(out, s.RerandomizeVec([]*homo.Ciphertext{a, b})...)
}

// cellGeometries covers every cell size on 64-bit words (8, 16 and
// 32 limbs), the two-object fallback past the largest, and a packed
// geometry.
var cellGeometries = []shamir.Params{
	{K: 3, N: 7, W: 1}, {K: 2, N: 6, W: 1}, {K: 4, N: 8, W: 1}, {K: 8, N: 12, W: 1},
	{K: 16, N: 20, W: 1}, {K: 20, N: 24, W: 1}, {K: 30, N: 31, W: 1}, {K: 3, N: 40, W: 1},
	{K: 2, N: 8, W: 3},
}

// TestFreshLimbsCappedAtLength: a fresh ciphertext's limb slice has no
// spare capacity, so a big.Int op on V that grows it reallocates
// rather than writing on into the rest of its cell.
func TestFreshLimbsCappedAtLength(t *testing.T) {
	for _, p := range cellGeometries {
		s := newScheme(t, p)
		for i, c := range freshResults(t, s) {
			if ws := c.V.Bits(); cap(ws) != len(ws) {
				t.Errorf("%s: result %d has %d limbs of capacity %d", s.Name(), i, len(ws), cap(ws))
			}
		}
	}
}

// TestFreshCiphertextsDoNotOverlap: a write through one fresh
// ciphertext's limbs, to their full capacity, and a big.Int op that
// grows its value in place, leave every ciphertext allocated before or
// after it unchanged.
func TestFreshCiphertextsDoNotOverlap(t *testing.T) {
	for _, p := range cellGeometries {
		s := newScheme(t, p)
		cs := freshResults(t, s)
		want := make([]string, len(cs))
		for i, c := range cs {
			want[i] = c.V.Text(16)
		}
		for k, c := range cs {
			ws := c.V.Bits()
			ws = ws[:cap(ws)]
			for i := range ws {
				ws[i] = ^big.Word(0)
			}
			c.V.Lsh(c.V, 64)
			for i, o := range cs {
				if i != k && o.V.Text(16) != want[i] {
					t.Fatalf("%s: writing result %d changed result %d", s.Name(), k, i)
				}
			}
			want[k] = c.V.Text(16)
		}
	}
}

// TestAdoptsParentWireVectors: share vectors appended by the parent of
// the in-place limb kernel (operand-copying shares/newCipher, byte
// codec on 32-bit words) are adopted and open to the same values, and
// re-encode byte for byte — the representation did not move.
func TestAdoptsParentWireVectors(t *testing.T) {
	for _, v := range []struct {
		p    shamir.Params
		want int64
		wire string
	}{
		{shamir.Params{K: 3, N: 7, W: 1}, 123456789, "39011cc9a864e9143745101cb2c20034e1861b9fca07729735961f52ee35403b33761b361f4b6920db260f495d49ed482ca61b8ca830ccb127f5"},
		{shamir.Params{K: 2, N: 6, W: 1}, -42, "31010385f60162a3494512efa2567cdd67b202594eab9717862011c2fb00b151a48d012ca755cb8bc2fb109653aae5c5e168"},
		{shamir.Params{K: 2, N: 8, W: 3}, 1<<60 - 1, "4101034f827d402f575910b7a82479babd220b251ac2fbd1d36a16f730b9dd632420188d406a355d39351446a0351aae9c990e82a67ba445d83c0ba0a99ee911760e"},
	} {
		s := newScheme(t, v.p)
		wire, err := hex.DecodeString(v.wire)
		if err != nil {
			t.Fatal(err)
		}
		dec, n, err := homo.ReadCiphertext(wire)
		if err != nil || n != len(wire) {
			t.Fatalf("%s: ReadCiphertext consumed %d of %d bytes, err %v", s.Name(), n, len(wire), err)
		}
		c, err := s.Adopt(dec)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if got := s.DecryptSigned(c).Int64(); got != v.want {
			t.Fatalf("%s: parent's vector opens to %d, want %d", s.Name(), got, v.want)
		}
		if got := s.DecryptSigned(s.Rerandomize(s.Sub(s.Add(c, c), c))).Int64(); got != v.want {
			t.Fatalf("%s: arithmetic on the parent's vector gives %d, want %d", s.Name(), got, v.want)
		}
		if !bytes.Equal(s.AppendCiphertext(nil, c), wire) {
			t.Fatalf("%s: adopted vector re-encodes differently", s.Name())
		}
	}
}
