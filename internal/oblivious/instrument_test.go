package oblivious

import (
	"math/big"
	"sync"
	"testing"

	"secmr/internal/homo"
	"secmr/internal/obs"
	"secmr/internal/shamir"
)

func TestInstrumentSchemeCountsAndDelegates(t *testing.T) {
	inner := homo.NewPlain(64)
	sink := obs.NewSink()
	s := InstrumentScheme(inner, sink)
	if s.Name() != inner.Name() {
		t.Fatalf("name = %q, want %q", s.Name(), inner.Name())
	}

	a := s.EncryptInt(5)
	b := s.EncryptInt(7)
	sum := s.Add(a, b)
	if got := s.DecryptSigned(sum).Int64(); got != 12 {
		t.Fatalf("decrypt(add) = %d, want 12", got)
	}
	diff := s.Sub(a, b)
	if got := s.DecryptSigned(diff).Int64(); got != -2 {
		t.Fatalf("decrypt(sub) = %d, want -2", got)
	}
	if got := s.DecryptSigned(s.ScalarMul(3, a)).Int64(); got != 15 {
		t.Fatalf("decrypt(3*a) = %d, want 15", got)
	}
	if got := s.DecryptSigned(s.Rerandomize(a)).Int64(); got != 5 {
		t.Fatalf("decrypt(rerand) = %d, want 5", got)
	}
	if got := s.Decrypt(s.EncryptZero()).Sign(); got != 0 {
		t.Fatalf("decrypt(zero) = %d, want 0", got)
	}
	if got := s.Decrypt(s.Encrypt(big.NewInt(9))).Int64(); got != 9 {
		t.Fatalf("decrypt(encrypt) = %d, want 9", got)
	}
	if s.PlaintextSpace().Cmp(inner.PlaintextSpace()) != 0 {
		t.Fatal("plaintext space not delegated")
	}
	// A counter of 4+2 fields: one batch of six zeros, then an addition
	// that counts as six single adds.
	c := NewZero(s, 2)
	Add(s, c, c)

	want := map[string]float64{
		"add": 7, "sub": 1, "scalar_mul": 1, "rerandomize": 1,
		"encrypt_zero": 1, "encrypt": 3, "decrypt": 6, "encrypt_zero_vec": 6,
	}
	got := map[string]float64{}
	for _, p := range sink.Reg.Snapshot() {
		if p.Name == "secmr_crypto_ops_total" {
			got[labelValue(p.Labels, "op")] = p.Value
		}
	}
	for op, n := range want {
		if got[op] != n {
			t.Fatalf("op %s count = %v, want %v (all: %v)", op, got[op], n, got)
		}
	}
	for op, n := range got {
		if _, ok := want[op]; !ok && n != 0 {
			t.Fatalf("op %s counted %v, want no such op (all: %v)", op, n, got)
		}
	}

	// Adoption passes through to the inner scheme.
	ad, ok := s.(homo.Adopter)
	if !ok {
		t.Fatal("instrumented scheme must implement Adopter")
	}
	adopted, err := ad.Adopt(&homo.Ciphertext{V: new(big.Int).Set(a.V)})
	if err != nil {
		t.Fatalf("adopt: %v", err)
	}
	if gotV := s.DecryptSigned(adopted).Int64(); gotV != 5 {
		t.Fatalf("decrypt(adopted) = %d, want 5", gotV)
	}
}

func TestInstrumentSchemeCryptoTraceIsExplicitOnly(t *testing.T) {
	sink := obs.NewSink()
	s := InstrumentScheme(homo.NewPlain(64), sink)
	s.EncryptInt(1)
	if sink.Tr.Len() != 0 {
		t.Fatal("crypto events traced without explicit enable")
	}
	sink.Tr.SetFilter(obs.Filter{Types: []obs.EventType{obs.EvCryptoOp}})
	s.EncryptInt(1)
	evs := sink.Tr.Events(obs.Filter{})
	if len(evs) != 1 || evs[0].Type != obs.EvCryptoOp || evs[0].Detail != "encrypt" {
		t.Fatalf("crypto trace wrong: %+v", evs)
	}
}

// TestInstrumentSchemeCryptoTraceToggleUnderLoad flips EvCryptoOp on
// and off while several goroutines run ops through the decorator, whose
// every op reads the filter without the tracer's lock. Run with -race.
func TestInstrumentSchemeCryptoTraceToggleUnderLoad(t *testing.T) {
	sink := obs.NewSink()
	s := InstrumentScheme(homo.NewPlain(64), sink)
	on := obs.Filter{Types: []obs.EventType{obs.EvCryptoOp}}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s.Add(s.EncryptInt(int64(i)), s.EncryptZero())
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			sink.Tr.SetFilter(on)
		} else {
			sink.Tr.SetFilter(obs.Filter{})
		}
	}
	wg.Wait()

	sink.Tr.SetFilter(obs.Filter{})
	before := sink.Tr.Len()
	s.EncryptInt(1)
	if sink.Tr.Len() != before {
		t.Fatal("crypto op traced after EvCryptoOp was switched off")
	}
	sink.Tr.SetFilter(on)
	s.EncryptInt(1)
	if sink.Tr.Len() != before+1 {
		t.Fatal("crypto op not traced after EvCryptoOp was switched on")
	}
}

func TestInstrumentSchemeNilSinkIsIdentity(t *testing.T) {
	inner := homo.NewPlain(64)
	if s := InstrumentScheme(inner, nil); s != homo.Scheme(inner) {
		t.Fatal("nil sink must return the scheme unwrapped")
	}
}

// labelValue extracts one label's value from a rendered label string
// like `op="add",scheme="plain"`.
func labelValue(labels, key string) string {
	for _, part := range splitLabels(labels) {
		if len(part) > len(key)+2 && part[:len(key)] == key {
			return part[len(key)+2 : len(part)-1]
		}
	}
	return ""
}

func splitLabels(s string) []string {
	var out []string
	start, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// TestInstrumentedLinCombMismatchPanicsLikeHelper: a coeffs/xs length
// mismatch through the decorator panics with homo.LinCombInto's
// message, not the inner Shamir kernel's.
func TestInstrumentedLinCombMismatchPanicsLikeHelper(t *testing.T) {
	sh := shamir.MustNew(shamir.Params{K: 2, N: 5, W: 1})
	a := sh.EncryptInt(1)
	want := func() (msg any) {
		defer func() { msg = recover() }()
		homo.LinCombInto(sh, nil, []int64{1, 2}, []*homo.Ciphertext{a})
		return nil
	}()
	if want == nil {
		t.Fatal("homo.LinCombInto accepted a length mismatch")
	}
	s := InstrumentScheme(sh, obs.NewSink()).(homo.LinCombiner)
	got := func() (msg any) {
		defer func() { msg = recover() }()
		s.LinCombInto(nil, []int64{1, 2}, []*homo.Ciphertext{a})
		return nil
	}()
	if got != want {
		t.Fatalf("instrumented LinCombInto panicked with %v, want %v", got, want)
	}
}

// capCounting is a Shamir scheme that counts calls into its
// destination-passing capabilities and into the single ops the homo
// helpers fall back to when a capability is missing.
type capCounting struct {
	*shamir.Scheme
	lin, encInto, rerandInto, decInto int
	fallback                          int
}

func (c *capCounting) LinCombInto(dst *homo.Ciphertext, ms []int64, xs []*homo.Ciphertext) *homo.Ciphertext {
	c.lin++
	return c.Scheme.LinCombInto(dst, ms, xs)
}

func (c *capCounting) EncryptIntInto(dst *homo.Ciphertext, m int64) *homo.Ciphertext {
	c.encInto++
	return c.Scheme.EncryptIntInto(dst, m)
}

func (c *capCounting) RerandomizeInto(dst, a *homo.Ciphertext) *homo.Ciphertext {
	c.rerandInto++
	return c.Scheme.RerandomizeInto(dst, a)
}

func (c *capCounting) DecryptSignedInto(dst *big.Int, x *homo.Ciphertext) *big.Int {
	c.decInto++
	return c.Scheme.DecryptSignedInto(dst, x)
}

func (c *capCounting) Add(a, b *homo.Ciphertext) *homo.Ciphertext {
	c.fallback++
	return c.Scheme.Add(a, b)
}

func (c *capCounting) Sub(a, b *homo.Ciphertext) *homo.Ciphertext {
	c.fallback++
	return c.Scheme.Sub(a, b)
}

func (c *capCounting) ScalarMul(m int64, a *homo.Ciphertext) *homo.Ciphertext {
	c.fallback++
	return c.Scheme.ScalarMul(m, a)
}

func (c *capCounting) EncryptInt(m int64) *homo.Ciphertext {
	c.fallback++
	return c.Scheme.EncryptInt(m)
}

func (c *capCounting) Rerandomize(a *homo.Ciphertext) *homo.Ciphertext {
	c.fallback++
	return c.Scheme.Rerandomize(a)
}

func (c *capCounting) DecryptSigned(x *homo.Ciphertext) *big.Int {
	c.fallback++
	return c.Scheme.DecryptSigned(x)
}

// TestInstrumentedIntoOpsReachCapability: behind the decorator every
// LinCombInto, EncryptIntInto, RerandomizeInto and DecryptSignedInto —
// untimed, sampled and traced alike — reaches the inner scheme's own
// capability, never the homo helpers' fallback.
func TestInstrumentedIntoOpsReachCapability(t *testing.T) {
	sh := shamir.MustNew(shamir.Params{K: 2, N: 5, W: 1})
	inner, sink := &capCounting{Scheme: sh}, obs.NewSink()
	s := InstrumentScheme(inner, sink)
	a, b, dst := sh.EncryptInt(3), sh.EncryptInt(4), sh.EncryptInt(0)
	xs, coeffs := []*homo.Ciphertext{a, b}, []int64{2, -1}
	v := new(big.Int)
	const calls = 2*sampleEvery + 1
	run := func() {
		for i := 0; i < calls; i++ {
			homo.LinCombInto(s, dst, coeffs, xs)
			homo.EncryptIntInto(s, dst, 5)
			homo.RerandomizeInto(s, dst, a)
			if homo.DecryptSignedInto(s, v, dst).Int64() != 3 {
				t.Fatalf("refresh of 3 opened to %d", v.Int64())
			}
		}
	}
	run()
	sink.Tr.SetFilter(obs.Filter{Types: []obs.EventType{obs.EvCryptoOp}})
	run()
	for name, got := range map[string]int{"LinCombInto": inner.lin, "EncryptIntInto": inner.encInto,
		"RerandomizeInto": inner.rerandInto, "DecryptSignedInto": inner.decInto} {
		if got != 2*calls {
			t.Errorf("%s reached the inner capability %d times of %d", name, got, 2*calls)
		}
	}
	if inner.fallback != 0 {
		t.Errorf("%d calls took the helpers' fallback", inner.fallback)
	}
}

// BenchmarkInstrumentedLinCombInto: the decorator's cost on the op
// secmrd's brokers call most, a five-operand fused combination into a
// destination over Shamir 3-of-7, bare against instrumented.
func BenchmarkInstrumentedLinCombInto(b *testing.B) {
	sh := shamir.MustNew(shamir.Params{K: 3, N: 7, W: 1})
	xs := make([]*homo.Ciphertext, 5)
	for i := range xs {
		xs[i] = sh.EncryptInt(int64(i + 1))
	}
	coeffs := []int64{1, -1, 2, 1, -3}
	dst := sh.EncryptInt(0)
	for _, bc := range []struct {
		name   string
		scheme homo.Scheme
	}{
		{"bare", sh},
		{"instrumented", InstrumentScheme(sh, obs.NewSink())},
	} {
		lc := bc.scheme.(homo.LinCombiner)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lc.LinCombInto(dst, coeffs, xs)
			}
		})
	}
}
