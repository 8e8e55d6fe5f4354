package oblivious

import (
	"math"
	"testing"
	"time"

	"secmr/internal/homo"
	"secmr/internal/obs"
	"secmr/internal/shamir"
)

// fakeClock replaces the decorator's clock with one that advances by
// tick on every read, so a timed call lasts exactly one tick, and
// returns the number of reads so far.
func fakeClock(t *testing.T, tick time.Duration) func() int {
	reads := 0
	old := now
	now = func() time.Time {
		reads++
		return time.Unix(0, 0).Add(time.Duration(reads) * tick)
	}
	t.Cleanup(func() { now = old })
	return func() int { return reads }
}

// opSeries returns one op's exact count and its histogram.
func opSeries(sink *obs.Sink, scheme, op string) (*obs.Counter, *obs.Histogram) {
	return sink.Reg.Counter("secmr_crypto_ops_total", "", "op", op, "scheme", scheme),
		sink.Reg.Histogram("secmr_crypto_op_seconds", "", obs.DefLatencyBuckets, "op", op, "scheme", scheme)
}

// TestInstrumentSchemeSamplesOneIn64: secmr_crypto_ops_total counts
// every call of every op exactly, while only the call that takes an op's
// own count to a multiple of 64 reads the clock; it is recorded with
// weight 64, so _count trails the exact count by 0–63 and _sum is 64 ×
// the timed samples' sum. A batch counts its elements and is timed when
// it crosses a multiple, its per-element latency weighted likewise.
func TestInstrumentSchemeSamplesOneIn64(t *testing.T) {
	const tick = time.Microsecond
	reads := fakeClock(t, tick)
	inner := homo.NewPlain(64)
	sink := obs.NewSink()
	s := InstrumentScheme(inner, sink)
	a, b := inner.EncryptInt(3), inner.EncryptInt(4)
	calls := map[string]int{"add": 1000, "encrypt": 130, "decrypt": 63, "lincomb": 64}
	for i := 0; i < calls["add"]; i++ {
		s.Add(a, b)
	}
	for i := 0; i < calls["encrypt"]; i++ {
		s.EncryptInt(int64(i))
	}
	for i := 0; i < calls["decrypt"]; i++ {
		s.DecryptSigned(a)
	}
	for i := 0; i < calls["lincomb"]; i++ {
		homo.LinCombInto(s, nil, []int64{2, -1}, []*homo.Ciphertext{a, b})
	}
	timed := 0
	for op, n := range calls {
		total, lat := opSeries(sink, inner.Name(), op)
		samples := n / sampleEvery
		timed += samples
		if total.Value() != int64(n) {
			t.Fatalf("%s: ops_total %d, want the exact %d", op, total.Value(), n)
		}
		if lag := total.Value() - lat.Count(); lag < 0 || lag >= sampleEvery || lat.Count() != int64(samples*sampleEvery) {
			t.Fatalf("%s: _count %d against %d ops, want %d", op, lat.Count(), n, samples*sampleEvery)
		}
		if want := float64(sampleEvery*samples) * tick.Seconds(); math.Abs(lat.Sum()-want) > 1e-12 {
			t.Fatalf("%s: _sum %g, want 64 × %d timed samples of %v = %g", op, lat.Sum(), samples, tick, want)
		}
	}
	if got := reads(); got != 2*timed {
		t.Fatalf("%d clock reads for %d timed calls: an untimed call read the clock", got, timed)
	}

	// Twenty batches of ten: 200 elements cross 64, 128 and 192.
	for i := 0; i < 20; i++ {
		homo.EncryptZeroVec(s, 10)
	}
	total, lat := opSeries(sink, inner.Name(), "encrypt_zero_vec")
	if total.Value() != 200 || lat.Count() != 192 {
		t.Fatalf("encrypt_zero_vec: ops_total %d, _count %d; want 200 and 192", total.Value(), lat.Count())
	}
	if want := 192 * tick.Seconds() / 10; math.Abs(lat.Sum()-want) > 1e-12 {
		t.Fatalf("encrypt_zero_vec: _sum %g, want 192 elements × %v / 10", lat.Sum(), tick)
	}
}

// TestInstrumentSchemeTracedTimesEveryOp: with EvCryptoOp listed in the
// tracer's filter every op is timed, recorded with weight 1 and emitted.
func TestInstrumentSchemeTracedTimesEveryOp(t *testing.T) {
	const tick = time.Microsecond
	fakeClock(t, tick)
	inner := homo.NewPlain(64)
	sink := obs.NewSink()
	sink.Tr.SetFilter(obs.Filter{Types: []obs.EventType{obs.EvCryptoOp}})
	s := InstrumentScheme(inner, sink)
	a := inner.EncryptInt(1)
	for i := 0; i < 10; i++ {
		s.Rerandomize(a)
	}
	total, lat := opSeries(sink, inner.Name(), "rerandomize")
	if total.Value() != 10 || lat.Count() != 10 {
		t.Fatalf("ops_total %d, _count %d; want both 10", total.Value(), lat.Count())
	}
	if want := 10 * tick.Seconds(); math.Abs(lat.Sum()-want) > 1e-12 {
		t.Fatalf("_sum %g, want %g", lat.Sum(), want)
	}
	evs := sink.Tr.Events(obs.Filter{Types: []obs.EventType{obs.EvCryptoOp}})
	if len(evs) != 10 {
		t.Fatalf("%d crypto_op events for 10 ops", len(evs))
	}
	for _, ev := range evs {
		if ev.Detail != "rerandomize" || ev.Dur != tick.Nanoseconds() {
			t.Fatalf("event %+v, want detail rerandomize and dur %d", ev, tick.Nanoseconds())
		}
	}
}

// TestInstrumentedIntoOpsAllocateNothing: behind the decorator, with a
// destination, the fused combination, the encrypt-into and the
// refresh-into allocate nothing, timed calls included.
func TestInstrumentedIntoOpsAllocateNothing(t *testing.T) {
	sh := shamir.MustNew(shamir.Params{K: 2, N: 5, W: 1})
	s := InstrumentScheme(sh, obs.NewSink())
	a, b, dst := sh.EncryptInt(1), sh.EncryptInt(2), sh.EncryptInt(0)
	xs, coeffs := []*homo.Ciphertext{a, b}, []int64{2, -3}
	lc := s.(homo.LinCombiner)
	enc := s.(homo.IntoEncryptor)
	rr := s.(homo.IntoRerandomizer)
	for name, op := range map[string]func(){
		"LinCombInto":     func() { lc.LinCombInto(dst, coeffs, xs) },
		"EncryptIntInto":  func() { enc.EncryptIntInto(dst, 7) },
		"RerandomizeInto": func() { rr.RerandomizeInto(dst, a) },
	} {
		// 640 runs: ten of them timed.
		if n := testing.AllocsPerRun(640, op); n != 0 {
			t.Errorf("instrumented %s allocates %.2f per call", name, n)
		}
	}
	if got := sh.DecryptSigned(rr.RerandomizeInto(dst, b)).Int64(); got != 2 {
		t.Fatalf("RerandomizeInto opened to %d, want 2", got)
	}
}
