package homo_test

// Cross-checks of the batch capability against the serial operations:
// for every *Vec helper and every cryptosystem, the batched result must
// decrypt to exactly what the serial elementwise loop produces. The
// tests run in the external test package so they can instantiate the
// real schemes (paillier imports homo).

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secmr/internal/homo"
	"secmr/internal/paillier"
)

// testScheme bundles one cryptosystem instance for the table-driven
// cross-checks.
type testScheme struct {
	name   string
	scheme homo.Scheme
	batch  bool // expected to implement homo.BatchScheme
}

// bound limits plaintext magnitude so sums and products stay inside the
// narrowest signed plaintext range (Plain-62).
const bound = 1 << 30

var (
	schemesOnce sync.Once
	testSchemes []testScheme
)

// allSchemes generates one key pair per cryptosystem, shared across
// the cross-check tests (keygen dominates test time otherwise).
func allSchemes(t *testing.T) []testScheme {
	t.Helper()
	schemesOnce.Do(func() {
		p, err := paillier.GenerateKey(rand.Reader, 256)
		if err != nil {
			panic(err)
		}
		testSchemes = []testScheme{
			{"paillier", p, true},
			{"plain", homo.NewPlain(62), false},
		}
	})
	return testSchemes
}

// randVec draws n signed plaintexts within ±bound from a seeded rng.
func randVec(rng *mrand.Rand, n int, bound int64) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = big.NewInt(rng.Int63n(2*bound+1) - bound)
	}
	return out
}

func TestBatchCapabilityPresence(t *testing.T) {
	for _, ts := range allSchemes(t) {
		_, ok := ts.scheme.(homo.BatchScheme)
		if ok != ts.batch {
			t.Errorf("%s: BatchScheme assertion = %v, want %v", ts.name, ok, ts.batch)
		}
	}
}

func TestEncryptVecMatchesSerial(t *testing.T) {
	for _, ts := range allSchemes(t) {
		t.Run(ts.name, func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(7))
			ms := randVec(rng, 33, bound)
			cs := homo.EncryptVec(ts.scheme, ms)
			if len(cs) != len(ms) {
				t.Fatalf("EncryptVec returned %d ciphertexts for %d plaintexts", len(cs), len(ms))
			}
			for i, c := range cs {
				if got := ts.scheme.DecryptSigned(c); got.Cmp(ms[i]) != 0 {
					t.Fatalf("slot %d: decrypt %v, want %v", i, got, ms[i])
				}
			}
		})
	}
}

func TestAddVecMatchesSerial(t *testing.T) {
	for _, ts := range allSchemes(t) {
		t.Run(ts.name, func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(11))
			xs := randVec(rng, 29, bound/2)
			ys := randVec(rng, 29, bound/2)
			ca := homo.EncryptVec(ts.scheme, xs)
			cb := homo.EncryptVec(ts.scheme, ys)
			batch := homo.AddVec(ts.scheme, ca, cb)
			for i := range batch {
				serial := ts.scheme.Add(ca[i], cb[i])
				got, want := ts.scheme.DecryptSigned(batch[i]), ts.scheme.DecryptSigned(serial)
				if got.Cmp(want) != 0 {
					t.Fatalf("slot %d: batch %v, serial %v", i, got, want)
				}
				sum := new(big.Int).Add(xs[i], ys[i])
				if got.Cmp(sum) != 0 {
					t.Fatalf("slot %d: decrypt %v, want plaintext sum %v", i, got, sum)
				}
			}
		})
	}
}

func TestRerandomizeVecPreservesPlaintext(t *testing.T) {
	for _, ts := range allSchemes(t) {
		t.Run(ts.name, func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(13))
			ms := randVec(rng, 21, bound)
			cs := homo.EncryptVec(ts.scheme, ms)
			rr := homo.RerandomizeVec(ts.scheme, cs)
			for i := range rr {
				if got := ts.scheme.DecryptSigned(rr[i]); got.Cmp(ms[i]) != 0 {
					t.Fatalf("slot %d: rerandomized decrypt %v, want %v", i, got, ms[i])
				}
			}
		})
	}
}

func TestScalarVecMatchesSerial(t *testing.T) {
	for _, ts := range allSchemes(t) {
		t.Run(ts.name, func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(17))
			// Keep |m·x| within the decryptable bound.
			ms := make([]int64, 25)
			for i := range ms {
				ms[i] = rng.Int63n(15) - 7
			}
			xs := randVec(rng, 25, bound/16)
			cs := homo.EncryptVec(ts.scheme, xs)
			batch := homo.ScalarVec(ts.scheme, ms, cs)
			for i := range batch {
				serial := ts.scheme.ScalarMul(ms[i], cs[i])
				got, want := ts.scheme.DecryptSigned(batch[i]), ts.scheme.DecryptSigned(serial)
				if got.Cmp(want) != 0 {
					t.Fatalf("slot %d: batch %v, serial %v", i, got, want)
				}
				prod := new(big.Int).Mul(big.NewInt(ms[i]), xs[i])
				if got.Cmp(prod) != 0 {
					t.Fatalf("slot %d: decrypt %v, want %v", i, got, prod)
				}
			}
		})
	}
}

func TestEncryptZeroVec(t *testing.T) {
	for _, ts := range allSchemes(t) {
		t.Run(ts.name, func(t *testing.T) {
			for i, c := range homo.EncryptZeroVec(ts.scheme, 18) {
				if got := ts.scheme.DecryptSigned(c); got.Sign() != 0 {
					t.Fatalf("slot %d: encryption of zero decrypts to %v", i, got)
				}
			}
		})
	}
}

// serialOnly hides the batch capability of an embedded scheme, forcing
// the package-level helpers down the serial fallback.
type serialOnly struct{ homo.Scheme }

func TestSerialFallback(t *testing.T) {
	for _, ts := range allSchemes(t) {
		t.Run(ts.name, func(t *testing.T) {
			s := serialOnly{ts.scheme}
			if _, ok := interface{}(s).(homo.BatchPublic); ok {
				t.Fatal("serialOnly must not satisfy BatchPublic")
			}
			rng := mrand.New(mrand.NewSource(19))
			ms := randVec(rng, 9, bound/2)
			ca := homo.EncryptVec(s, ms)
			cb := homo.AddVec(s, ca, homo.EncryptZeroVec(s, len(ca)))
			cb = homo.RerandomizeVec(s, cb)
			for i := range cb {
				if got := ts.scheme.DecryptSigned(cb[i]); got.Cmp(ms[i]) != 0 {
					t.Fatalf("slot %d: fallback pipeline decrypts to %v, want %v", i, got, ms[i])
				}
			}
		})
	}
}

func TestVecLengthMismatchPanics(t *testing.T) {
	ts := allSchemes(t)[0]
	cs := homo.EncryptZeroVec(ts.scheme, 3)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic on length mismatch", name)
			}
		}()
		f()
	}
	mustPanic("AddVec", func() { homo.AddVec(ts.scheme, cs, cs[:2]) })
	mustPanic("ScalarVec", func() { homo.ScalarVec(ts.scheme, []int64{1}, cs) })
}

// TestConcurrentBatchOps hammers one scheme with concurrent batch
// calls; run under -race it proves the shared worker pool, the scratch
// sync.Pools and the lazy fixed-base tables are data-race free.
func TestConcurrentBatchOps(t *testing.T) {
	for _, ts := range allSchemes(t) {
		if !ts.batch {
			continue
		}
		t.Run(ts.name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := mrand.New(mrand.NewSource(seed))
					ms := randVec(rng, 12, bound/2)
					cs := homo.EncryptVec(ts.scheme, ms)
					cs = homo.AddVec(ts.scheme, cs, homo.EncryptZeroVec(ts.scheme, len(cs)))
					cs = homo.RerandomizeVec(ts.scheme, cs)
					for i := range cs {
						if got := ts.scheme.DecryptSigned(cs[i]); got.Cmp(ms[i]) != 0 {
							t.Errorf("goroutine %d slot %d: decrypt %v, want %v", seed, i, got, ms[i])
							return
						}
					}
				}(int64(g))
			}
			wg.Wait()
		})
	}
}

// TestWorkerOverride exercises ParallelFor at explicit widths — 1 is
// the inline path, 2 and 8 the pooled one — by moving GOMAXPROCS, the
// only thing that sets the width: batch and serial plaintexts agree at
// each.
func TestWorkerOverride(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ts := allSchemes(t)[0]
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		ms := randVec(mrand.New(mrand.NewSource(int64(w))), 10, 1<<20)
		for i, c := range homo.EncryptVec(ts.scheme, ms) {
			if got := ts.scheme.DecryptSigned(c); got.Cmp(ms[i]) != 0 {
				t.Fatalf("workers=%d slot %d: decrypt %v, want %v", w, i, got, ms[i])
			}
		}
	}
}

// TestNestedParallelForCompletes: a ParallelFor called inside a pool
// task must finish — the Paillier noise draw splits its product this
// way inside EncryptZeroVec. With a buffered hand-off,
// ParallelFor(4, …ParallelFor(2, …)) under GOMAXPROCS 2 queued helpers
// that no idle worker would take, and hung at the outer call.
func TestNestedParallelForCompletes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range []int{2, 4} {
		runtime.GOMAXPROCS(w)
		var calls atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for rep := 0; rep < 50; rep++ {
				homo.ParallelFor(4, func(int) {
					homo.ParallelFor(2, func(int) {
						homo.ParallelFor(2, func(int) { calls.Add(1) })
					})
				})
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("GOMAXPROCS %d: nested ParallelFor still running after 10 s (deadlock)", w)
		}
		if got := calls.Load(); got != 50*4*2*2 {
			t.Fatalf("GOMAXPROCS %d: %d innermost calls, want %d", w, got, 50*4*2*2)
		}
	}
}
