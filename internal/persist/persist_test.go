package persist

import (
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secmr/internal/arm"
	"secmr/internal/core"
	"secmr/internal/faults"
	"secmr/internal/hashing"
	"secmr/internal/homo"
	"secmr/internal/metrics"
	"secmr/internal/paillier"
	"secmr/internal/quest"
	"secmr/internal/shamir"
	"secmr/internal/sim"
	"secmr/internal/topology"
)

// fixture is an in-process secure grid where every resource journals
// to its own directory under base.
type fixture struct {
	engine *sim.Engine
	res    []*core.Resource
	jnl    []*Journal
	dirs   []string
	cfg    core.Config
	scheme homo.Scheme
	truth  arm.RuleSet
	opt    Options
}

func buildGrid(t testing.TB, base string, n int, seed int64, opt Options) *fixture {
	t.Helper()
	scheme := homo.NewPlain(96)
	opt.Keys = scheme
	rng := rand.New(rand.NewSource(seed))
	params := quest.Params{NumTransactions: n * 150, NumItems: 20, NumPatterns: 8,
		AvgTransLen: 5, AvgPatternLen: 2, Seed: seed}
	global := quest.Generate(params)
	th := arm.Thresholds{MinFreq: 0.15, MinConf: 0.7}
	universe := arm.Itemset{}
	for i := 0; i < params.NumItems; i++ {
		universe = append(universe, arm.Item(i))
	}
	truth := arm.GroundTruth(global, th, universe, 3)
	parts := hashing.Partition(global, n, rng)
	tree := topology.RandomTree(n, topology.DelayRange{Min: 1, Max: 2}, rng)
	cfg := core.Config{Th: th, Universe: universe, ScanBudget: 50, CandidateEvery: 5,
		K: 2, MaxRuleItems: 3, IntraDelay: true, LossyLinks: true}

	f := &fixture{cfg: cfg, scheme: scheme, truth: truth, opt: opt}
	nodes := make([]sim.Node, n)
	for i := 0; i < n; i++ {
		dir := filepath.Join(base, "node-"+string(rune('0'+i)))
		r := core.NewResource(i, cfg, scheme, parts[i], nil, nil)
		j, err := Open(dir, i, opt)
		if err != nil {
			t.Fatalf("open journal %d: %v", i, err)
		}
		r.SetJournal(j)
		f.res = append(f.res, r)
		f.jnl = append(f.jnl, j)
		f.dirs = append(f.dirs, dir)
		nodes[i] = r
	}
	f.engine = sim.NewEngine(tree, nodes, seed)
	return f
}

func (f *fixture) quality() (float64, float64) {
	outs := make([]arm.RuleSet, len(f.res))
	for i, r := range f.res {
		outs[i] = r.Output()
	}
	return metrics.Average(outs, f.truth)
}

func (f *fixture) closeAll(t testing.TB) {
	t.Helper()
	for i, j := range f.jnl {
		f.res[i].SetJournal(nil)
		if err := j.Close(); err != nil {
			t.Fatalf("journal %d: %v", i, err)
		}
	}
}

// TestJournalLifecycle runs a journaled grid long enough to cycle
// generations and checks the on-disk invariants: one snapshot, one
// paired WAL, superseded logs removed, no degraded journals.
func TestJournalLifecycle(t *testing.T) {
	f := buildGrid(t, t.TempDir(), 3, 3, Options{SnapshotEvery: 20, FsyncEvery: 8})
	f.engine.Run(70)
	f.closeAll(t)
	for i, dir := range f.dirs {
		info, err := Inspect(dir)
		if err != nil {
			t.Fatalf("inspect %d: %v", i, err)
		}
		if info.NodeID != i {
			t.Fatalf("dir %s claims node %d", dir, info.NodeID)
		}
		// Bootstrap snapshot (gen 1) + at least 3 timer snapshots.
		if info.Gen < 3 {
			t.Fatalf("node %d: generation %d after 70 ticks at SnapshotEvery=20", i, info.Gen)
		}
		if info.SchemeKind != "plain" {
			t.Fatalf("node %d: scheme %q", i, info.SchemeKind)
		}
		logs, _ := filepath.Glob(filepath.Join(dir, "wal.*.log"))
		if len(logs) != 1 {
			t.Fatalf("node %d: %d WAL files (want exactly the current generation): %v", i, len(logs), logs)
		}
	}
}

// TestRecoverMatchesLive rebuilds one resource from disk and checks
// its protocol state agrees with the live instance: identical output
// set and identical decrypted aggregates for every ground-truth rule.
func TestRecoverMatchesLive(t *testing.T) {
	f := buildGrid(t, t.TempDir(), 4, 5, Options{SnapshotEvery: 25, FsyncEvery: 8})
	f.engine.Run(90)
	const id = 2
	live := f.res[id]
	live.SetJournal(nil)
	f.jnl[id].Close()

	rec, stats, err := Recover(f.dirs[id], RecoverOptions{Cfg: f.cfg, Scheme: f.scheme})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if stats.ReplayedEvents == 0 {
		t.Fatal("recovery replayed nothing: WAL tail lost")
	}
	// stats.ClockLease may legitimately be 0 here: the initial lease
	// record lands in the pre-bootstrap WAL generation, and the snapshot
	// itself carries the lease forward (EncodeState encodes clockLease) —
	// a fresh record only appears once the clock outruns the reservation.
	liveOut, recOut := live.Output(), rec.Output()
	if len(liveOut) != len(recOut) {
		t.Fatalf("output diverged: live %d rules, recovered %d", len(liveOut), len(recOut))
	}
	for _, r := range liveOut.Sorted() {
		if !recOut.Has(r) {
			t.Fatalf("recovered output lost rule %s", r.Key())
		}
	}
	for _, r := range f.truth.Sorted() {
		s1, c1, n1, ok1 := live.Broker.DebugAggregate(r.Key())
		s2, c2, n2, ok2 := rec.Broker.DebugAggregate(r.Key())
		if ok1 != ok2 {
			t.Fatalf("rule %s: candidate presence diverged", r.Key())
		}
		if s1 != s2 || c1 != c2 || n1 != n2 {
			t.Fatalf("rule %s: aggregate (%d,%d,%d) recovered as (%d,%d,%d)",
				r.Key(), s1, c1, n1, s2, c2, n2)
		}
	}
}

// TestTornTailRecovery is the acceptance-criterion case: a crash tears
// the final WAL record mid-frame; recovery must treat the torn tail as
// a clean end of log, and a re-opened journal must truncate it before
// appending.
func TestTornTailRecovery(t *testing.T) {
	f := buildGrid(t, t.TempDir(), 3, 7, Options{SnapshotEvery: 1000, FsyncEvery: 4})
	f.engine.Run(40)
	f.closeAll(t)
	const id = 1
	logs, _ := filepath.Glob(filepath.Join(f.dirs[id], "wal.*.log"))
	if len(logs) != 1 {
		t.Fatalf("expected one WAL, got %v", logs)
	}
	data, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	whole, _ := ScanFramed(data)
	if len(whole) < 10 {
		t.Fatalf("test needs a populated WAL, got %d records", len(whole))
	}

	// Tear the final record mid-frame.
	if err := os.WriteFile(logs[0], data[:len(data)-3], 0o600); err != nil {
		t.Fatal(err)
	}
	rec, stats, err := Recover(f.dirs[id], RecoverOptions{Cfg: f.cfg, Scheme: f.scheme})
	if err != nil {
		t.Fatalf("recover over torn tail: %v", err)
	}
	if rec == nil || stats.ReplayedEvents != len(whole)-1 {
		t.Fatalf("replayed %d records over torn tail, want %d", stats.ReplayedEvents, len(whole)-1)
	}

	// Garbage after the tear must not resurrect: reattach, append, and
	// check the log parses end to end.
	j, err := Open(f.dirs[id], id, Options{SnapshotEvery: 1000, FsyncEvery: 1, Keys: f.scheme})
	if err != nil {
		t.Fatal(err)
	}
	j.LogTick()
	j.LogTick()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	records, valid := ScanFramed(data)
	if valid != len(data) {
		t.Fatalf("reattached WAL has %d unreadable trailing bytes", len(data)-valid)
	}
	if len(records) != len(whole)-1+2 {
		t.Fatalf("reattached WAL has %d records, want %d", len(records), len(whole)+1)
	}
}

// TestAmnesiaRecoveryConverges is the sim-level chaos path: a node is
// crashed with amnesia mid-run, restarted from its snapshot+WAL alone
// through the engine's Recover hook, and the grid must still reach the
// exact mining result with no malicious reports.
func TestAmnesiaRecoveryConverges(t *testing.T) {
	f := buildGrid(t, t.TempDir(), 5, 11, Options{SnapshotEvery: 30, FsyncEvery: 8})
	inj := faults.New(faults.Config{Seed: 11})
	f.engine.Inject = inj
	const victim = 3
	f.engine.Recover = func(id sim.NodeID) sim.Node {
		// The wiped instance's journal still holds the WAL open; release
		// it before recovery reopens the directory.
		f.jnl[id].Close()
		res, _, err := Recover(f.dirs[id], RecoverOptions{Cfg: f.cfg, Scheme: f.scheme})
		if err != nil {
			t.Errorf("recover node %d: %v", id, err)
			return nil
		}
		j, err := Open(f.dirs[id], id, f.opt)
		if err != nil {
			t.Errorf("reopen journal %d: %v", id, err)
			return nil
		}
		res.SetJournal(j)
		f.res[id], f.jnl[id] = res, j
		return res
	}

	f.engine.Run(80)
	inj.CrashAmnesia(victim)
	f.engine.Run(30)
	inj.Restart(victim)

	rec, prec := 0.0, 0.0
	for step := 0; step < 2000; step += 50 {
		f.engine.Run(50)
		if rec, prec = f.quality(); rec >= 0.95 && prec >= 0.95 {
			break
		}
	}
	if rec < 0.95 || prec < 0.95 {
		t.Fatalf("grid did not re-converge after amnesia recovery: recall=%.3f precision=%.3f", rec, prec)
	}
	if inj.Stats().AmnesiaWipes != 1 {
		t.Fatalf("amnesia wipes = %d, want 1", inj.Stats().AmnesiaWipes)
	}
	for i, r := range f.res {
		if r.Halted() {
			t.Fatalf("resource %d halted after recovery", i)
		}
		if len(r.Reports()) != 0 {
			t.Fatalf("recovery raised false malicious reports at %d: %v", i, r.Reports())
		}
	}
}

// TestRecoverWithoutSchemeLoadsKeys exercises the key.bin path: a
// recovery given no scheme must rebuild one from the persisted key
// material and still produce a consistent resource.
func TestRecoverWithoutSchemeLoadsKeys(t *testing.T) {
	f := buildGrid(t, t.TempDir(), 3, 13, Options{SnapshotEvery: 20, FsyncEvery: 4})
	f.engine.Run(50)
	f.closeAll(t)
	res, _, err := Recover(f.dirs[0], RecoverOptions{Cfg: f.cfg})
	if err != nil {
		t.Fatalf("recover from key.bin: %v", err)
	}
	// The loaded scheme is a fresh Plain instance with the same
	// plaintext space; aggregates must still decrypt correctly.
	for _, r := range f.truth.Sorted() {
		s1, c1, n1, ok := f.res[0].Broker.DebugAggregate(r.Key())
		if !ok {
			continue
		}
		s2, c2, n2, _ := res.Broker.DebugAggregate(r.Key())
		if s1 != s2 || c1 != c2 || n1 != n2 {
			t.Fatalf("rule %s: aggregates diverged under reloaded keys", r.Key())
		}
	}
}

// TestExportSchemeShamirRoundTrip: the geometry is the entire key
// material, so the round trip preserves (K, N, W) and the rebuilt
// instance adopts and decrypts ciphertexts dealt before the export. The
// blob is pinned byte for byte — the kind byte and the uvarints K, N,
// W that earlier releases wrote to key.bin — so existing state
// directories keep loading.
func TestExportSchemeShamirRoundTrip(t *testing.T) {
	orig, err := shamir.New(shamir.Params{K: 2, N: 6, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ExportScheme(orig)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(blob), "04020601"; got != want {
		t.Fatalf("2-of-6 exports as %s, want %s", got, want)
	}
	if got := SchemeKindName(blob[0]); got != "shamir" {
		t.Fatalf("kind byte names %q", got)
	}
	s, err := LoadScheme(blob)
	if err != nil {
		t.Fatal(err)
	}
	re, ok := s.(*shamir.Scheme)
	if !ok {
		t.Fatalf("round trip produced %T", s)
	}
	if re.Params() != orig.Params() {
		t.Fatalf("params drifted: %+v vs %+v", re.Params(), orig.Params())
	}
	// Ciphertexts are self-contained share vectors: the reloaded
	// instance must adopt and open a pre-export dealing.
	c, err := re.Adopt(orig.EncryptInt(424242))
	if err != nil {
		t.Fatal(err)
	}
	if got := re.DecryptSigned(c).Int64(); got != 424242 {
		t.Fatalf("reloaded scheme decrypted %d", got)
	}
	if _, err := LoadScheme(blob[:2]); err == nil {
		t.Fatal("truncated shamir key material accepted")
	}
	if _, err := LoadScheme(append(blob, 7)); err == nil {
		t.Fatal("trailing bytes in shamir key material accepted")
	}
}

// TestRetiredPackedShamirRefusedByName: packed sharing (several secrets
// per polynomial, W > 1) is gone. Key material written for it fails to
// load with an error that names it and says how to re-key, instead of
// a bare parameter error.
func TestRetiredPackedShamirRefusedByName(t *testing.T) {
	for _, w := range []byte{0, 2, 3} {
		_, err := LoadScheme([]byte{4, 2, 8, w})
		if w == 0 {
			if err == nil {
				t.Fatal("W=0 shamir key material accepted")
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "packed shamir key material") ||
			!strings.Contains(err.Error(), "re-key with secmr-keys gen -scheme shamir") {
			t.Fatalf("W=%d not refused by name: %v", w, err)
		}
	}
}

// TestShamirKeyFieldsCapped: K, N and W are checked against the share
// cap while still uvarints, so values that a 32-bit int would wrap into
// a valid geometry (2^32+2 → 2, 2^32+6 → 6, 2^32+1 → 1) are refused on
// every platform.
func TestShamirKeyFieldsCapped(t *testing.T) {
	blob := func(k, n, w uint64) []byte {
		out := []byte{4}
		for _, v := range []uint64{k, n, w} {
			out = binary.AppendUvarint(out, v)
		}
		return out
	}
	for _, c := range []struct {
		name    string
		k, n, w uint64
	}{
		{"K and N wrap to 2-of-6", 1<<32 + 2, 1<<32 + 6, 1},
		{"N wraps to 6", 2, 1<<32 + 6, 1},
		{"W wraps to 1", 2, 6, 1<<32 + 1},
		{"K past int64", 1 << 63, 6, 1},
		{"N is MaxUint64", 2, math.MaxUint64, 1},
		{"N one past the cap", 2, shamir.MaxShares + 1, 1},
	} {
		if s, err := LoadScheme(blob(c.k, c.n, c.w)); err == nil {
			t.Errorf("%s: K=%d N=%d W=%d loaded as %s", c.name, c.k, c.n, c.w, s.Name())
		}
	}
	if _, err := LoadScheme(blob(2, shamir.MaxShares, 1)); err != nil {
		t.Fatalf("N at the cap refused: %v", err)
	}
}

// TestExportSchemeRoundTrip covers the secmr-keys-compatible key
// encodings for all three schemes.
func TestExportSchemeRoundTrip(t *testing.T) {
	plain := homo.NewPlain(80)
	blob, err := ExportScheme(plain)
	if err != nil {
		t.Fatal(err)
	}
	s, err := LoadScheme(blob)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := s.(*homo.Plain); !ok || p.Bits() != 80 {
		t.Fatalf("plain round trip: %T %v", s, s)
	}
	if _, err := LoadScheme([]byte{99, 1, 2}); err == nil {
		t.Fatal("unknown scheme kind accepted")
	}
	if _, err := LoadScheme(nil); err == nil {
		t.Fatal("empty key material accepted")
	}
}

// TestRetiredElGamalKindRefusedByName: kind byte 3 is retired with the
// ElGamal backend, never reused. Loading it fails with an error that
// says what the material is and what to do, and diagnostics (Inspect,
// secmr-keys inspect) still name it.
func TestRetiredElGamalKindRefusedByName(t *testing.T) {
	_, err := LoadScheme([]byte{3, 1, 2, 3})
	if err == nil || !strings.Contains(err.Error(), "elgamal key material: backend removed, re-key with paillier or shamir") {
		t.Fatalf("kind 3 not refused by name: %v", err)
	}
	if got := SchemeKindName(3); got != "elgamal" {
		t.Fatalf("SchemeKindName(3) = %q, want elgamal", got)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "key.bin"), []byte{3, 1, 2, 3}, 0o600); err != nil {
		t.Fatal(err)
	}
	if info, err := Inspect(dir); err != nil || info.SchemeKind != "elgamal" {
		t.Fatalf("Inspect on retired material = %+v, %v", info, err)
	}
}

// TestAppendFramedMatchesRecordFormat pins the record bytes, so logs
// written by earlier versions still replay: a tick, a join of 4 and a
// clock lease of 4096, then a 200-byte payload whose length takes a
// two-byte uvarint. ScanFramed reads every record back, and a
// destination with len(payload)+16 bytes spare takes no allocation.
func TestAppendFramedMatchesRecordFormat(t *testing.T) {
	var got []byte
	got = AppendFramed(got, recTick, nil)
	got = AppendFramed(got, recJoin, binary.AppendVarint(nil, 4))
	got = AppendFramed(got, recClockLease, binary.AppendVarint(nil, 4096))
	if want := "01a18e0c3c02" + "020ec92f640308" + "0315a817b5048040"; hex.EncodeToString(got) != want {
		t.Fatalf("records encode as %x, pinned %s", got, want)
	}
	payload := bytes.Repeat([]byte{0xa5}, 200)
	long := AppendFramed([]byte("hdr"), 7, payload)
	if len(long) != 3+207 || hex.EncodeToString(long[3:10]) != "c901e769d37c07" {
		t.Fatalf("200-byte record heads %x over %d bytes", long[3:10], len(long)-3)
	}
	recs, valid := ScanFramed(append(got, long[3:]...))
	if valid != len(got)+207 || len(recs) != 4 {
		t.Fatalf("scanned %d records over %d bytes", len(recs), valid)
	}
	for i, typ := range []byte{recTick, recJoin, recClockLease, 7} {
		if recs[i].Type != typ {
			t.Fatalf("record %d has type %d, want %d", i, recs[i].Type, typ)
		}
	}
	if lease, err := decodeLease(recs[2].Body); err != nil || lease != 4096 || !bytes.Equal(recs[3].Body, payload) {
		t.Fatalf("bodies scanned back wrong: lease %d (%v)", lease, err)
	}
	dst := make([]byte, 0, len(payload)+16)
	if a := testing.AllocsPerRun(10, func() { AppendFramed(dst[:0], 7, payload) }); a != 0 {
		t.Fatalf("%.0f allocations into a sized destination", a)
	}
}

// TestPublicOnlyPaillierRefused: key.bin must hold the private key, or
// Recover would build a resource whose controller panics at its first
// decrypt; material without p, q is refused at load.
func TestPublicOnlyPaillierRefused(t *testing.T) {
	full, err := paillier.GenerateKey(crand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := full.ExportPublic()
	if err != nil {
		t.Fatal(err)
	}
	priv, err := full.ExportPrivate()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		blob []byte
		ok   bool
	}{
		{"private", append([]byte{2}, priv...), true},
		{"public only", append([]byte{2}, pub...), false},
	} {
		sc, err := LoadScheme(tc.blob)
		if tc.ok {
			if err != nil || sc == nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil || sc != nil || !strings.Contains(err.Error(), "private half") {
			t.Fatalf("%s: accepted or not refused by name: %v", tc.name, err)
		}
	}
}

// TestStaleTmpIgnored: a *.tmp a crash left beside key.bin or the
// identity file changes nothing. Open mints key.bin whole when it is
// missing and leaves an existing one as it was; WriteFileAtomic leaves
// the old bytes until the rename and the new bytes after it.
func TestStaleTmpIgnored(t *testing.T) {
	scheme := homo.NewPlain(64)
	want, err := ExportScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	stale := []byte{2, 0xff} // a torn paillier blob
	dir := t.TempDir()
	key := filepath.Join(dir, "key.bin")
	if err := os.WriteFile(key+".tmp", stale, 0o600); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // mint, then reopen over a new stale tmp
		j, err := Open(dir, 0, Options{Keys: scheme})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		j.Close()
		if got, err := os.ReadFile(key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round %d: key.bin = %x (%v), want %x", round, got, err, want)
		}
		if _, err := LoadScheme(want); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(key+".tmp", stale, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteFileAtomic(key, []byte{1, 96}, 0o600); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(key); !bytes.Equal(got, []byte{1, 96}) {
		t.Fatalf("after WriteFileAtomic key.bin = %x", got)
	}
	if _, err := os.Stat(key + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
}
