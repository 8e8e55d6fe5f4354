package netgrid

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"secmr/internal/arm"
	"secmr/internal/core"
	"secmr/internal/hashing"
	"secmr/internal/homo"
	"secmr/internal/metrics"
	"secmr/internal/quest"
	"secmr/internal/shamir"
)

// testPrivs and testRoster enroll ids 0..9 for every test in the
// package. The kill -9 child process is this same binary, so it derives
// the same roster from the same seed.
var testPrivs, testRoster = DeriveIdentities(10, 7)

// authOpt returns o carrying id's identity under the package roster.
func authOpt(id int, o Options) Options {
	o.Auth = &AuthConfig{Priv: testPrivs[id], Roster: testRoster}
	return o
}

// rawAuthDial is the raw-socket peer of the lifecycle tests: it dials
// addr and runs the dialing side of the challenge-response by hand, as
// roster member id toward the given acceptor, announcing no listen
// address (so the acceptor never dials back).
func rawAuthDial(t *testing.T, addr string, id, acceptor int) net.Conn {
	t.Helper()
	conn, nonce := expectChallenge(t, addr)
	sig := ed25519.Sign(testPrivs[id], helloSigMsg(nonce, id, acceptor, ""))
	if err := writeFrame(conn, kindHelloAuth, id, encodeHelloAuth("", sig)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Time{})
	return conn
}

// writeRawBatch writes msg as a one-element batch frame claiming sender
// from.
func writeRawBatch(conn net.Conn, from int, msg []byte) error {
	return writeFrame(conn, kindBatch, from, append(binary.AppendUvarint(nil, uint64(len(msg))), msg...))
}

// authPair starts nodes 0 and 1 of the package roster.
func authPair(t *testing.T) (a, b *Node, ra, rb *collector) {
	t.Helper()
	ra, rb = &collector{}, &collector{}
	var err error
	a, err = Start(0, ra.handle, authOpt(0, Options{ReconnectBase: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err = Start(1, rb.handle, authOpt(1, Options{ReconnectBase: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b, ra, rb
}

// TestAuthHandshakeDelivers proves the signed handshake is not just a
// gate: an authenticated link carries traffic both ways.
func TestAuthHandshakeDelivers(t *testing.T) {
	a, b, ra, rb := authPair(t)
	if err := a.Connect(map[int]string{1: b.Addr()}); err != nil {
		t.Fatal(err)
	}
	if !a.WaitFor([]int{1}, 5*time.Second) || !b.WaitFor([]int{0}, 5*time.Second) {
		t.Fatal("authenticated link never came up")
	}
	if err := a.Send(1, []byte("signed-up")); err != nil {
		t.Fatal(err)
	}
	if got := waitFrames(t, rb, 1, 5*time.Second); got[0] != "signed-up" {
		t.Fatalf("b received %q", got[0])
	}
	if err := b.Send(0, []byte("signed-down")); err != nil {
		t.Fatal(err)
	}
	if got := waitFrames(t, ra, 1, 5*time.Second); got[0] != "signed-down" {
		t.Fatalf("a received %q", got[0])
	}
}

// expectChallenge dials a node raw and returns the nonce it challenges
// with.
func expectChallenge(t *testing.T, addr string) (net.Conn, []byte) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	kind, _, nonce, err := readFrame(conn, maxHandshakeFrame)
	if err != nil || kind != kindChallenge || len(nonce) != nonceLen {
		t.Fatalf("challenge read: kind=%d len=%d err=%v", kind, len(nonce), err)
	}
	return conn, nonce
}

// expectClosed asserts the acceptor hung up on us without delivering
// anything further.
func expectClosed(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, _, _, err := readFrame(conn, maxFrame)
	// Any close flavor is fine; no error or a timeout means the
	// acceptor kept the impostor around instead of rejecting it.
	if err == nil {
		t.Fatalf("%s: connection stayed open", what)
	}
	if os.IsTimeout(err) {
		t.Fatalf("%s: acceptor neither answered nor hung up", what)
	}
}

// TestAuthRejectsImpostors drives the accept-side handshake with every
// flavor of bad hello: the retired unsigned frame (kind 0), a signature
// from a key outside the roster, a claim to an id whose key the dialer
// does not hold, and a replay of a previously valid signed hello
// against a fresh challenge. None may produce an adopted peer or
// deliver frames.
func TestAuthRejectsImpostors(t *testing.T) {
	_, b, _, rb := authPair(t)
	outsider, _ := DeriveIdentities(3, 99) // keys no roster holds

	// Unsigned hello, the retired kind-0 frame.
	conn, _ := expectChallenge(t, b.Addr())
	if err := writeFrame(conn, 0, 0, []byte("1.2.3.4:1")); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn, "unsigned hello")
	conn.Close()

	// Signature by a key that is not id 0's roster key.
	conn, nonce := expectChallenge(t, b.Addr())
	sig := ed25519.Sign(outsider[0], helloSigMsg(nonce, 0, 1, "1.2.3.4:1"))
	if err := writeFrame(conn, kindHelloAuth, 0, encodeHelloAuth("1.2.3.4:1", sig)); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn, "wrong key")
	conn.Close()

	// Valid key, but claiming an id not enrolled in the roster.
	conn, nonce = expectChallenge(t, b.Addr())
	sig = ed25519.Sign(outsider[2], helloSigMsg(nonce, 17, 1, "1.2.3.4:1"))
	if err := writeFrame(conn, kindHelloAuth, 17, encodeHelloAuth("1.2.3.4:1", sig)); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn, "unknown id")
	conn.Close()

	// Replay: a hello legitimately signed by id 0 for one challenge is
	// useless against the next one.
	conn, nonce = expectChallenge(t, b.Addr())
	captured := encodeHelloAuth("1.2.3.4:1", ed25519.Sign(testPrivs[0], helloSigMsg(nonce, 0, 1, "1.2.3.4:1")))
	conn.Close() // abandon: the signed hello is "captured" instead
	conn, _ = expectChallenge(t, b.Addr())
	if err := writeFrame(conn, kindHelloAuth, 0, captured); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn, "replayed hello")
	conn.Close()

	// None of the impostors became a peer or delivered a frame.
	if b.peer(0) != nil || b.peer(17) != nil {
		t.Fatal("impostor handshake registered a peer")
	}
	if got := rb.got(); len(got) != 0 {
		t.Fatalf("impostor frames reached the handler: %q", got)
	}
}

// TestAuthRejectsRelayedHello: roster member 2 (malicious) is dialed by
// honest node 0 and tries to be adopted by node 1 as node 0, by passing
// 1's nonce off as its own challenge and relaying 0's signed answer.
// The signature names the acceptor 0 dialed, so 1 refuses it; and 0
// does not answer a challenge sent under any id but the one it dialed.
func TestAuthRejectsRelayedHello(t *testing.T) {
	a, b, _, rb := authPair(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go a.Connect(map[int]string{2: ln.Addr().String()}) // the supervisor keeps redialing
	accept := func() net.Conn {
		t.Helper()
		ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
		conn, err := ln.Accept()
		if err != nil {
			t.Fatalf("honest node never dialed the relay: %v", err)
		}
		return conn
	}

	// The relay challenges under its own id with the victim's nonce.
	fromA := accept()
	defer fromA.Close()
	toB, nonce := expectChallenge(t, b.Addr())
	defer toB.Close()
	if err := writeFrame(fromA, kindChallenge, 2, nonce); err != nil {
		t.Fatal(err)
	}
	fromA.SetReadDeadline(time.Now().Add(5 * time.Second))
	kind, from, hello, err := readFrame(fromA, maxHandshakeFrame)
	if err != nil || kind != kindHelloAuth || from != 0 {
		t.Fatalf("honest hello: kind=%d from=%d err=%v", kind, from, err)
	}
	if err := writeFrame(toB, kindHelloAuth, 0, hello); err != nil {
		t.Fatal(err)
	}
	writeRawBatch(toB, 0, []byte("forged-as-0")) // lands only if the relay was adopted
	expectClosed(t, toB, "relayed hello")
	if b.peer(0) != nil {
		t.Fatal("relayed hello registered a peer")
	}
	if got := rb.got(); len(got) != 0 {
		t.Fatalf("relay delivered %q as node 0", got)
	}

	// Forwarding the victim's challenge verbatim (sender id 1 on a dial
	// to 2) gets no signature at all.
	fromA.Close()
	fromA = accept()
	defer fromA.Close()
	if err := writeFrame(fromA, kindChallenge, 1, nonce); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, fromA, "challenge under the wrong id")
}

// TestOversizedHandshakeFrameClosesAtOnce: a connection that has not
// authenticated cannot make the acceptor allocate, or wait for, a large
// frame — a first frame claiming 1 MiB is refused from its header, not
// held until the handshake deadline.
func TestOversizedHandshakeFrameClosesAtOnce(t *testing.T) {
	_, b, _, _ := authPair(t)
	conn, _ := expectChallenge(t, b.Addr())
	defer conn.Close()
	hdr := appendFrameHeader(nil, kindHelloAuth, 0, 1<<20)
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	expectClosed(t, conn, "1 MiB pre-handshake frame")
	if waited := time.Since(start); waited > handshakeTimeout/2 {
		t.Fatalf("acceptor held the connection %v", waited)
	}
}

// TestRetiredFrameKindsKillConnection: kinds 0 (unsigned hello) and 1
// (one-message data frame) are retired, never reused: on an
// authenticated link either one kills that connection and delivers
// nothing, while another peer's link keeps working.
func TestRetiredFrameKindsKillConnection(t *testing.T) {
	a, b, _, rb := authPair(t)
	if err := a.Connect(map[int]string{1: b.Addr()}); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []byte{0, 1} {
		conn := rawAuthDial(t, b.Addr(), 9, 1)
		if err := writeFrame(conn, kind, 9, []byte("retired")); err != nil {
			t.Fatal(err)
		}
		expectClosed(t, conn, fmt.Sprintf("retired kind %d", kind))
		conn.Close()
	}
	if err := a.Send(1, []byte("still fine")); err != nil {
		t.Fatal(err)
	}
	if got := waitFrames(t, rb, 1, 5*time.Second); len(got) != 1 || got[0] != "still fine" {
		t.Fatalf("handler saw %q, want only the honest frame", got)
	}
}

// TestAuthEvictedKeyHolderStaysOut: a banned peer is refused even with
// valid key material — eviction overrides enrollment.
func TestAuthEvictedKeyHolderStaysOut(t *testing.T) {
	a, b, _, rb := authPair(t)
	b.Ban(0)
	a.Connect(map[int]string{1: b.Addr()}) // dial may "succeed" locally; no payload may cross
	for i := 0; i < 40; i++ {
		a.Send(1, []byte("ghost"))
		time.Sleep(3 * time.Millisecond)
	}
	if got := rb.got(); len(got) != 0 {
		t.Fatalf("banned-but-enrolled peer delivered %d frames", len(got))
	}
}

// TestAuthConfigValidation: missing or malformed key material fails at
// Start, not at first handshake — there is no unauthenticated mode to
// fall back to.
func TestAuthConfigValidation(t *testing.T) {
	if _, err := Start(0, func(int, []byte) {}, Options{}); err == nil || !strings.Contains(err.Error(), "Options.Auth") {
		t.Fatalf("Start without Auth: err = %v, want one naming Options.Auth", err)
	}
	scheme := homo.NewPlain(96)
	res := core.NewResource(0, core.Config{}, scheme, &arm.Database{}, nil, nil)
	if _, err := NewHost(0, res, scheme, Options{}); err == nil || !strings.Contains(err.Error(), "Options.Auth") {
		t.Fatalf("NewHost without Auth: err = %v, want one naming Options.Auth", err)
	}
	if _, err := Start(0, func(int, []byte) {}, Options{
		Auth: &AuthConfig{Priv: make([]byte, 7)},
	}); err == nil {
		t.Fatal("short private key accepted")
	}
	privs, _ := DeriveIdentities(1, 1)
	if _, err := Start(0, func(int, []byte) {}, Options{
		Auth: &AuthConfig{Priv: privs[0], Roster: map[int]ed25519.PublicKey{3: make([]byte, 5)}},
	}); err == nil {
		t.Fatal("short roster key accepted")
	}
}

// TestLoadOrCreateIdentity: first call mints and persists, the second
// returns the same key; a short seed a crash left in identity.key.tmp
// changes neither; a corrupt file is an error, not a silent new
// identity.
func TestLoadOrCreateIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "identity.key")
	stale := func() {
		if err := os.WriteFile(path+".tmp", []byte("torn"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	stale()
	k1, err := LoadOrCreateIdentity(path)
	if err != nil {
		t.Fatal(err)
	}
	stale()
	k2, err := LoadOrCreateIdentity(path)
	if err != nil {
		t.Fatal(err)
	}
	if !k1.Equal(k2) {
		t.Fatal("restart changed the identity")
	}
	if err := os.WriteFile(path, []byte("junk"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOrCreateIdentity(path); err == nil {
		t.Fatal("corrupt identity file accepted")
	}
}

// TestDeriveIdentitiesDeterministic: the ceremony replays from its
// seed.
func TestDeriveIdentitiesDeterministic(t *testing.T) {
	p1, r1 := DeriveIdentities(3, 42)
	p2, r2 := DeriveIdentities(3, 42)
	for i := range p1 {
		if !p1[i].Equal(p2[i]) || !r1[i].Equal(r2[i]) {
			t.Fatalf("identity %d differs across same-seed derivations", i)
		}
	}
	p3, _ := DeriveIdentities(3, 43)
	if p1[0].Equal(p3[0]) {
		t.Fatal("different seeds derived the same identity")
	}
}

// TestHostsMineOverAuthenticatedLinks runs the full protocol over TCP
// with signed handshakes on every link, once over the transparent
// scheme and once over the Shamir share backend the service workloads
// deploy: sentinel-limbed share vectors must survive AppendMessageCtx →
// batch frame → Adopt, so both grids converge on the centralized
// oracle's rule set (to the 0.9 the other TCP end-to-end tests ask: at
// k=2 the k-gate freezes the last fraction of a percent, DESIGN §5).
func TestHostsMineOverAuthenticatedLinks(t *testing.T) {
	for name, scheme := range map[string]homo.Scheme{
		"plain":  homo.NewPlain(96),
		"shamir": shamir.MustNew(shamir.Params{K: 2, N: 3, W: 1}),
	} {
		t.Run(name, func(t *testing.T) { hostsMineOverAuthenticatedLinks(t, scheme) })
	}
}

func hostsMineOverAuthenticatedLinks(t *testing.T, scheme homo.Scheme) {
	const n = 3
	seed := int64(5)
	rng := mrand.New(mrand.NewSource(seed))
	global := quest.Generate(quest.Params{NumTransactions: n * 100, NumItems: 12,
		NumPatterns: 6, AvgTransLen: 4, AvgPatternLen: 2, Seed: seed})
	universe := arm.Itemset{}
	for i := 0; i < 12; i++ {
		universe = append(universe, arm.Item(i))
	}
	parts := hashing.Partition(global, n, rng)
	th := arm.Thresholds{MinFreq: 0.2, MinConf: 0.7}
	oracle := arm.GroundTruth(global, th, universe, 2)
	cfg := core.Config{Th: th, Universe: universe, ScanBudget: 40,
		CandidateEvery: 5, K: 2, MaxRuleItems: 2, IntraDelay: true}

	hosts := make([]*Host, n)
	for i := 0; i < n; i++ {
		res := core.NewResource(i, cfg, scheme, parts[i], nil, nil)
		h, err := NewHost(i, res, scheme.(homo.Adopter), authOpt(i, Options{ReconnectBase: 5 * time.Millisecond}))
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
		defer h.Close()
	}
	for i := 1; i < n; i++ {
		if err := hosts[i].Node().Connect(map[int]string{0: hosts[0].Node().Addr()}); err != nil {
			t.Fatal(err)
		}
	}
	if !hosts[0].Node().WaitFor([]int{1, 2}, 10*time.Second) {
		t.Fatal("authenticated star never connected")
	}
	hosts[0].Run([]int{1, 2}, 2*time.Millisecond)
	hosts[1].Run([]int{0}, 2*time.Millisecond)
	hosts[2].Run([]int{0}, 2*time.Millisecond)

	deadline := time.Now().Add(60 * time.Second)
	for {
		outs := make([]arm.RuleSet, n)
		for i, h := range hosts {
			if _, halted := h.Snapshot(); halted {
				t.Fatalf("host %d halted over authenticated transport", i)
			}
			outs[i] = h.OutputSnapshot()
		}
		rec, prec := metrics.Average(outs, oracle)
		if rec >= 0.9 && prec >= 0.9 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stuck at recall=%.3f precision=%.3f of %d oracle rules", rec, prec, len(oracle))
		}
		time.Sleep(20 * time.Millisecond)
	}
}
