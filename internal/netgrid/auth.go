// The connection handshake: challenge-response hellos signed with
// per-resource ed25519 identity keys (DESIGN §10.5), so no endpoint
// can claim a peer id at accept time without that id's key.
//
// An accepting node answers every inbound connection with a fresh
// random nonce (kindChallenge) and requires a kindHelloAuth reply
// whose signature — over the nonce, the claimed id, the acceptor's id
// and the announced listen address — verifies against the claimed
// id's public key in the roster. There is no unsigned mode, so an
// evicted or never-enrolled endpoint cannot re-enter the grid by
// asserting an identity it does not hold the key for. The nonce binds
// the signature to this connection attempt (a captured hello replayed
// later fails against the new challenge) and the acceptor id binds it
// to this acceptor: a roster member the dialer connects to cannot pass
// another node's nonce off as its own challenge and relay the answer
// there, because the dialer signs the id it dialed.
//
// The identity key is transport key material in the key.bin spirit:
// LoadOrCreateIdentity persists it per resource directory
// (identity.key, created on first start, stable across restarts), and
// DeriveIdentities gives simulations the repo's usual seeded
// determinism.
package netgrid

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"os"
	"time"

	"secmr/internal/persist"
)

// AuthConfig is the handshake-authentication material for one node:
// its own signing key and the public roster it verifies peers
// against.
type AuthConfig struct {
	// Priv signs this node's hellos.
	Priv ed25519.PrivateKey
	// Roster maps peer id to identity public key. A peer absent from
	// the roster cannot connect, whatever it signs with.
	Roster map[int]ed25519.PublicKey
}

func (a *AuthConfig) validate() error {
	if a == nil {
		return errors.New("netgrid: Options.Auth is required (identity key and roster)")
	}
	if len(a.Priv) != ed25519.PrivateKeySize {
		return fmt.Errorf("netgrid: auth private key must be %d bytes, got %d",
			ed25519.PrivateKeySize, len(a.Priv))
	}
	for id, pub := range a.Roster {
		if len(pub) != ed25519.PublicKeySize {
			return fmt.Errorf("netgrid: auth roster key for peer %d must be %d bytes, got %d",
				id, ed25519.PublicKeySize, len(pub))
		}
	}
	return nil
}

// nonceLen is the challenge size; 32 random bytes make replayed
// hellos useless.
const nonceLen = 32

// helloSigDomain separates hello signatures from any other use of the
// same key.
const helloSigDomain = "secmr-netgrid-hello-v2"

// helloSigMsg is the byte string a hello signature covers: domain ‖
// nonce ‖ dialer id ‖ acceptor id ‖ announced listen address. Binding
// the dialer id and address stops a valid signature from being grafted
// onto a different claim on the same connection; binding the acceptor
// id stops it from being relayed to a different node.
func helloSigMsg(nonce []byte, dialer, acceptor int, addr string) []byte {
	msg := make([]byte, 0, len(helloSigDomain)+len(nonce)+8+len(addr))
	msg = append(msg, helloSigDomain...)
	msg = append(msg, nonce...)
	msg = binary.BigEndian.AppendUint32(msg, uint32(dialer))
	msg = binary.BigEndian.AppendUint32(msg, uint32(acceptor))
	msg = append(msg, addr...)
	return msg
}

// encodeHelloAuth packs a signed hello payload: uvarint(len(addr)) ‖
// addr ‖ signature.
func encodeHelloAuth(addr string, sig []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(addr)))
	out = append(out, addr...)
	return append(out, sig...)
}

// splitHelloAuth is the inverse of encodeHelloAuth; the signature is
// whatever follows the address and must be exactly one ed25519
// signature long.
func splitHelloAuth(payload []byte) (addr string, sig []byte, err error) {
	alen, k := binary.Uvarint(payload)
	if k <= 0 || alen > uint64(len(payload)-k) {
		return "", nil, errors.New("netgrid: malformed signed hello")
	}
	rest := payload[k:]
	addr, sig = string(rest[:alen]), rest[alen:]
	if len(sig) != ed25519.SignatureSize {
		return "", nil, fmt.Errorf("netgrid: signed hello carries %d-byte signature, want %d",
			len(sig), ed25519.SignatureSize)
	}
	return addr, sig, nil
}

// inboundHandshake runs the accepting side of the connection
// handshake (the read deadline is already armed): it issues a nonce
// challenge and accepts only a roster-verified hello signed for this
// node; anything else — spoofer, evicted node, relayed signature — is
// rejected here, before the connection can be adopted.
func (n *Node) inboundHandshake(conn net.Conn) (from int, addr string, ok bool) {
	nonce := make([]byte, nonceLen)
	if _, err := rand.Read(nonce); err != nil {
		return 0, "", false
	}
	if err := writeFrame(conn, kindChallenge, n.id, nonce); err != nil {
		return 0, "", false
	}
	kind, from, payload, err := readFrame(conn, maxHandshakeFrame)
	if err != nil || kind != kindHelloAuth {
		n.opt.Logf("netgrid %d: rejecting connection without a signed hello", n.id)
		return 0, "", false
	}
	hAddr, sig, err := splitHelloAuth(payload)
	if err != nil {
		n.opt.Logf("netgrid %d: %v", n.id, err)
		return 0, "", false
	}
	pub, enrolled := n.opt.Auth.Roster[from]
	if !enrolled || !ed25519.Verify(pub, helloSigMsg(nonce, from, n.id, hAddr), sig) {
		n.opt.Logf("netgrid %d: rejecting hello claiming id %d: signature does not verify against roster", n.id, from)
		return 0, "", false
	}
	return from, hAddr, true
}

// outboundHandshake runs the dialing side toward the peer it dialed:
// await that peer's challenge and answer with a hello signed for it. A
// challenge sent under any other id is dropped unanswered. The
// challenge read is deadline-bounded so a stalled acceptor cannot
// wedge the dial path.
func (n *Node) outboundHandshake(conn net.Conn, peer int) bool {
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	kind, from, nonce, err := readFrame(conn, maxHandshakeFrame)
	if err != nil || kind != kindChallenge || from != peer || len(nonce) != nonceLen {
		return false
	}
	conn.SetReadDeadline(time.Time{})
	addr := n.Addr()
	sig := ed25519.Sign(n.opt.Auth.Priv, helloSigMsg(nonce, n.id, peer, addr))
	return writeFrame(conn, kindHelloAuth, n.id, encodeHelloAuth(addr, sig)) == nil
}

// LoadOrCreateIdentity returns the resource's transport identity key,
// minting a fresh one (crypto/rand) on first use and writing it with
// persist.WriteFileAtomic, so a crash leaves no short file. The file holds the 32-byte ed25519 seed; it sits next to
// key.bin in the resource's state directory and survives restarts, so
// a recovered node re-enters the grid under the identity its peers'
// rosters already hold.
func LoadOrCreateIdentity(path string) (ed25519.PrivateKey, error) {
	if seed, err := os.ReadFile(path); err == nil {
		if len(seed) != ed25519.SeedSize {
			return nil, fmt.Errorf("netgrid: identity file %s holds %d bytes, want %d",
				path, len(seed), ed25519.SeedSize)
		}
		return ed25519.NewKeyFromSeed(seed), nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	seed := make([]byte, ed25519.SeedSize)
	if _, err := rand.Read(seed); err != nil {
		return nil, err
	}
	if err := persist.WriteFileAtomic(path, seed, 0o600); err != nil {
		return nil, err
	}
	return ed25519.NewKeyFromSeed(seed), nil
}

// DeriveIdentities deals n seeded identity keys and the matching
// roster — the deterministic enrollment ceremony for simulations and
// tests, in the repo's one-seed-replays-everything tradition. Not for
// deployments: the seeds come from math/rand.
func DeriveIdentities(n int, seed int64) ([]ed25519.PrivateKey, map[int]ed25519.PublicKey) {
	rng := mrand.New(mrand.NewSource(seed))
	privs := make([]ed25519.PrivateKey, n)
	roster := make(map[int]ed25519.PublicKey, n)
	for i := range privs {
		kseed := make([]byte, ed25519.SeedSize)
		rng.Read(kseed)
		privs[i] = ed25519.NewKeyFromSeed(kseed)
		roster[i] = privs[i].Public().(ed25519.PublicKey)
	}
	return privs, roster
}
