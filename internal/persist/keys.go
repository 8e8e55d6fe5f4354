// Package persist is the durability subsystem: versioned, atomically
// written snapshots of a resource's full protocol state (the
// core.EncodeState codec), an append-only CRC-framed write-ahead log
// of state-mutating protocol events, and a Recover path that rebuilds
// a resource from disk alone after a crash-with-amnesia restart.
//
// On-disk layout, one directory per resource:
//
//	key.bin        key material (scheme kind byte + secmr-keys blob)
//	snapshot.bin   latest full-state snapshot (magic SMRSNP01)
//	wal.<gen>.log  event log since snapshot generation <gen>
//
// Crash consistency is by generation pairing: the snapshot header
// carries its generation G, and recovery replays only wal.G.log. A
// snapshot is written tmp → fsync → rename → dir-fsync, so the pair
// (snapshot, its log) switches atomically: a crash between the rename
// and the creation of the next log simply yields an empty tail. See
// DESIGN.md §9.
package persist

import (
	"encoding/binary"
	"fmt"

	"secmr/internal/homo"
	"secmr/internal/paillier"
	"secmr/internal/shamir"
)

// Scheme kind bytes in key.bin — the secmr-keys on-disk vocabulary.
// Kind 3 belonged to the removed ElGamal backend: it is retired, never
// reused, so an old state directory is refused by name instead of
// misread.
const (
	schemePlain          = 1
	schemePaillier       = 2
	schemeRetiredElGamal = 3
	schemeShamir         = 4
)

// ExportScheme serializes a grid cryptosystem's key material: one kind
// byte followed by the scheme's own private-key blob (the same
// encoding secmr-keys writes). Only the three concrete schemes are
// supported — wrappers (telemetry instrumentation) must be unwrapped
// by the caller first.
func ExportScheme(s homo.Scheme) ([]byte, error) {
	switch sc := s.(type) {
	case *homo.Plain:
		return binary.AppendUvarint([]byte{schemePlain}, uint64(sc.Bits())), nil
	case *paillier.Scheme:
		blob, err := sc.ExportPrivate()
		if err != nil {
			return nil, fmt.Errorf("persist: exporting paillier key: %w", err)
		}
		return append([]byte{schemePaillier}, blob...), nil
	case *shamir.Scheme:
		// The sharing geometry is the whole key material: hiding is
		// information-theoretic (there is no secret key to persist),
		// and ciphertexts carry their full share vectors, so a fresh
		// instance with the same geometry decrypts every snapshot.
		p := sc.Params()
		out := []byte{schemeShamir}
		out = binary.AppendUvarint(out, uint64(p.K))
		out = binary.AppendUvarint(out, uint64(p.N))
		out = binary.AppendUvarint(out, uint64(p.W))
		return out, nil
	default:
		return nil, fmt.Errorf("persist: cannot export key material for scheme %T", s)
	}
}

// LoadScheme rebuilds a cryptosystem from an ExportScheme blob.
func LoadScheme(data []byte) (homo.Scheme, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("persist: key material too short (%d bytes)", len(data))
	}
	switch kind := data[0]; kind {
	case schemePlain:
		bits, n := binary.Uvarint(data[1:])
		if n <= 0 || bits < 2 || bits > 4096 {
			return nil, fmt.Errorf("persist: malformed plain-scheme key material")
		}
		return homo.NewPlain(int(bits)), nil
	case schemePaillier:
		sc, err := paillier.Import(data[1:])
		if err != nil {
			return nil, err
		}
		if !sc.IsPrivate() {
			return nil, fmt.Errorf("persist: paillier key material holds the public key only: the private half (p, q) is missing")
		}
		return sc, nil
	case schemeRetiredElGamal:
		return nil, fmt.Errorf("persist: elgamal key material: backend removed, re-key with paillier or shamir")
	case schemeShamir:
		// K, N, W as uvarints. Each is checked against the share cap
		// before it becomes an int, so no value can wrap on a 32-bit
		// int into a valid geometry.
		rest := data[1:]
		var vals [3]int
		for i := range vals {
			v, n := binary.Uvarint(rest)
			if n <= 0 {
				return nil, fmt.Errorf("persist: malformed shamir key material")
			}
			if v > shamir.MaxShares {
				return nil, fmt.Errorf("persist: shamir key material field %d = %d exceeds the %d-share cap", i, v, shamir.MaxShares)
			}
			vals[i], rest = int(v), rest[n:]
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("persist: trailing bytes in shamir key material")
		}
		if vals[2] > 1 {
			return nil, fmt.Errorf("persist: packed shamir key material (W=%d): packing removed, re-key with secmr-keys gen -scheme shamir", vals[2])
		}
		return shamir.New(shamir.Params{K: vals[0], N: vals[1], W: vals[2]})
	default:
		return nil, fmt.Errorf("persist: unknown scheme kind %d", kind)
	}
}

// SchemeKindName names a key.bin kind byte for diagnostics (Inspect,
// secmr-keys inspect).
func SchemeKindName(kind byte) string {
	switch kind {
	case schemePlain:
		return "plain"
	case schemePaillier:
		return "paillier"
	case schemeRetiredElGamal:
		return "elgamal"
	case schemeShamir:
		return "shamir"
	default:
		return fmt.Sprintf("unknown(%d)", kind)
	}
}
