package paillier

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math/big"

	"secmr/internal/homo"
)

// Key persistence: a grid deployment generates one key pair, hands the
// encryption capability to every accountant and the decryption
// capability to every controller (§5: "an encryption key shared by the
// accountants"; the controllers hold the decryption key). The wire
// formats below let a deployment distribute those capabilities.

// wireKey is the gob payload; Private is nil in public-only exports.
type wireKey struct {
	N    *big.Int
	P, Q *big.Int // nil for public-only
}

// ExportPrivate serializes the full key pair.
func (s *Scheme) ExportPrivate() ([]byte, error) {
	if s.priv == nil {
		return nil, errors.New("paillier: no private key to export")
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(wireKey{N: s.pub.N, P: s.priv.p, Q: s.priv.q})
	return buf.Bytes(), err
}

// ExportPublic serializes the public parameters only.
func (s *Scheme) ExportPublic() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(wireKey{N: s.pub.N})
	return buf.Bytes(), err
}

// Import reconstructs a Scheme from ExportPrivate or ExportPublic
// output. A public-only scheme supports every homo.Public operation
// and Encrypt, but panics on Decrypt.
func Import(data []byte) (*Scheme, error) {
	var w wireKey
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, err
	}
	if w.N == nil || w.N.Sign() <= 0 {
		return nil, errors.New("paillier: invalid key material")
	}
	if w.P != nil && w.Q != nil {
		if new(big.Int).Mul(w.P, w.Q).Cmp(w.N) != 0 {
			return nil, errors.New("paillier: p·q does not match N")
		}
		return newScheme(w.P, w.Q)
	}
	return &Scheme{
		pub: PublicKey{N: w.N, N2: new(big.Int).Mul(w.N, w.N)},
		tag: tagCounter.Add(1),
	}, nil
}

// IsPrivate reports whether the scheme holds the decryption key.
func (s *Scheme) IsPrivate() bool { return s.priv != nil }

// --- compact wire marshaling (homo.WireCiphertext) ---

// Scheme implements homo.WireCiphertext for the compact wire codec.
var _ homo.WireCiphertext = (*Scheme)(nil)

// AppendCiphertext appends the canonical compact wire form of c
// (uvarint byte length + big-endian magnitude) to dst and returns the
// extended slice.
func (s *Scheme) AppendCiphertext(dst []byte, c *homo.Ciphertext) []byte {
	return homo.AppendCiphertext(dst, c)
}

// MaxCiphertextBytes bounds the wire size of any ciphertext of this
// scheme: values live in Z*_{N²}, so the magnitude fits in 2·len(N)
// bytes.
func (s *Scheme) MaxCiphertextBytes() int {
	n := 2 * ((s.pub.N.BitLen() + 7) / 8)
	return n + len(binary.AppendUvarint(nil, uint64(n)))
}
