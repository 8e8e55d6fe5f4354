package homo

import (
	"encoding/binary"
	"errors"
	"math/big"
)

// Wire encoding of ciphertexts. Every scheme in this repo represents a
// ciphertext as a single non-negative big.Int (Paillier uses one
// element of Z*_{N²}, Shamir packs its share limbs under a sentinel
// limb, Plain packs value and nonce), so one canonical encoding covers
// them all:
//
//	uvarint(len(V.Bytes())) ‖ big-endian magnitude of V
//
// The magnitude is minimal (no leading zero byte); decoders reject
// non-minimal encodings so every ciphertext has exactly one wire form.
// Tags are never sent — the receiver re-tags via Adopter.Adopt.

// WireCiphertext is the capability a scheme exposes for compact wire
// marshaling: append-style encoding plus a sizing hint so transports
// can pre-size frame buffers without encoding twice.
type WireCiphertext interface {
	// AppendCiphertext appends the wire form of c to dst and returns
	// the extended slice.
	AppendCiphertext(dst []byte, c *Ciphertext) []byte
	// MaxCiphertextBytes bounds the bytes AppendCiphertext can append
	// for any ciphertext of this scheme.
	MaxCiphertextBytes() int
}

var (
	errCiphertextLen   = errors.New("homo: malformed ciphertext length")
	errCiphertextTrunc = errors.New("homo: truncated ciphertext")
	errCiphertextPad   = errors.New("homo: non-minimal ciphertext encoding")
	errCiphertextNil   = errors.New("homo: nil ciphertext")
	errCiphertextNeg   = errors.New("homo: negative ciphertext value")
)

// CiphertextWireSize returns the exact number of bytes AppendCiphertext
// will append for c.
func CiphertextWireSize(c *Ciphertext) int {
	n := (c.V.BitLen() + 7) / 8
	return uvarintLen(uint64(n)) + n
}

// AppendCiphertext appends the wire form of c to dst. It panics on nil
// or negative values — those never leave a correct scheme, and encode
// paths have no error channel worth threading for them.
func AppendCiphertext(dst []byte, c *Ciphertext) []byte {
	if c == nil || c.V == nil {
		panic(errCiphertextNil)
	}
	if c.V.Sign() < 0 {
		panic(errCiphertextNeg)
	}
	n := (c.V.BitLen() + 7) / 8
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = grow(dst, n)
	c.V.FillBytes(dst[len(dst)-n:])
	return dst
}

// ReadCiphertext parses one wire ciphertext from the front of src and
// returns it (untagged — callers adopt it into a scheme) along with the
// number of bytes consumed. All lengths are validated against the
// buffer before any allocation, so arbitrary input can never cause a
// panic or an oversized allocation.
func ReadCiphertext(src []byte) (*Ciphertext, int, error) {
	u, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, 0, errCiphertextLen
	}
	if u > uint64(len(src)-k) {
		return nil, 0, errCiphertextTrunc
	}
	n := int(u)
	if n > 0 && src[k] == 0 {
		return nil, 0, errCiphertextPad
	}
	c := &Ciphertext{V: new(big.Int).SetBytes(src[k : k+n])}
	return c, k + n, nil
}

// uvarintLen returns the encoded size of u as a uvarint.
func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// grow extends dst by n zero bytes, reallocating only when capacity
// runs out (the append fast path would allocate a temporary for the
// appended zeros).
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		dst = dst[:len(dst)+n]
		for i := len(dst) - n; i < len(dst); i++ {
			dst[i] = 0
		}
		return dst
	}
	return append(dst, make([]byte, n)...)
}
