package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"secmr/internal/arm"
	"secmr/internal/homo"
	"secmr/internal/oblivious"
	"secmr/internal/obs"
)

// Wire codec: a real deployment exchanges ShareGrant, RuleCipherMsg
// and MaliciousReport over the network. The simulator passes them as
// Go values; AppendMessage/EncodeMessage/DecodeMessage provide the
// byte encoding, and decoding re-binds every ciphertext to the local
// scheme instance via homo.Adopter — both validating the raw group
// elements and restoring the in-process tag protection.
//
// Compact frame layout (version 0x9C, see DESIGN.md §8):
//
//	[0]  version byte 0x9C
//	[1]  kind: 1 = ShareGrant, 2 = RuleCipherMsg, 3 = MaliciousReport
//	[2…] kind-specific fields, varint-framed:
//	     grant:  varint slot ‖ varint numSlots ‖ varint epoch ‖ ct
//	     rule:   byte λ-kind ‖ itemset LHS ‖ itemset RHS ‖
//	             varint epoch ‖ counter (see oblivious.AppendCounter)
//	     report: varint accused ‖ varint reporter ‖
//	             uvarint len ‖ reason bytes ‖ flags byte
//
// The report's trailing flags byte (bit 0 = Evidence) is optional on
// decode — frames written before quarantine existed omit it and parse
// with Evidence clear — and always written by new encoders.
//
// where an itemset is uvarint count ‖ varint items and a ciphertext ct
// is uvarint length ‖ big-endian magnitude (homo.AppendCiphertext).
// Integers use zigzag varints so any int round-trips.
//
// The first byte is the version: DecodeMessage accepts 0x9C and the
// 0x9D causal envelope below, and rejects every other lead byte.

const (
	// codecVersion is the compact-codec version byte.
	codecVersion = 0x9C
	// codecVersionCausal prefixes a compact frame with a causal-context
	// envelope (see AppendMessageCtx):
	//
	//	[0]  version byte 0x9D
	//	[1…] uvarint origin ‖ uvarint oseq ‖ uvarint hops ‖
	//	     complete 0x9C frame
	//
	// The context leads under its own version byte (rather than trailing
	// the 0x9C fields) because a bare-0x9C decoder rejects trailing
	// bytes. Decoders accept both encodings transparently —
	// DecodeMessage strips the envelope, and DecodeMessageCtx surfaces
	// it.
	codecVersionCausal = 0x9D

	wireKindGrant  = 1
	wireKindRule   = 2
	wireKindReport = 3
)

// EncodeMessage serializes one grid message (ShareGrant, RuleCipherMsg
// or MaliciousReport) with the compact codec, sizing the buffer
// exactly via MessageWireSize.
func EncodeMessage(msg any) ([]byte, error) {
	return AppendMessage(make([]byte, 0, MessageWireSize(msg)), msg)
}

// AppendMessage appends the compact encoding of msg to dst and returns
// the extended slice — the zero-allocation primitive behind
// EncodeMessage (give it a pooled buffer with enough capacity and the
// whole encode touches no allocator).
func AppendMessage(dst []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case ShareGrant:
		if m.Share == nil || m.Share.V == nil {
			return nil, errors.New("core: share grant without ciphertext")
		}
		dst = append(dst, codecVersion, wireKindGrant)
		dst = binary.AppendVarint(dst, int64(m.Slot))
		dst = binary.AppendVarint(dst, int64(m.NumSlots))
		dst = binary.AppendVarint(dst, int64(m.Epoch))
		return homo.AppendCiphertext(dst, m.Share), nil
	case RuleCipherMsg:
		if m.Counter == nil {
			return nil, fmt.Errorf("core: rule message without counter")
		}
		dst = append(dst, codecVersion, wireKindRule)
		dst = append(dst, byte(m.Rule.Kind))
		dst = appendItemset(dst, m.Rule.LHS)
		dst = appendItemset(dst, m.Rule.RHS)
		dst = binary.AppendVarint(dst, int64(m.Epoch))
		return oblivious.AppendCounter(dst, m.Counter), nil
	case MaliciousReport:
		dst = append(dst, codecVersion, wireKindReport)
		dst = binary.AppendVarint(dst, int64(m.Accused))
		dst = binary.AppendVarint(dst, int64(m.Reporter))
		dst = binary.AppendUvarint(dst, uint64(len(m.Reason)))
		dst = append(dst, m.Reason...)
		var flags byte
		if m.Evidence {
			flags |= 1
		}
		return append(dst, flags), nil
	default:
		return nil, fmt.Errorf("core: cannot encode message type %T", msg)
	}
}

// MessageWireSize returns the exact compact-codec size of msg in
// bytes, without encoding. It is cheap (a few BitLen sums) and is the
// byte-accounting currency across the repo. Unknown or unencodable
// messages size to 0.
func MessageWireSize(msg any) int {
	switch m := msg.(type) {
	case ShareGrant:
		if m.Share == nil || m.Share.V == nil {
			return 0
		}
		return 2 + varintLen(int64(m.Slot)) + varintLen(int64(m.NumSlots)) +
			varintLen(int64(m.Epoch)) + homo.CiphertextWireSize(m.Share)
	case RuleCipherMsg:
		if m.Counter == nil {
			return 0
		}
		return 3 + itemsetWireSize(m.Rule.LHS) + itemsetWireSize(m.Rule.RHS) +
			varintLen(int64(m.Epoch)) + oblivious.CounterWireSize(m.Counter)
	case MaliciousReport:
		return 2 + varintLen(int64(m.Accused)) + varintLen(int64(m.Reporter)) +
			uvarintLen(uint64(len(m.Reason))) + len(m.Reason) + 1
	default:
		return 0
	}
}

// AppendMessageCtx appends msg prefixed with its causal-context
// envelope (version 0x9D). An invalid context degrades to the bare
// compact frame, so callers can pass whatever they have.
func AppendMessageCtx(dst []byte, msg any, cc obs.CausalCtx) ([]byte, error) {
	if !cc.Valid() {
		return AppendMessage(dst, msg)
	}
	dst = append(dst, codecVersionCausal)
	dst = binary.AppendUvarint(dst, uint64(cc.Origin))
	dst = binary.AppendUvarint(dst, uint64(cc.OSeq))
	dst = binary.AppendUvarint(dst, uint64(cc.Hops))
	return AppendMessage(dst, msg)
}

// PeekCausalCtx parses just the causal-context envelope from a frame,
// without decoding (or validating) the message. It reports false for
// frames without an envelope and for malformed envelopes — transports
// use it to stamp trace events from raw frame bytes cheaply.
func PeekCausalCtx(data []byte) (obs.CausalCtx, bool) {
	cc, _, ok := splitCausalCtx(data)
	return cc, ok
}

// splitCausalCtx strips a 0x9D envelope, returning the context and the
// inner frame; ok is false when data does not start with a well-formed
// envelope.
func splitCausalCtx(data []byte) (cc obs.CausalCtx, inner []byte, ok bool) {
	if len(data) == 0 || data[0] != codecVersionCausal {
		return obs.CausalCtx{}, nil, false
	}
	rest := data[1:]
	fields := [3]uint64{}
	for i := range fields {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return obs.CausalCtx{}, nil, false
		}
		fields[i] = v
		rest = rest[n:]
	}
	cc = obs.CausalCtx{Origin: int(fields[0]), OSeq: int64(fields[1]), Hops: int(fields[2])}
	if !cc.Valid() || len(rest) == 0 || rest[0] == codecVersionCausal {
		// A zero oseq or a nested envelope is malformed, not an older
		// dialect — reject instead of guessing.
		return obs.CausalCtx{}, nil, false
	}
	return cc, rest, true
}

// DecodeMessageCtx is DecodeMessage surfacing the causal-context
// envelope: bare compact frames decode with a zero context.
func DecodeMessageCtx(data []byte, adopter homo.Adopter) (any, obs.CausalCtx, error) {
	if cc, inner, ok := splitCausalCtx(data); ok {
		msg, err := DecodeMessage(inner, adopter)
		if err != nil {
			return nil, obs.CausalCtx{}, err
		}
		return msg, cc, nil
	}
	msg, err := DecodeMessage(data, adopter)
	return msg, obs.CausalCtx{}, err
}

// DecodeMessage deserializes a frame produced by AppendMessage or
// AppendMessageCtx (the causal envelope is stripped; use
// DecodeMessageCtx to keep it), adopting every contained ciphertext
// into the given scheme. A nil adopter is allowed only for
// ciphertext-free messages (MaliciousReport). Malformed input of any
// shape returns an error — it never panics and never allocates more
// than the input size.
func DecodeMessage(data []byte, adopter homo.Adopter) (any, error) {
	if len(data) == 0 {
		return nil, errors.New("core: empty frame")
	}
	switch b := data[0]; {
	case b == codecVersion:
		return decodeCompact(data[1:], adopter)
	case b == codecVersionCausal:
		_, inner, ok := splitCausalCtx(data)
		if !ok {
			return nil, errors.New("core: malformed causal-context envelope")
		}
		return DecodeMessage(inner, adopter)
	default:
		return nil, fmt.Errorf("core: unknown wire codec version 0x%02x", b)
	}
}

func decodeCompact(body []byte, adopter homo.Adopter) (any, error) {
	if len(body) == 0 {
		return nil, errors.New("core: truncated frame")
	}
	r := &wireReader{buf: body[1:]}
	switch kind := body[0]; kind {
	case wireKindGrant:
		var m ShareGrant
		m.Slot = r.int()
		m.NumSlots = r.int()
		m.Epoch = r.int()
		m.Share = r.ciphertext()
		if err := r.done(); err != nil {
			return nil, err
		}
		if err := adoptInto(adopter, &m.Share); err != nil {
			return nil, err
		}
		return m, nil
	case wireKindRule:
		var m RuleCipherMsg
		m.Rule.Kind = r.threshold()
		m.Rule.LHS = r.itemset()
		m.Rule.RHS = r.itemset()
		m.Epoch = r.int()
		m.Counter = r.counter()
		if err := r.done(); err != nil {
			return nil, err
		}
		if err := adoptCounter(adopter, m.Counter); err != nil {
			return nil, err
		}
		return m, nil
	case wireKindReport:
		var m MaliciousReport
		m.Accused = r.int()
		m.Reporter = r.int()
		m.Reason = r.str()
		if r.err == nil && r.rem() > 0 {
			// Optional trailing flags byte (absent in pre-quarantine
			// frames, which decode with Evidence clear).
			m.Evidence = r.byte()&1 != 0
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		return m, nil
	default:
		return nil, fmt.Errorf("core: unknown message kind %d", kind)
	}
}

// wireReader is a sticky-error cursor over a compact frame body. Every
// accessor validates lengths against the remaining buffer before
// allocating, so hostile input degrades to an error, never a panic or
// an oversized allocation.
type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) fail(msg string) {
	if r.err == nil {
		r.err = errors.New("core: " + msg)
	}
}

func (r *wireReader) rem() int { return len(r.buf) - r.off }

func (r *wireReader) int() int { return int(r.int64()) }

// int64 reads a varint at full width: an int64 field decoded through
// int would lose its high half where int is 32 bits.
func (r *wireReader) int64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("malformed varint")
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("malformed uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) str() string {
	n := r.uint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.rem()) {
		r.fail("truncated string")
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *wireReader) threshold() arm.Threshold {
	if r.err != nil {
		return 0
	}
	if r.rem() < 1 {
		r.fail("truncated frame")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	if b > uint8(arm.ThresholdConf) {
		r.fail("unknown threshold kind")
		return 0
	}
	return arm.Threshold(b)
}

func (r *wireReader) itemset() arm.Itemset {
	n := r.uint()
	if r.err != nil {
		return nil
	}
	// Each item costs at least one wire byte.
	if n > uint64(r.rem()) {
		r.fail("malformed itemset count")
		return nil
	}
	if n == 0 {
		return nil
	}
	s := make(arm.Itemset, 0, n)
	for i := 0; i < int(n); i++ {
		s = append(s, arm.Item(r.int()))
	}
	return s
}

func (r *wireReader) ciphertext() *homo.Ciphertext {
	if r.err != nil {
		return nil
	}
	c, n, err := homo.ReadCiphertext(r.buf[r.off:])
	if err != nil {
		r.err = err
		return nil
	}
	r.off += n
	return c
}

func (r *wireReader) counter() *oblivious.Counter {
	if r.err != nil {
		return nil
	}
	c, n, err := oblivious.ReadCounter(r.buf[r.off:])
	if err != nil {
		r.err = err
		return nil
	}
	r.off += n
	return c
}

func (r *wireReader) done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.fail("trailing garbage after message")
	}
	return r.err
}

func appendItemset(dst []byte, s arm.Itemset) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, it := range s {
		dst = binary.AppendVarint(dst, int64(it))
	}
	return dst
}

func itemsetWireSize(s arm.Itemset) int {
	n := uvarintLen(uint64(len(s)))
	for _, it := range s {
		n += varintLen(int64(it))
	}
	return n
}

func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

func varintLen(v int64) int {
	return uvarintLen(uint64(v<<1) ^ uint64(v>>63))
}

func adoptInto(adopter homo.Adopter, c **homo.Ciphertext) error {
	if adopter == nil {
		return fmt.Errorf("core: ciphertext-bearing message needs an adopter")
	}
	adopted, err := adopter.Adopt(*c)
	if err != nil {
		return err
	}
	*c = adopted
	return nil
}

// adoptCounter re-binds every component of an oblivious counter.
func adoptCounter(adopter homo.Adopter, c *oblivious.Counter) error {
	for _, field := range []**homo.Ciphertext{&c.Sum, &c.Count, &c.Num, &c.Share} {
		if err := adoptInto(adopter, field); err != nil {
			return err
		}
	}
	for i := range c.Stamps {
		if err := adoptInto(adopter, &c.Stamps[i]); err != nil {
			return err
		}
	}
	return nil
}
