package core

import (
	"bytes"
	"testing"

	"secmr/internal/homo"
	"secmr/internal/obs"
)

// FuzzDecodeMessage throws arbitrary bytes at the wire decoder (bare
// compact frames and causal envelopes share the entry point).
// Invariants: never panic, and any frame that decodes must
// re-encode canonically — compact encode of the decoded message
// round-trips to identical bytes.
func FuzzDecodeMessage(f *testing.F) {
	s := homo.NewPlain(96)
	for _, msg := range []any{
		ShareGrant{Share: s.EncryptInt(42), Slot: 2, NumSlots: 4, Epoch: 1},
		wireMessages(s)[1],
		MaliciousReport{Accused: 3, Reporter: 1, Reason: "stale"},
	} {
		if compact, err := EncodeMessage(msg); err == nil {
			f.Add(compact)
		}
		if enveloped, err := AppendMessageCtx(nil, msg, obs.CausalCtx{Origin: 2, OSeq: 7, Hops: 1}); err == nil {
			f.Add(enveloped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x9C})
	f.Add([]byte{0x9C, 2, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte("junk"))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeMessage(data, s)
		if err != nil {
			return
		}
		out, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		back, err := DecodeMessage(out, s)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		out2, err := EncodeMessage(back)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("compact encoding not canonical:\n%x\n%x", out, out2)
		}
	})
}
