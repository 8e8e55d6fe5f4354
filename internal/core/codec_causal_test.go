package core

import (
	"reflect"
	"testing"

	"secmr/internal/homo"
	"secmr/internal/obs"
)

// TestCausalEnvelopeRoundTrip proves the 0x9D causal envelope carries
// the context losslessly.
func TestCausalEnvelopeRoundTrip(t *testing.T) {
	var s homo.Scheme = homo.NewPlain(96)
	adopter := s.(homo.Adopter)
	cc := obs.CausalCtx{Origin: 7, OSeq: 129, Hops: 3}
	for _, msg := range wireMessages(s) {
		var ad homo.Adopter
		if _, ok := msg.(MaliciousReport); !ok {
			ad = adopter
		}
		frame, err := AppendMessageCtx(nil, msg, cc)
		if err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		if frame[0] != 0x9D {
			t.Fatalf("%T: envelope starts with 0x%02x, want 0x9D", msg, frame[0])
		}
		peeked, ok := PeekCausalCtx(frame)
		if !ok || peeked != cc {
			t.Fatalf("%T: peek got %+v ok=%v, want %+v", msg, peeked, ok, cc)
		}
		back, gotCC, err := DecodeMessageCtx(frame, ad)
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if gotCC != cc {
			t.Fatalf("%T: context mangled: %+v", msg, gotCC)
		}
		plain, err := DecodeMessage(append([]byte(nil), AppendOrDie(t, msg)...), ad)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, plain) {
			t.Fatalf("%T: payload mangled under envelope", msg)
		}
	}
}

// AppendOrDie encodes msg with the plain compact codec.
func AppendOrDie(t *testing.T, msg any) []byte {
	t.Helper()
	b, err := AppendMessage(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCausalEnvelopeMixedVersionInterop pins the interop contract: an
// old decoder (DecodeMessage) transparently accepts enveloped frames,
// and a new decoder (DecodeMessageCtx) accepts plain compact frames,
// reporting an absent context.
func TestCausalEnvelopeMixedVersionInterop(t *testing.T) {
	var s homo.Scheme = homo.NewPlain(96)
	adopter := s.(homo.Adopter)
	cc := obs.CausalCtx{Origin: 0, OSeq: 1, Hops: 1} // origin 0 is a legal node id
	for _, msg := range wireMessages(s) {
		var ad homo.Adopter
		if _, ok := msg.(MaliciousReport); !ok {
			ad = adopter
		}
		enveloped, err := AppendMessageCtx(nil, msg, cc)
		if err != nil {
			t.Fatal(err)
		}
		// New frame, old decoder: the envelope is stripped transparently.
		old, err := DecodeMessage(enveloped, ad)
		if err != nil {
			t.Fatalf("%T: old decoder rejects enveloped frame: %v", msg, err)
		}
		// Old frame, new decoder: zero context, payload intact.
		frame, err := AppendMessage(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, gotCC, err := DecodeMessageCtx(frame, ad)
		if err != nil {
			t.Fatalf("%T: new decoder rejects bare compact frame: %v", msg, err)
		}
		if gotCC.Valid() {
			t.Fatalf("%T: phantom context %+v on a context-free frame", msg, gotCC)
		}
		if !reflect.DeepEqual(got, old) {
			t.Fatalf("%T: payload differs across decoders", msg)
		}
		if _, ok := PeekCausalCtx(frame); ok {
			t.Fatalf("%T: peek invented a context", msg)
		}
	}
}

// TestCausalEnvelopeInvalidCtxFallsBack proves an invalid context
// (OSeq 0) degrades to the plain compact frame.
func TestCausalEnvelopeInvalidCtxFallsBack(t *testing.T) {
	var s homo.Scheme = homo.NewPlain(96)
	msg := wireMessages(s)[0]
	withCtx, err := AppendMessageCtx(nil, msg, obs.CausalCtx{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := AppendMessage(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withCtx, plain) {
		t.Fatalf("invalid context still produced an envelope (first byte 0x%02x)", withCtx[0])
	}
}

// TestCausalEnvelopeRejectsMalformed pins the failure modes: nested
// envelopes, truncated varints, a zero origin sequence, and an
// envelope with no payload must all be rejected, never guessed at.
func TestCausalEnvelopeRejectsMalformed(t *testing.T) {
	var s homo.Scheme = homo.NewPlain(96)
	msg := wireMessages(s)[0]
	adopter := s.(homo.Adopter)
	good, err := AppendMessageCtx(nil, msg, obs.CausalCtx{Origin: 2, OSeq: 5, Hops: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty envelope":   {0x9D},
		"truncated varint": good[:2],
		"no payload":       {0x9D, 2, 5, 1},
		"nested envelope":  append([]byte{0x9D, 2, 5, 1}, good...),
		"zero oseq":        append([]byte{0x9D, 2, 0, 1}, good[4:]...),
	}
	for name, frame := range cases {
		if _, _, err := DecodeMessageCtx(frame, adopter); err == nil {
			t.Errorf("%s: DecodeMessageCtx accepted a malformed frame", name)
		}
		if _, err := DecodeMessage(frame, adopter); err == nil {
			t.Errorf("%s: DecodeMessage accepted a malformed frame", name)
		}
	}
}
