package core

import (
	"strings"
	"testing"

	"secmr/internal/arm"
	"secmr/internal/homo"
	"secmr/internal/oblivious"
)

// wireMessages builds one message of each kind under the given scheme.
func wireMessages(s homo.Scheme) []any {
	counter := &oblivious.Counter{
		Sum:   s.EncryptInt(7),
		Count: s.EncryptInt(20),
		Num:   s.EncryptInt(3),
		Share: s.EncryptInt(1),
		Stamps: []*homo.Ciphertext{
			s.EncryptInt(5), s.EncryptInt(0), s.EncryptInt(11),
		},
	}
	return []any{
		ShareGrant{Share: s.EncryptInt(42), Slot: 2, NumSlots: 4, Epoch: 1},
		RuleCipherMsg{
			Rule:    arm.NewRule(arm.NewItemset(1, 4), arm.NewItemset(2), arm.ThresholdConf),
			Counter: counter,
			Epoch:   9,
		},
		MaliciousReport{Accused: 3, Reporter: 1, Reason: "stale timestamp"},
	}
}

// TestMessageWireSizeExact pins MessageWireSize to the actual encoded
// length — it is the byte-accounting currency of GridStats.BytesSent.
func TestMessageWireSizeExact(t *testing.T) {
	for name, s := range codecSchemes() {
		for _, msg := range wireMessages(s) {
			data, err := EncodeMessage(msg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := MessageWireSize(msg), len(data); got != want {
				t.Fatalf("%s/%T: MessageWireSize=%d, encoded=%d", name, msg, got, want)
			}
		}
	}
	if MessageWireSize(42) != 0 {
		t.Fatal("unknown message should size to 0")
	}
}

// TestAppendMessageReusesBuffer checks the pooled-encode contract:
// encoding into a buffer with enough capacity does not reallocate.
func TestAppendMessageReusesBuffer(t *testing.T) {
	s := homo.NewPlain(96)
	msg := wireMessages(s)[1]
	buf := make([]byte, 0, MessageWireSize(msg))
	out, err := AppendMessage(buf, msg)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendMessage reallocated despite sufficient capacity")
	}
	if len(out) != cap(buf) {
		t.Fatalf("encoded %d bytes into a buffer sized %d", len(out), cap(buf))
	}
}

// TestDecodeRejectsMalformedFrames feeds the decoder systematically
// broken frames: every one must produce an error — never a panic, and
// never an allocation driven by an attacker-claimed length.
func TestDecodeRejectsMalformedFrames(t *testing.T) {
	s := homo.NewPlain(96)
	msgs := wireMessages(s)

	// Truncations of every valid frame at every length.
	for _, msg := range msgs {
		data, err := EncodeMessage(msg)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut++ {
			_, err := DecodeMessage(data[:cut], s)
			if _, isReport := msg.(MaliciousReport); isReport && cut == len(data)-1 {
				// A report minus its trailing flags byte is not
				// malformed: it is a valid pre-quarantine frame and must
				// decode (with Evidence clear).
				if err != nil {
					t.Fatalf("%T without optional flags byte failed to decode: %v", msg, err)
				}
				continue
			}
			if err == nil {
				t.Fatalf("%T truncated to %d/%d bytes decoded successfully", msg, cut, len(data))
			}
		}
		// Trailing garbage after a complete message.
		if _, err := DecodeMessage(append(append([]byte{}, data...), 0x00), s); err == nil {
			t.Fatalf("%T with trailing garbage decoded successfully", msg)
		}
	}

	cases := map[string][]byte{
		"empty frame":         {},
		"bad version byte":    {0x9D, 1, 0, 0, 0},
		"reserved version":    {0x80, 1, 2, 3},
		"version only":        {0x9C},
		"unknown kind":        {0x9C, 99, 0},
		"oversized ct length": {0x9C, 1, 4, 8, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 1},
		"huge stamp count":    {0x9C, 2, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"huge itemset count":  {0x9C, 2, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"bad threshold kind":  {0x9C, 2, 7, 0, 0, 0, 0},
		"huge report reason":  {0x9C, 3, 6, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 'x'},
		"padded ciphertext":   {0x9C, 1, 4, 8, 2, 2, 0x00, 0x01},
	}
	for name, frame := range cases {
		if _, err := DecodeMessage(frame, s); err == nil {
			t.Fatalf("%s: decoded successfully", name)
		}
	}

	// Every lead byte but the two version bytes — the retired gob
	// envelope's included — is an unknown codec version.
	for b := 0; b < 256; b++ {
		if b == 0x9C || b == 0x9D {
			continue
		}
		_, err := DecodeMessage([]byte{byte(b), 1, 2, 3}, s)
		if err == nil || !strings.Contains(err.Error(), "unknown wire codec version") {
			t.Fatalf("lead byte 0x%02x: err = %v, want unknown wire codec version", b, err)
		}
	}
}
