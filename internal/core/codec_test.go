package core

import (
	"crypto/rand"
	"testing"

	"secmr/internal/arm"
	"secmr/internal/homo"
	"secmr/internal/oblivious"
	"secmr/internal/paillier"
	"secmr/internal/shamir"
)

// codecSchemes returns one instance per scheme family, all of which
// must round-trip messages.
func codecSchemes() map[string]homo.Scheme {
	return map[string]homo.Scheme{
		"plain":    homo.NewPlain(96),
		"paillier": testPaillier,
		"shamir":   shamir.MustNew(shamir.Params{K: 3, N: 7, W: 1}),
	}
}

func TestCodecRuleCipherRoundTrip(t *testing.T) {
	for name, s := range codecSchemes() {
		adopter := s.(homo.Adopter)
		counter := &oblivious.Counter{
			Sum:   s.EncryptInt(7),
			Count: s.EncryptInt(20),
			Num:   s.EncryptInt(3),
			Share: s.EncryptInt(1),
			Stamps: []*homo.Ciphertext{
				s.EncryptInt(5), s.EncryptInt(0),
			},
		}
		msg := RuleCipherMsg{
			Rule:    arm.NewRule(arm.NewItemset(1), arm.NewItemset(2), arm.ThresholdConf),
			Counter: counter,
			Epoch:   3,
		}
		data, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		back, err := DecodeMessage(data, adopter)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		got := back.(RuleCipherMsg)
		if got.Rule.Key() != msg.Rule.Key() || got.Epoch != 3 {
			t.Fatalf("%s: metadata mangled: %+v", name, got)
		}
		// The adopted ciphertexts must decrypt identically AND be
		// usable in homomorphic ops (tag restored).
		if v := s.DecryptSigned(got.Counter.Sum).Int64(); v != 7 {
			t.Fatalf("%s: sum decrypts to %d", name, v)
		}
		sum2 := s.Add(got.Counter.Sum, got.Counter.Count)
		if v := s.DecryptSigned(sum2).Int64(); v != 27 {
			t.Fatalf("%s: adopted ciphertext unusable: %d", name, v)
		}
		if v := s.DecryptSigned(got.Counter.Stamps[0]).Int64(); v != 5 {
			t.Fatalf("%s: stamp decrypts to %d", name, v)
		}
	}
}

func TestCodecShareGrantAndReport(t *testing.T) {
	s := homo.NewPlain(96)
	g := ShareGrant{Share: s.EncryptInt(42), Slot: 2, NumSlots: 4, Epoch: 1}
	data, err := EncodeMessage(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMessage(data, s)
	if err != nil {
		t.Fatal(err)
	}
	bg := back.(ShareGrant)
	if bg.Slot != 2 || bg.NumSlots != 4 || bg.Epoch != 1 {
		t.Fatalf("grant mangled: %+v", bg)
	}
	if v := s.DecryptSigned(bg.Share).Int64(); v != 42 {
		t.Fatalf("share decrypts to %d", v)
	}

	rep := MaliciousReport{Accused: 3, Reporter: 1, Reason: "test"}
	data, err = EncodeMessage(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err = DecodeMessage(data, nil) // no ciphertexts: nil adopter fine
	if err != nil {
		t.Fatal(err)
	}
	if back.(MaliciousReport) != rep {
		t.Fatalf("report mangled: %+v", back)
	}
}

func TestCodecRejectsGarbageAndWrongScheme(t *testing.T) {
	s := homo.NewPlain(96)
	if _, err := DecodeMessage([]byte("junk"), s); err == nil {
		t.Fatal("garbage frame accepted")
	}
	if _, err := EncodeMessage(42); err == nil {
		t.Fatal("unknown message type accepted")
	}
	// A grant encoded under one Paillier key must fail adoption under a
	// different modulus when the ciphertext is out of range.
	pa := testPaillier
	big := pa.EncryptInt(1)
	g := ShareGrant{Share: big, Slot: 1, NumSlots: 2, Epoch: 1}
	data, err := EncodeMessage(g)
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := paillier.GenerateKey(rand.Reader, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(data, tiny); err == nil {
		t.Fatal("out-of-range ciphertext adopted")
	}
	// Ciphertext-bearing message without an adopter.
	if _, err := DecodeMessage(data, nil); err == nil {
		t.Fatal("nil adopter accepted for ciphertext message")
	}
}
