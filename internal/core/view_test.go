package core

import (
	"testing"

	"secmr/internal/arm"
	"secmr/internal/homo"
	"secmr/internal/shamir"
)

// TestShamirBrokerViewOpensCounters pins a documented gap (DESIGN.md
// §13.2): every Shamir message carries all N shares of each field, so
// its wire bytes plus the public sharing geometry — what every broker,
// neighbour and link observer holds — open every counter field. The
// paper's broker "holds no keys"; under Paillier the key material a
// broker needs, the public key, carries no decryption capability.
func TestShamirBrokerViewOpensCounters(t *testing.T) {
	s := shamir.MustNew(shamir.Params{K: 3, N: 7, W: 1})
	want := [...]int64{-42, 97, 5, 1<<40 + 3, 11}
	c := counter(s, want[0], want[1], want[2], want[3], want[4])
	wire, err := EncodeMessage(RuleCipherMsg{Rule: arm.NewRule(nil, arm.Itemset{4}, arm.ThresholdFreq), Counter: c, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}

	observer := shamir.MustNew(s.Params()) // nothing but the geometry
	msg, err := DecodeMessage(wire, observer)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(RuleCipherMsg).Counter
	for i, ct := range []*homo.Ciphertext{got.Sum, got.Count, got.Num, got.Share, got.Stamps[0]} {
		if v := observer.DecryptSigned(ct).Int64(); v != want[i] {
			t.Fatalf("field %d: observer opened %d, want %d", i, v, want[i])
		}
	}

	var pub any = testPaillier.Public()
	if _, ok := pub.(homo.Decryptor); ok {
		t.Fatal("the Paillier public key must not decrypt")
	}
}
