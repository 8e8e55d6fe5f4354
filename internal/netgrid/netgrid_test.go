package netgrid

import (
	"crypto/rand"
	"testing"
	"time"

	"secmr/internal/arm"
	"secmr/internal/core"
	"secmr/internal/homo"
	"secmr/internal/oblivious"
	"secmr/internal/paillier"
)

func TestSecureMessageCodecOverTCP(t *testing.T) {
	scheme, err := paillier.GenerateKey(rand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan any, 1)
	rx, err := Start(1, func(from int, frame []byte) {
		msg, err := core.DecodeMessage(frame, scheme)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		got <- msg
	}, authOpt(1, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := Start(0, func(int, []byte) {}, authOpt(0, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	if err := tx.Connect(map[int]string{1: rx.Addr()}); err != nil {
		t.Fatal(err)
	}

	msg := core.RuleCipherMsg{
		Rule: arm.NewRule(nil, arm.NewItemset(4), arm.ThresholdFreq),
		Counter: &oblivious.Counter{
			Sum: scheme.EncryptInt(11), Count: scheme.EncryptInt(30),
			Num: scheme.EncryptInt(2), Share: scheme.EncryptInt(1),
			Stamps: []*homo.Ciphertext{scheme.EncryptInt(9)},
		},
		Epoch: 1,
	}
	frame, err := core.EncodeMessage(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Send(1, frame); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		rc := m.(core.RuleCipherMsg)
		if v := scheme.DecryptSigned(rc.Counter.Sum).Int64(); v != 11 {
			t.Fatalf("sum over the wire decrypted to %d", v)
		}
		// The adopted ciphertext is homomorphic-usable.
		s2 := scheme.Add(rc.Counter.Sum, rc.Counter.Count)
		if v := scheme.DecryptSigned(s2).Int64(); v != 41 {
			t.Fatalf("post-wire homomorphism broken: %d", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("message never arrived")
	}
	// The sender goroutine bumps the counter after conn.Write returns,
	// which can be after the receiver's handler has already fired.
	for deadline := time.Now().Add(5 * time.Second); tx.Sent() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("sent counter = %d", tx.Sent())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSendToUnknownPeer(t *testing.T) {
	n, err := Start(0, func(int, []byte) {}, authOpt(0, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Send(99, []byte("x")); err == nil {
		t.Fatal("send to unconnected peer succeeded")
	}
	if n.ID() != 0 {
		t.Fatal("id accessor")
	}
}

func TestMalformedFrameDisconnects(t *testing.T) {
	received := 0
	n, err := Start(0, func(int, []byte) { received++ }, authOpt(0, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// Raw dial with a bogus huge length: the node must drop the
	// connection without delivering anything or crashing.
	conn, err := netDial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1})
	time.Sleep(100 * time.Millisecond)
	if received != 0 {
		t.Fatal("malformed frame delivered")
	}
}

func netDial(addr string) (interface {
	Write([]byte) (int, error)
	Close() error
}, error) {
	return dialTCP(addr)
}
