package netgrid

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	mrand "math/rand"
	"sync"
	"testing"
	"time"

	"secmr/internal/arm"
	"secmr/internal/core"
	"secmr/internal/homo"
	"secmr/internal/majority"
	"secmr/internal/oblivious"
	"secmr/internal/paillier"
	"secmr/internal/topology"
)

// tcpVoter hosts a majority.Instance behind a netgrid node.
type tcpVoter struct {
	mu   sync.Mutex
	inst *majority.Instance
	node *Node
}

func (v *tcpVoter) flush(out []majority.Outgoing) {
	for _, o := range out {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(majority.Msg{Sum: o.Sum, Count: o.Count}); err != nil {
			panic(err)
		}
		if err := v.node.Send(o.To, buf.Bytes()); err != nil {
			panic(err)
		}
	}
}

func (v *tcpVoter) handle(from int, frame []byte) {
	var m majority.Msg
	if err := gob.NewDecoder(bytes.NewReader(frame)).Decode(&m); err != nil {
		return
	}
	v.mu.Lock()
	out := v.inst.OnReceive(from, m.Sum, m.Count)
	v.mu.Unlock()
	v.flush(out)
}

func (v *tcpVoter) decision() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.inst.Decision()
}

func TestMajorityVoteOverTCP(t *testing.T) {
	const n = 9
	rng := mrand.New(mrand.NewSource(5))
	tree := topology.RandomTree(n, topology.DelayRange{Min: 1, Max: 1}, rng)

	voters := make([]*tcpVoter, n)
	var globalSum, globalCnt int64
	for i := 0; i < n; i++ {
		v := &tcpVoter{inst: majority.NewInstance(1, 2)}
		node, err := Start(i, v.handle, authOpt(i, Options{}))
		if err != nil {
			t.Fatal(err)
		}
		v.node = node
		voters[i] = v
		defer node.Close()
	}
	// Wire the tree: each node dials its lower-id neighbors.
	for i := 0; i < n; i++ {
		peers := map[int]string{}
		for _, w := range tree.Neighbors(i) {
			if w < i {
				peers[w] = voters[w].node.Addr()
			}
		}
		if err := voters[i].node.Connect(peers); err != nil {
			t.Fatal(err)
		}
	}
	// Barrier: every node must see all its tree neighbours connected
	// (inbound dials register asynchronously).
	for i := 0; i < n; i++ {
		if !voters[i].node.WaitFor(tree.Neighbors(i), 10*time.Second) {
			t.Fatalf("node %d never saw all neighbours", i)
		}
	}
	// Cast votes: 70% positive overall.
	for i, v := range voters {
		cnt := int64(20 + i)
		sum := int64(float64(cnt) * 0.7)
		globalSum += sum
		globalCnt += cnt
		v.mu.Lock()
		var out []majority.Outgoing
		for _, w := range tree.Neighbors(i) {
			out = append(out, v.inst.AddNeighbor(w)...)
		}
		out = append(out, v.inst.SetLocalVote(sum, cnt)...)
		v.mu.Unlock()
		v.flush(out)
	}
	want := 2*globalSum-globalCnt >= 0

	deadline := time.After(15 * time.Second)
	for {
		agree := 0
		for _, v := range voters {
			if v.decision() == want {
				agree++
			}
		}
		if agree == n {
			return // success
		}
		select {
		case <-deadline:
			t.Fatalf("only %d/%d nodes agree after 15s", agree, n)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

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
