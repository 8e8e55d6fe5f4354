package majority

import "secmr/internal/sim"

// Msg is the wire payload of one Scalable-Majority exchange.
type Msg struct {
	Sum, Count int64
}

// Node hosts a single majority-vote Instance inside the discrete-event
// simulator: one single-itemset voter, the unit cmd/secmr-scale
// replicates to measure convergence at mega-grid scale.
type Node struct {
	Inst *Instance
	// initial vote installed at Init.
	voteSum, voteCount int64
	// staged vote applied at the next tick (database update arriving
	// asynchronously from the data layer); held by value so staging
	// allocates nothing.
	staged    Msg
	hasStaged bool
	// MessagesSent counts protocol messages originated by this node.
	MessagesSent int64
}

// NewNode creates a node voting ⟨sum, count⟩ at ratio lambdaN/lambdaD.
func NewNode(lambdaN, lambdaD, sum, count int64) *Node {
	return &Node{Inst: NewInstance(lambdaN, lambdaD), voteSum: sum, voteCount: count}
}

// Init wires the instance to the overlay neighbors and casts the
// initial local vote.
func (n *Node) Init(ctx *sim.Context) {
	for _, v := range ctx.Neighbors() {
		n.flush(ctx, n.Inst.AddNeighbor(v))
	}
	n.flush(ctx, n.Inst.SetLocalVote(n.voteSum, n.voteCount))
}

// OnMessage ingests a neighbor's aggregate.
func (n *Node) OnMessage(ctx *sim.Context, from sim.NodeID, payload any) {
	m := payload.(Msg)
	n.flush(ctx, n.Inst.OnReceive(from, m.Sum, m.Count))
}

// OnTick applies any staged vote update; the protocol is otherwise
// purely message driven.
func (n *Node) OnTick(ctx *sim.Context) {
	if n.hasStaged {
		m := n.staged
		n.hasStaged = false
		n.voteSum, n.voteCount = m.Sum, m.Count
		n.flush(ctx, n.Inst.SetLocalVote(m.Sum, m.Count))
	}
}

// StageVote schedules a local vote update to be applied at the node's
// next tick (a database update, §3's dynamic model). Safe to call from
// outside the engine between steps.
func (n *Node) StageVote(sum, count int64) {
	n.staged = Msg{Sum: sum, Count: count}
	n.hasStaged = true
}

// Decision exposes the instance's current belief.
func (n *Node) Decision() bool { return n.Inst.Decision() }

func (n *Node) flush(ctx *sim.Context, out []Outgoing) {
	for _, o := range out {
		n.MessagesSent++
		ctx.Send(o.To, Msg{Sum: o.Sum, Count: o.Count})
	}
}

var _ sim.Node = (*Node)(nil)
