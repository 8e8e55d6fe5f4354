// Package majority implements Scalable-Majority, the local majority-
// voting protocol of Wolff & Schuster (ICDM '03) that the paper builds
// on (§4.1). Nodes on a communication tree carry an agglomerated vote
// ⟨sum, count⟩ and exchange partial aggregates; when the protocol
// quiesces every node agrees with the global majority — whether
// Σsum ≥ λ·Σcount — having typically communicated with only a local
// neighborhood ("local algorithm").
//
// The majority ratio λ is rational, λ = λn/λd, so all arithmetic is
// exact over int64.
//
// The Instance type is a pure state machine (no I/O) driven by the
// simulator wrapper (Node); cmd/secmr-scale hosts one Node per
// resource to measure the protocol at mega-grid scale. The miners
// (internal/majorityrule, and in encrypted form internal/core) run the
// same exchange over their own per-candidate state and do not import
// this package. Keeping it pure makes the protocol unit-testable
// against a ground-truth oracle.
//
// Instances are flyweights: edge state lives in parallel slices in
// insertion order (two allocations per node, not one per edge), the
// received totals are maintained incrementally so every Δ quantity is
// O(1), and evaluate reuses one outgoing buffer — a steady-state vote
// or receive event allocates nothing. At mega-grid scale (100k–1M
// instances in one process) these constants are what bounds memory and
// step latency; see DESIGN.md §12.
package majority

import "fmt"

// NeighborID identifies a neighbor of this node (the overlay node ID).
type NeighborID = int

// Outgoing is a protocol message this node wants delivered to a
// neighbor: the sum of everything the node knows except what the
// recipient itself contributed.
type Outgoing struct {
	To         NeighborID
	Sum, Count int64
}

// edgeState tracks the last values exchanged over one edge
// (sum^vu/count^vu received, sum^uv/count^uv sent).
type edgeState struct {
	recvSum, recvCount int64
	sentSum, sentCount int64
	contacted          bool
}

// Instance is the per-node state of one majority vote.
type Instance struct {
	lambdaN, lambdaD int64
	localSum         int64 // sum^⊥u — local votes in favour
	localCount       int64 // count^⊥u — local votes cast

	// ids and edges are parallel slices in neighbor insertion order;
	// all iteration is deterministic. Lookup is a linear scan — overlay
	// degrees are small (trees, BA with small m), and the scan is
	// cheaper than a map until degrees far beyond any overlay here.
	ids   []NeighborID
	edges []edgeState

	// Received totals over all edges, maintained incrementally so Δ^u
	// and per-edge payloads are O(1) instead of O(degree) (which made
	// evaluate O(degree²) — quadratic on hub nodes).
	recvSumTotal, recvCountTotal int64

	// out is the reusable buffer evaluate fills; the slice returned by
	// AddNeighbor/SetLocalVote/OnReceive is valid until the next call
	// on this instance.
	out []Outgoing
}

// NewInstance creates a vote with majority ratio lambdaN/lambdaD
// (e.g. MinFreq = 30% → 3/10). lambdaD must be positive.
func NewInstance(lambdaN, lambdaD int64) *Instance {
	if lambdaD <= 0 {
		panic(fmt.Sprintf("majority: lambdaD = %d", lambdaD))
	}
	return &Instance{lambdaN: lambdaN, lambdaD: lambdaD}
}

// Lambda returns the majority ratio as (λn, λd).
func (in *Instance) Lambda() (int64, int64) { return in.lambdaN, in.lambdaD }

// Neighbors returns the currently known neighbor IDs in insertion
// order (a copy).
func (in *Instance) Neighbors() []NeighborID {
	return append([]NeighborID(nil), in.ids...)
}

// edgeIndex returns (possibly creating) the edge slot for neighbor v.
func (in *Instance) edgeIndex(v NeighborID) int {
	for i, id := range in.ids {
		if id == v {
			return i
		}
	}
	in.ids = append(in.ids, v)
	in.edges = append(in.edges, edgeState{})
	return len(in.ids) - 1
}

// deltaU computes Δ^u = Σ_{v∈N} (λd·sum^vu − λn·count^vu), where N
// includes the virtual neighbor ⊥ carrying the local vote.
func (in *Instance) deltaU() int64 {
	return in.lambdaD*(in.localSum+in.recvSumTotal) - in.lambdaN*(in.localCount+in.recvCountTotal)
}

// deltaUV computes Δ^uv = λd(sum^vu+sum^uv) − λn(count^vu+count^uv)
// (the Algorithm 1 form; §4.1's prose has a sign typo).
func (in *Instance) deltaUV(e *edgeState) int64 {
	return in.lambdaD*(e.recvSum+e.sentSum) - in.lambdaN*(e.recvCount+e.sentCount)
}

// Decision reports the node's current belief about the global vote:
// true when Δ^u ≥ 0, i.e. the fraction of positive votes is at least λ.
func (in *Instance) Decision() bool { return in.deltaU() >= 0 }

// Delta exposes Δ^u for significance analysis.
func (in *Instance) Delta() int64 { return in.deltaU() }

// LocalVote returns the node's own agglomerated vote.
func (in *Instance) LocalVote() (sum, count int64) { return in.localSum, in.localCount }

// KnownSum returns the total ⟨sum, count⟩ this node currently bases its
// decision on (its own vote plus everything received).
func (in *Instance) KnownSum() (sum, count int64) {
	return in.localSum + in.recvSumTotal, in.localCount + in.recvCountTotal
}

// payloadFor builds the message for the edge: local vote plus every
// other neighbor's last received aggregate — the running totals minus
// the recipient's own contribution.
func (in *Instance) payloadFor(e *edgeState) (sum, count int64) {
	return in.localSum + in.recvSumTotal - e.recvSum,
		in.localCount + in.recvCountTotal - e.recvCount
}

// evaluate applies the Scalable-Majority send condition to every
// neighbor and returns the messages that must go out. Sending to v
// makes Δ^uv equal Δ^u, so a single pass reaches a local fixpoint.
// The returned slice is reused by the next evaluation.
func (in *Instance) evaluate() []Outgoing {
	in.out = in.out[:0]
	du := in.deltaU()
	for i := range in.edges {
		e := &in.edges[i]
		duv := in.deltaUV(e)
		mustSend := !e.contacted ||
			(duv >= 0 && duv > du) ||
			(duv < 0 && duv < du)
		if !mustSend {
			continue
		}
		s, c := in.payloadFor(e)
		e.sentSum, e.sentCount = s, c
		e.contacted = true
		in.out = append(in.out, Outgoing{To: in.ids[i], Sum: s, Count: c})
	}
	return in.out
}

// AddNeighbor registers a new edge (initialization, or a resource
// joining, §3's dynamic grid). It returns the first-contact messages
// the protocol requires; the slice is valid until the next call.
func (in *Instance) AddNeighbor(v NeighborID) []Outgoing {
	in.edgeIndex(v)
	return in.evaluate()
}

// SetLocalVote replaces the node's agglomerated local vote (the
// accountant's ⟨sum^⊥u, count^⊥u⟩) and returns any induced messages;
// the slice is valid until the next call. Votes only accumulate in the
// paper's model, but the state machine accepts any change (the secure
// layer's padding dance briefly sets transient values).
func (in *Instance) SetLocalVote(sum, count int64) []Outgoing {
	in.localSum, in.localCount = sum, count
	return in.evaluate()
}

// OnReceive ingests a neighbor's message and returns induced messages;
// the slice is valid until the next call. An unknown sender is added
// as a neighbor first (first contact from the other side).
func (in *Instance) OnReceive(from NeighborID, sum, count int64) []Outgoing {
	e := &in.edges[in.edgeIndex(from)]
	in.recvSumTotal += sum - e.recvSum
	in.recvCountTotal += count - e.recvCount
	e.recvSum, e.recvCount = sum, count
	return in.evaluate()
}
