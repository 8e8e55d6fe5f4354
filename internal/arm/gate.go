package arm

// Gate is the k-gate of one decision stream: the totals behind the last
// fresh (data-dependent) answer. Every miner that gates its answers —
// the secure controller's send and output decisions, the k-private
// baseline's — keeps one per stream and decides through Open, so the
// admission rule has a single statement outside the k-TTP reference
// (internal/ktp), which the audits check it against.
type Gate struct {
	Count, Num int64 // totals at the last fresh answer
	Freshed    bool  // a first fresh answer has been granted
}

// Open evaluates the k-gate: a fresh (data-dependent) answer is
// granted when the vote count grew by ≥ k AND the resource count
// either grew by ≥ k or is exactly unchanged since the last fresh
// answer. The latter clause resolves a contradiction in the paper
// (DESIGN.md §2): Definition 3.1 taken literally freezes every output
// once the resource set saturates, defeating the dynamic-database
// behaviour of §1/§6; re-answering an identical ≥ k-resource group
// over ≥ k fresh transactions is admissible to the transaction-level
// k-TTP and never exposes a group smaller than k resources. Partial
// resource growth (0 < Δnum < k) remains blocked — that is the
// resource-differencing attack the symmetric-difference condition
// exists to stop. A granted answer re-anchors the gate at (cnt, num).
func (g *Gate) Open(k, cnt, num int64) bool {
	if cnt-g.Count < k {
		return false
	}
	if num-g.Num >= k || (g.Freshed && num == g.Num) {
		g.Count, g.Num = cnt, num
		g.Freshed = true
		return true
	}
	return false
}
