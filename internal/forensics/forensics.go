// Package forensics reconstructs a single causal story from the trace
// events the runtimes emit (internal/obs): per-node JSONL traces are
// merged into one deterministic DAG keyed by the causal wire context
// (obs.CausalCtx — every transmission's (Origin, OSeq) identity links
// its msg_send to the matching msg_deliver/msg_drop events on other
// nodes), and the package answers the three post-mortem questions the
// paper's malicious-participant setting raises:
//
//   - which message chain carried a rule to convergence (CriticalPath),
//   - which sends never arrived and why (Losses — every loss is
//     attributed to an injected fault cause or flagged unexplained),
//   - how an eviction unfolded (EvictionReport — adversary activation,
//     detection, the report flood, quorum/evidence, the evictions).
//
// All outputs are deterministic for a fixed input: ordering uses total
// sort keys, never map iteration, so a fixed-seed simulator run prints
// byte-identical forensics.
package forensics

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"secmr/internal/obs"
)

// MsgKey is one transmission's causal identity: the origin node and
// its Lamport clock value at send time. Fault-injected duplicates
// share their original's key.
type MsgKey struct {
	Origin int
	OSeq   int64
}

// Message aggregates every trace event observed for one transmission.
type Message struct {
	Key MsgKey
	// Sends/Delivers/Drops index into DAG.Events.
	Sends    []int
	Delivers []int
	Drops    []int
}

// DAG is the merged, totally ordered causal event graph.
type DAG struct {
	// Events is the merged trace in a deterministic total order.
	Events []obs.Event
	// ByKey indexes transmissions by causal identity.
	ByKey map[MsgKey]*Message
	// MaxStep is the largest step observed (the trace horizon).
	MaxStep int64
}

// Merge combines per-node traces into one DAG. The total order is
// (Step, LC, Node, Seq, then the remaining fields), so the same set of
// events always produces the same DAG regardless of input file order.
func Merge(traces ...[]obs.Event) *DAG {
	var all []obs.Event
	for _, t := range traces {
		all = append(all, t...)
	}
	sort.SliceStable(all, func(i, j int) bool { return eventLess(all[i], all[j]) })
	d := &DAG{Events: all, ByKey: map[MsgKey]*Message{}}
	for i, e := range all {
		if e.Step > d.MaxStep {
			d.MaxStep = e.Step
		}
		cc := e.Causal()
		if !cc.Valid() {
			continue
		}
		key := MsgKey{Origin: cc.Origin, OSeq: cc.OSeq}
		m := d.ByKey[key]
		if m == nil {
			m = &Message{Key: key}
			d.ByKey[key] = m
		}
		switch e.Type {
		case obs.EvMsgSend:
			m.Sends = append(m.Sends, i)
		case obs.EvMsgDeliver:
			m.Delivers = append(m.Delivers, i)
		case obs.EvMsgDrop:
			m.Drops = append(m.Drops, i)
		}
	}
	return d
}

// eventLess is a total order over events: no two distinct events
// compare equal unless they are field-for-field identical, which makes
// every derived report byte-stable.
func eventLess(a, b obs.Event) bool {
	switch {
	case a.Step != b.Step:
		return a.Step < b.Step
	case a.LC != b.LC:
		return a.LC < b.LC
	case a.Node != b.Node:
		return a.Node < b.Node
	case a.Seq != b.Seq:
		return a.Seq < b.Seq
	case a.Type != b.Type:
		return a.Type < b.Type
	case a.Peer != b.Peer:
		return a.Peer < b.Peer
	case a.OSeq != b.OSeq:
		return a.OSeq < b.OSeq
	case a.Rule != b.Rule:
		return a.Rule < b.Rule
	default:
		return a.Detail < b.Detail
	}
}

// sortedKeys returns the transmission identities in deterministic
// order.
func (d *DAG) sortedKeys() []MsgKey {
	keys := make([]MsgKey, 0, len(d.ByKey))
	for k := range d.ByKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Origin != keys[j].Origin {
			return keys[i].Origin < keys[j].Origin
		}
		return keys[i].OSeq < keys[j].OSeq
	})
	return keys
}

// WriteText prints the merged DAG, one line per event, in the total
// order — the byte-stable "flight recording" of a run.
func (d *DAG) WriteText(w io.Writer) error {
	for _, e := range d.Events {
		if _, err := fmt.Fprintln(w, FormatEvent(e)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# %d events, %d transmissions, horizon step %d\n",
		len(d.Events), len(d.ByKey), d.MaxStep)
	return err
}

// FormatEvent renders one event in the fixed single-line layout used
// by every textual report. Seq is deliberately omitted: it is
// per-tracer, so it is not stable across a multi-file merge.
func FormatEvent(e obs.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "step=%-5d lc=%-5d node=%-3d %-14s", e.Step, e.LC, e.Node, e.Type)
	if e.Peer >= 0 {
		fmt.Fprintf(&b, " peer=%d", e.Peer)
	}
	if cc := e.Causal(); cc.Valid() {
		fmt.Fprintf(&b, " msg=%d/%d hops=%d", cc.Origin, cc.OSeq, cc.Hops)
	}
	if e.Rule != "" {
		fmt.Fprintf(&b, " rule=%q", e.Rule)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " detail=%q", e.Detail)
	}
	if e.Value != 0 {
		fmt.Fprintf(&b, " value=%d", e.Value)
	}
	return b.String()
}

// Loss is one transmission that never reached a handler.
type Loss struct {
	Key MsgKey
	// From/To/Step describe the (first) send or drop observed.
	From, To int
	Step     int64
	// Causes are the distinct drop causes observed (sorted); empty for
	// an unexplained loss.
	Causes []string
	// Unexplained marks a send with neither a delivery nor any drop
	// record inside the trace horizon — the one thing fault injection
	// can never legitimately produce.
	Unexplained bool
}

// LossReport classifies every transmission in the DAG.
type LossReport struct {
	Total     int // distinct transmissions observed
	Delivered int // at least one copy reached a handler
	Lost      []Loss
	// Censored counts sends still inside the grace horizon at trace
	// end (potentially in flight, not judged).
	Censored int
}

// Losses audits message loss: every transmission with no delivery is
// either attributed to recorded drop causes, censored as potentially
// in-flight (sent within grace steps of the trace horizon), or flagged
// unexplained. grace <= 0 defaults to 8 steps (max link delay plus
// injected jitter in the stock topologies).
func (d *DAG) Losses(grace int64) *LossReport {
	if grace <= 0 {
		grace = 8
	}
	rep := &LossReport{}
	for _, key := range d.sortedKeys() {
		m := d.ByKey[key]
		if len(m.Sends) == 0 && len(m.Delivers) == 0 && len(m.Drops) == 0 {
			continue
		}
		rep.Total++
		if len(m.Delivers) > 0 {
			rep.Delivered++
			continue
		}
		loss := Loss{Key: key}
		ref := -1
		if len(m.Sends) > 0 {
			ref = m.Sends[0]
		} else if len(m.Drops) > 0 {
			ref = m.Drops[0]
		}
		e := d.Events[ref]
		loss.From, loss.To, loss.Step = e.Node, e.Peer, e.Step
		causes := map[string]bool{}
		for _, i := range m.Drops {
			if c := d.Events[i].Detail; c != "" {
				causes[c] = true
			}
		}
		for c := range causes {
			loss.Causes = append(loss.Causes, c)
		}
		sort.Strings(loss.Causes)
		// A send with fewer drop records than copies could still be in
		// flight at trace end; censor it instead of crying wolf.
		if len(m.Drops) == 0 && loss.Step+grace > d.MaxStep {
			rep.Censored++
			continue
		}
		loss.Unexplained = len(loss.Causes) == 0
		rep.Lost = append(rep.Lost, loss)
	}
	return rep
}

// Unexplained returns the losses with no recorded cause.
func (r *LossReport) Unexplained() []Loss {
	var out []Loss
	for _, l := range r.Lost {
		if l.Unexplained {
			out = append(out, l)
		}
	}
	return out
}

// WriteText prints the loss audit.
func (r *LossReport) WriteText(w io.Writer) error {
	byCause := map[string]int{}
	unexplained := 0
	for _, l := range r.Lost {
		if l.Unexplained {
			unexplained++
			continue
		}
		byCause[strings.Join(l.Causes, "+")]++
	}
	causes := make([]string, 0, len(byCause))
	for c := range byCause {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	fmt.Fprintf(w, "transmissions: %d  delivered: %d  lost: %d  in-flight-censored: %d\n",
		r.Total, r.Delivered, len(r.Lost), r.Censored)
	for _, c := range causes {
		fmt.Fprintf(w, "  lost to %-16s %d\n", c+":", byCause[c])
	}
	fmt.Fprintf(w, "  unexplained:            %d\n", unexplained)
	for _, l := range r.Lost {
		if l.Unexplained {
			fmt.Fprintf(w, "    UNEXPLAINED msg=%d/%d step=%d %d->%d\n",
				l.Key.Origin, l.Key.OSeq, l.Step, l.From, l.To)
		}
	}
	return nil
}

// CriticalPath walks the causal chain behind the last decision event
// (output_dec or vote_fresh) for the given rule key, hop by hop: from
// the decision back to the counter receipt that enabled it, through
// the delivering message's (Origin, OSeq) identity to the matching
// send, to the counter transmission at the sender, and onward — the
// convergence critical path. The returned events are in causal
// (forward) order, ending at the decision. Nil when the rule never
// reached a decision.
func (d *DAG) CriticalPath(rule string) []obs.Event {
	target := -1
	for i := len(d.Events) - 1; i >= 0; i-- {
		e := d.Events[i]
		if (e.Type == obs.EvOutputDec || e.Type == obs.EvVoteFresh) && e.Rule == rule {
			target = i
			break
		}
	}
	if target < 0 {
		return nil
	}
	var path []obs.Event
	visited := map[int]bool{}
	idx, node := target, d.Events[target].Node
	for idx >= 0 && !visited[idx] && len(path) < 512 {
		visited[idx] = true
		path = append(path, d.Events[idx])
		// The latest inbound counter for this rule at this node, before
		// the current link — what the decision/aggregation consumed.
		recv := d.lastBefore(idx, func(e obs.Event) bool {
			return e.Type == obs.EvCounterRecv && e.Node == node && e.Rule == rule
		})
		if recv < 0 {
			break
		}
		path = append(path, d.Events[recv])
		// The delivery that carried it: handlers emit counter_recv while
		// handling the message, so the nearest preceding msg_deliver at
		// the same node is the carrying transmission.
		deliver := d.lastBefore(recv+1, func(e obs.Event) bool {
			return e.Type == obs.EvMsgDeliver && e.Node == node && e.Causal().Valid()
		})
		if deliver < 0 {
			break
		}
		path = append(path, d.Events[deliver])
		cc := d.Events[deliver].Causal()
		m := d.ByKey[MsgKey{Origin: cc.Origin, OSeq: cc.OSeq}]
		if m == nil || len(m.Sends) == 0 {
			break
		}
		send := m.Sends[0]
		path = append(path, d.Events[send])
		// Continue at the sender from its counter transmission.
		node = d.Events[send].Node
		cs := d.lastBefore(send+1, func(e obs.Event) bool {
			return e.Type == obs.EvCounterSend && e.Node == node && e.Rule == rule
		})
		if cs < 0 {
			idx = send
			continue
		}
		idx = cs
	}
	// Events were collected walking backwards; reverse into causal
	// order and drop duplicates introduced by the loop structure.
	out := make([]obs.Event, 0, len(path))
	seen := map[string]bool{}
	for i := len(path) - 1; i >= 0; i-- {
		k := FormatEvent(path[i])
		if !seen[k] {
			seen[k] = true
			out = append(out, path[i])
		}
	}
	return out
}

// lastBefore returns the largest index < bound whose event satisfies
// pred, or -1.
func (d *DAG) lastBefore(bound int, pred func(obs.Event) bool) int {
	if bound > len(d.Events) {
		bound = len(d.Events)
	}
	for i := bound - 1; i >= 0; i-- {
		if pred(d.Events[i]) {
			return i
		}
	}
	return -1
}
