package core

import (
	"bytes"
	"fmt"
	"testing"

	"secmr/internal/arm"
	"secmr/internal/homo"
	"secmr/internal/intern"
)

// TestGateMapsRoundTripInternedKeys exercises the legacy-string gate
// codec directly: in memory the gates are keyed by interned symbols
// (and packed (rule, edge) structs), but the snapshot writes the
// historical "<rule>#<edge>" / "<rule>" strings. Encoding and decoding
// must agree on those strings regardless of symbol numbering.
func TestGateMapsRoundTripInternedKeys(t *testing.T) {
	send := map[sendGateKey]*gateState{
		{rule: intern.S("1,2>3|conf"), edge: 7}:  {Gate: arm.Gate{Count: 4, Num: 2}, queried: true},
		{rule: intern.S(">5|freq"), edge: 12}:    {Gate: arm.Gate{Freshed: true}, lastCount: 9},
		{rule: intern.S("1,2>3|conf"), edge: 30}: {cached: true},
	}
	out := map[intern.Sym]*gateState{
		intern.S(">5|freq"):    {Gate: arm.Gate{Count: 1}, cached: true},
		intern.S("1,2>3|conf"): {lastNum: 3},
	}
	buf := appendSendGates(nil, send)
	buf = appendOutGates(buf, out)

	rd := &wireReader{buf: buf}
	gotSend, err := readSendGates(rd)
	if err != nil {
		t.Fatalf("readSendGates: %v", err)
	}
	gotOut, err := readOutGates(rd)
	if err != nil {
		t.Fatalf("readOutGates: %v", err)
	}
	if len(gotSend) != len(send) || len(gotOut) != len(out) {
		t.Fatalf("size mismatch: send %d/%d out %d/%d", len(gotSend), len(send), len(gotOut), len(out))
	}
	for k, g := range send {
		got, ok := gotSend[k]
		if !ok {
			t.Fatalf("send gate %v lost (rule %q)", k, intern.Str(k.rule))
		}
		if *got != *g {
			t.Fatalf("send gate %v: %+v != %+v", k, got, g)
		}
	}
	for k, g := range out {
		got, ok := gotOut[k]
		if !ok || *got != *g {
			t.Fatalf("out gate %q mismatch", intern.Str(k))
		}
	}
	// Re-encoding the decoded maps must reproduce the bytes (sorted
	// legacy-string order is canonical).
	buf2 := appendSendGates(nil, gotSend)
	buf2 = appendOutGates(buf2, gotOut)
	if !bytes.Equal(buf, buf2) {
		t.Fatal("gate maps do not re-encode bit-for-bit")
	}
}

// TestSnapshotRoundTrip drives a secure grid to the middle of a run,
// snapshots every resource, restores each from bytes alone, and checks
// the restoration is exact: re-encoding a restored resource must
// reproduce the snapshot bit-for-bit, and the decrypted aggregates of
// every candidate must match the live resource's.
func TestSnapshotRoundTrip(t *testing.T) {
	scheme := homo.NewPlain(96)
	e, resources, _ := buildSecureGrid(t, scheme, 5, 2, 7, nil, nil)
	e.Run(120)

	for i, r := range resources {
		state := r.EncodeState()
		restored, err := RestoreResource(i, r.cfg, scheme, state)
		if err != nil {
			t.Fatalf("restore resource %d: %v", i, err)
		}
		re := restored.EncodeState()
		if !bytes.Equal(state, re) {
			off := 0
			for off < len(state) && off < len(re) && state[off] == re[off] {
				off++
			}
			t.Fatalf("resource %d: re-encoded snapshot diverges at byte %d (%d vs %d bytes total)",
				i, off, len(state), len(re))
		}
		for _, cand := range r.Broker.cands {
			key := cand.Key
			s1, c1, n1, _ := r.Broker.DebugAggregate(key)
			s2, c2, n2, ok := restored.Broker.DebugAggregate(key)
			if !ok {
				t.Fatalf("resource %d: candidate %q lost in restore", i, key)
			}
			if s1 != s2 || c1 != c2 || n1 != n2 {
				t.Fatalf("resource %d candidate %q: aggregate (%d,%d,%d) restored as (%d,%d,%d)",
					i, key, s1, c1, n1, s2, c2, n2)
			}
		}
	}
}

// keyedOutput is the reference for Broker.Output: each confidence
// rule's companion is looked up by key among the passing frequency
// rules, as the broker did before it linked companions once.
func keyedOutput(b *Broker) arm.RuleSet {
	out := arm.RuleSet{}
	for _, c := range b.cands {
		if c.Rule.Kind == arm.ThresholdFreq && b.ctl.PeekOutput(c.Sym) {
			out.Add(c.Rule)
		}
	}
	for _, c := range b.cands {
		comp := arm.NewRule(nil, c.Rule.Union(), arm.ThresholdFreq)
		if c.Rule.Kind == arm.ThresholdConf && b.ctl.PeekOutput(c.Sym) && out.Has(comp) {
			out.Add(c.Rule)
		}
	}
	return out
}

// TestOutputCompanionLinks holds Output to the keyed reference while
// candidates still arrive (a confidence rule received from a neighbour
// is created before its companion) and on resources restored from a
// snapshot, which rebuild the links.
func TestOutputCompanionLinks(t *testing.T) {
	scheme := homo.NewPlain(96)
	e, resources, _ := buildSecureGrid(t, scheme, 5, 2, 7, nil, nil)
	same := func(step int, what string, got, want arm.RuleSet) {
		t.Helper()
		if len(got) != len(want) || got.IntersectCount(want) != len(want) {
			t.Fatalf("step %d %s: output has %d rules, keyed reference %d (%d shared)",
				step, what, len(got), len(want), got.IntersectCount(want))
		}
	}
	for step := 10; step <= 150; step += 10 {
		e.Run(10)
		for i, r := range resources {
			same(step, fmt.Sprintf("resource %d", i), r.Output(), keyedOutput(r.Broker))
		}
	}
	for i, r := range resources {
		restored, err := RestoreResource(i, r.cfg, scheme, r.EncodeState())
		if err != nil {
			t.Fatalf("restore resource %d: %v", i, err)
		}
		same(150, fmt.Sprintf("restored resource %d", i), restored.Output(), keyedOutput(r.Broker))
	}
	// The receive handler's order, which a mid-run grid seldom reaches:
	// the confidence rule first, then its companion.
	b := resources[0].Broker
	i, _ := b.table.Add(arm.NewRule(arm.Itemset{98}, arm.Itemset{99}, arm.ThresholdConf))
	b.grow()
	late := b.cands[i]
	if late.Companion != -1 {
		t.Fatalf("companion linked before it exists: %d", late.Companion)
	}
	j, _ := b.table.Add(arm.NewRule(nil, arm.Itemset{98, 99}, arm.ThresholdFreq))
	b.grow()
	if late.Companion != int32(j) || len(b.cands) != b.table.Len() {
		t.Fatalf("late companion linked to %d, want %d", late.Companion, j)
	}
}

// TestSnapshotRejectsCorruption flips each byte of a valid snapshot and
// checks RestoreResource fails cleanly (error, not panic) or — when the
// flip lands in a value field the codec cannot distinguish — still
// yields a resource. It must never panic.
func TestSnapshotRejectsCorruption(t *testing.T) {
	scheme := homo.NewPlain(96)
	_, resources, _ := buildSecureGrid(t, scheme, 3, 2, 9, nil, nil)
	r := resources[0]
	state := r.EncodeState()

	// Truncations at every prefix length must error, never panic.
	for n := 0; n < len(state); n += 7 {
		if _, err := RestoreResource(0, r.cfg, scheme, state[:n]); err == nil && n < len(state)-1 {
			// Some prefixes may accidentally parse; only the call not
			// panicking is required. Full-length minus nothing is valid.
			continue
		}
	}
	// Version byte must be enforced.
	bad := append([]byte(nil), state...)
	bad[0] = 0xFF
	if _, err := RestoreResource(0, r.cfg, scheme, bad); err == nil {
		t.Fatal("unknown snapshot version accepted")
	}
}

// TestRestoredGridKeepsConverging restores EVERY resource from bytes,
// builds a brand-new engine over them (in-flight messages lost — the
// crash model), and checks mining still converges: the restored state
// plus the anti-entropy refresh must carry the grid to the result.
func TestRestoredGridKeepsConverging(t *testing.T) {
	scheme := homo.NewPlain(96)
	e, resources, truth := buildSecureGrid(t, scheme, 5, 2, 11,
		func(cfg *Config) { cfg.LossyLinks = true }, nil)
	e.Run(100)

	restored := make([]*Resource, len(resources))
	for i, r := range resources {
		var err error
		restored[i], err = RestoreResource(i, r.cfg, scheme, r.EncodeState())
		if err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		restored[i].RestageReplies()
	}
	e2, _, _ := buildSecureGrid(t, scheme, 5, 2, 11,
		func(cfg *Config) { cfg.LossyLinks = true }, nil)
	for i, r := range restored {
		e2.ReplaceNode(i, r)
	}

	rec, prec := 0.0, 0.0
	for step := 0; step < 1500; step += 50 {
		e2.Run(50)
		if rec, prec = avgQuality(restored, truth); rec >= 0.9 && prec >= 0.9 {
			break
		}
	}
	if rec < 0.9 || prec < 0.9 {
		t.Fatalf("restored grid stuck: recall=%.3f precision=%.3f", rec, prec)
	}
	for i, r := range restored {
		if len(r.Reports()) != 0 {
			t.Fatalf("restored resource %d raised reports: %v", i, r.Reports())
		}
	}
}
