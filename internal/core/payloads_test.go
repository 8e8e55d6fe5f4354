package core

import (
	"testing"

	"secmr/internal/homo"
	"secmr/internal/shamir"
)

// TestPayloadsNeedNativeDealing: a broker takes the free list it is
// handed only behind a scheme that deals into a destination natively.
// The same seeded grid recycles payloads over Shamir, and leaves the
// list untouched with the capability hidden behind a bare
// struct{ homo.Scheme } — the path Paillier, Plain and any foreign
// wrapper take — while mining the same rules.
func TestPayloadsNeedNativeDealing(t *testing.T) {
	sh := shamir.MustNew(shamir.Params{K: 2, N: 5, W: 1})
	run := func(scheme homo.Scheme) (PayloadStats, []string) {
		list := NewPayloads(256)
		e, resources, sinks, _ := buildParityGrid(t, scheme, 2,
			func(cfg *Config) { cfg.Payloads = list }, nil)
		e.Run(150)
		rules, _, _ := parityDigest(t, resources, sinks)
		return list.Stats(), rules
	}
	native, nativeRules := run(sh)
	if native.Hits == 0 || native.Puts == 0 {
		t.Fatalf("native Shamir grid never recycled a payload: %+v", native)
	}
	hidden, hiddenRules := run(struct{ homo.Scheme }{sh})
	if hidden != (PayloadStats{Cap: hidden.Cap}) {
		t.Fatalf("capability hidden, free list used: %+v", hidden)
	}
	if len(nativeRules) == 0 || len(nativeRules) != len(hiddenRules) {
		t.Fatalf("mined %d rules recycling, %d without", len(nativeRules), len(hiddenRules))
	}
	for i := range nativeRules {
		if nativeRules[i] != hiddenRules[i] {
			t.Fatalf("rule %d: %s recycling, %s without", i, nativeRules[i], hiddenRules[i])
		}
	}
}
