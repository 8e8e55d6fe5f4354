package core

import (
	"testing"

	"secmr/internal/homo"
)

// TestFrozenGateCensus is a census of the k ≥ 2 freeze (DESIGN.md §5):
// an output gate whose resource count grew by 0 < d < k since its last
// fresh answer can never reopen on a static database, so its cached
// answer may go stale. The test counts those frozen streams and checks
// that they account for every stale answer: a cached output that
// disagrees with a fresh evaluation of its current aggregate must sit
// in a frozen stream.
func TestFrozenGateCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("3,000 steps per k")
	}
	for _, k := range []int64{2, 3} {
		e, resources, _ := buildSecureGrid(t, homo.NewPlain(96), 12, k, 1, nil, nil)
		e.Run(3000)
		streams, stale := 0, 0
		frozen := map[int64]int{} // by d
		for _, r := range resources {
			for _, c := range r.Broker.cands {
				g, ok := r.Controller.outGates[c.Sym]
				if !ok {
					continue
				}
				sum, count, num, _ := r.Broker.DebugAggregate(c.Key)
				streams++
				d := num - g.Num
				if d > 0 && d < k {
					frozen[d]++
				}
				if fresh := c.LambdaD*sum-c.LambdaN*count >= 0; fresh != g.cached {
					stale++
					if d <= 0 || d >= k {
						t.Errorf("k=%d resource %d rule %s: stale answer in an open stream (d=%d)", k, r.ID, c.Key, d)
					}
				}
			}
		}
		if streams == 0 {
			t.Fatalf("k=%d: no output gate was ever queried", k)
		}
		t.Logf("k=%d: %d output streams, frozen by d %v, %d stale answers", k, streams, frozen, stale)
	}
}
