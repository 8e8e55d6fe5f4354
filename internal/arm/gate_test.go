package arm

import "testing"

func TestGateOpen(t *testing.T) {
	g := &Gate{}
	// First answer: needs ≥k in both dimensions.
	if g.Open(5, 4, 10) {
		t.Fatal("opened below count k")
	}
	if g.Open(5, 10, 4) {
		t.Fatal("opened below num k")
	}
	if !g.Open(5, 10, 10) {
		t.Fatal("refused at k")
	}
	// Unchanged num, grown count: allowed (dynamic databases).
	if !g.Open(5, 15, 10) {
		t.Fatal("refused saturated-num refresh")
	}
	// Partial num growth (< k): the differencing window — blocked.
	if g.Open(5, 20, 12) {
		t.Fatal("opened on sub-k resource growth")
	}
	// Full k growth on both: allowed again.
	if !g.Open(5, 20, 15) {
		t.Fatal("refused k growth")
	}
}
