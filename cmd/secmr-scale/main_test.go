package main

import (
	"runtime"
	"testing"
)

// TestRunPointConverges: the harness itself must prove convergence and
// agreement, so a small point doubles as a correctness test of the
// whole stack (vote database → hash partition → BA overlay → parallel
// engine → Majority-Rule miners).
func TestRunPointConverges(t *testing.T) {
	r, err := runPoint(1600, 1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["steps"] <= 0 {
		t.Fatalf("no steps recorded: %+v", r)
	}
}

// TestMessageComplexityOnClearMajority: Scalable-Majority is local. On
// the point's vote the grid sends O(edges) messages, at most 6 per tree
// edge, not O(n²).
func TestMessageComplexityOnClearMajority(t *testing.T) {
	const n = 1600
	r, err := runPoint(n, 1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if msgs := r.Metrics["messages"]; msgs <= 0 || msgs > 6*(n-1) {
		t.Fatalf("sent %v messages on a %d-edge tree, want 1..%d", msgs, n-1, 6*(n-1))
	}
}

// TestRunPointStepsDoNotGrowWithSize: Figure 3's qualitative claim —
// steps to quiescence do not grow with the number of resources.
func TestRunPointStepsDoNotGrowWithSize(t *testing.T) {
	small, err := runPoint(1600, 1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	large, err := runPoint(16000, 1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if s, l := small.Metrics["steps"], large.Metrics["steps"]; l > 8*(s+1) {
		t.Fatalf("steps grew superlinearly with size: %v at 1600, %v at 16000", s, l)
	}
}

// TestRunPointWidthInvariance: the same seed must converge to the same
// step and message counts whatever the engine width — the scale
// harness leans on the engine's determinism guarantee — and each
// point reports its width.
func TestRunPointWidthInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, err := runPoint(1600, 7, 100000)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	b, err := runPoint(1600, 7, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics["workers"] != 1 || b.Metrics["workers"] != 4 {
		t.Fatalf("reported widths %v and %v, want 1 and 4", a.Metrics["workers"], b.Metrics["workers"])
	}
	if a.Metrics["steps"] != b.Metrics["steps"] || a.Metrics["messages"] != b.Metrics["messages"] {
		t.Fatalf("workers=1 (%v steps, %v msgs) vs workers=4 (%v steps, %v msgs)",
			a.Metrics["steps"], a.Metrics["messages"], b.Metrics["steps"], b.Metrics["messages"])
	}
}

// TestScaleSmoke100k: a 100k-resource grid must converge in one
// process (about 6 s and 0.9 GB on two cores).
func TestScaleSmoke100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k grid in -short mode")
	}
	r, err := runPoint(100000, 1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("100k: steps=%.0f wall=%.0fms rss=%.0fMB msgs=%.0f",
		r.Metrics["steps"], r.NsPerOp/1e6, r.Metrics["peak-rss-mb"], r.Metrics["messages"])
}
