package main

import (
	"runtime"
	"testing"
)

// TestRunPointConverges: the harness itself must prove convergence and
// agreement, so a small point doubles as a correctness test of the
// whole stack (BA topology → spanning tree → parallel engine →
// flyweight voters).
func TestRunPointConverges(t *testing.T) {
	r, err := runPoint(1600, 1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["steps"] <= 0 {
		t.Fatalf("no steps recorded: %+v", r)
	}
	if r.Metrics["messages"] <= 0 {
		t.Fatalf("no messages recorded: %+v", r)
	}
}

// TestRunPointShardInvariance: the same seed must converge to the same
// step count whatever the width — the scale harness leans on the
// engine's determinism guarantee — and each point reports its width.
func TestRunPointShardInvariance(t *testing.T) {
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

// TestScaleSmoke100k: the ISSUE 8 acceptance bar — a 100k-resource
// grid must converge in one process. Runs in a few seconds.
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
