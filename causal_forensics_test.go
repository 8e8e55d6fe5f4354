package secmr

// Acceptance test for the causal-tracing pipeline: a fixed-seed
// 20-resource quarantine run with one scheduled adversary and injected
// message loss must produce (a) a byte-stable merged causal DAG across
// two identical runs, (b) an eviction forensic report naming the true
// cheater with an evidence chain anchored at the adversary-activation
// event, (c) a loss audit in which every lost transmission is
// attributed to an injected fault — zero unexplained — and (d) a
// flight-recorder dump for the eviction, loadable offline. The
// eviction and the loss audit must hold at other fault seeds too.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"secmr/internal/forensics"
	"secmr/internal/obs"
)

// causalRun executes one adversarial run at grid seed 9 and the given
// fault seed, with the trace streamed to JSONL and the flight recorder
// armed, returning the merged DAG and the flight directory.
func causalRun(t *testing.T, faultSeed int64) (*forensics.DAG, string) {
	t.Helper()
	tel := NewTelemetry()
	var trace bytes.Buffer
	tel.Tr.SetSink(&trace)
	flightDir := t.TempDir()
	grid, err := NewGrid(smallDB(2000, 5), GridConfig{
		Algorithm: AlgorithmSecure, Resources: 20, K: 2,
		MinFreq: 0.15, MinConf: 0.7, ScanBudget: 50,
		MaxRuleItems: 2, Seed: 9,
		Quarantine:  QuarantineConfig{Enabled: true},
		Adversaries: []AdversarySpec{{Node: 4, Kind: "forge-share", From: 100}},
		Faults:      &FaultConfig{Seed: faultSeed, DropProb: 0.05},
		Telemetry:   tel,
		FlightDir:   flightDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Step in small chunks: the facade processes evictions (and cuts
	// the flight dump) between Step calls, so fine-grained stepping
	// keeps the incident inside the dump's bounded trace ring.
	for i := 0; i < 600; i += 10 {
		grid.Step(10)
	}
	if ev := grid.Evictions(); len(ev) != 1 || ev[0] != 4 {
		t.Fatalf("evictions = %v, want [4]", ev)
	}
	if err := tel.Tr.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(&trace)
	if err != nil {
		t.Fatal(err)
	}
	return forensics.Merge(events), flightDir
}

func TestCausalForensicsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-message adversarial run")
	}
	dag, flightDir := causalRun(t, 9)

	// (a) Byte-stable DAG: an identical second run prints the identical
	// merged causal DAG.
	var text1, text2 bytes.Buffer
	if err := dag.WriteText(&text1); err != nil {
		t.Fatal(err)
	}
	dag2, _ := causalRun(t, 9)
	if err := dag2.WriteText(&text2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text1.Bytes(), text2.Bytes()) {
		t.Fatal("fixed-seed runs produced different causal DAGs")
	}
	if len(dag.ByKey) == 0 {
		t.Fatal("no causal transmissions in trace")
	}

	checkEvictionAndLosses(t, dag)

	// (d) The flight recorder captured the eviction, and the dump loads.
	dumps := obs.ListFlightDumps(flightDir)
	if len(dumps) == 0 {
		t.Fatal("no flight dumps")
	}
	var evictDump *obs.FlightDump
	for _, d := range dumps {
		fd, err := obs.ReadFlightDump(d)
		if err != nil {
			t.Fatal(err)
		}
		if fd.State["reason"] == "evict" {
			evictDump = fd
		}
	}
	if evictDump == nil {
		t.Fatalf("no evict dump among %v", dumps)
	}
	if evictDump.State["evicted_member"] != float64(4) {
		t.Fatalf("evict dump names %v", evictDump.State["evicted_member"])
	}
	if len(evictDump.Events) == 0 || !strings.Contains(evictDump.Metrics, "secmr_") {
		t.Fatal("evict dump missing trace ring or metrics snapshot")
	}
	// The dump's ring is itself forensics input: it must contain the
	// eviction events.
	if got := forensics.Merge(evictDump.Events).Evictions().Evicted(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("flight-dump forensics evicted = %v", got)
	}

	// The eviction on evidence and the loss audit do not hinge on the
	// fault seed. The runs go one at a time: each holds its whole trace.
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("fault-seed=", seed), func(t *testing.T) {
			dag, _ := causalRun(t, seed)
			checkEvictionAndLosses(t, dag)
		})
	}
}

// checkEvictionAndLosses is (b) and (c): the DAG names the true
// cheater, evicted by every honest resource on evidence and anchored at
// its scheduled activation, and every lost transmission is attributed
// to the injected drop fault — an unexplained loss would mean the trace
// has a hole.
func checkEvictionAndLosses(t *testing.T, dag *forensics.DAG) {
	t.Helper()
	ef := dag.Evictions()
	if got := ef.Evicted(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("forensics evicted = %v, want [4]", got)
	}
	var story *forensics.EvictionStory
	for _, s := range ef.Stories {
		if s.Accused == 4 {
			story = s
		} else if len(s.Evictors) > 0 {
			t.Fatalf("honest member %d shows as evicted", s.Accused)
		}
	}
	if story == nil {
		t.Fatal("no story for the cheater")
	}
	if story.ActivationStep != 100 || story.ActivationDetail != "scheduled" {
		t.Fatalf("activation anchor = step %d (%q), want 100 (scheduled)",
			story.ActivationStep, story.ActivationDetail)
	}
	if !story.HasEvidence() {
		t.Fatal("eviction not backed by evidence")
	}
	if len(story.Evictors) != 19 {
		t.Fatalf("%d evictors, want all 19 honest resources", len(story.Evictors))
	}
	var report bytes.Buffer
	if err := ef.WriteText(&report); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"adversary activated     step=100 (scheduled)", "evicted on evidence"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("eviction report missing %q:\n%s", want, report.String())
		}
	}

	// (c) Loss audit: every lost transmission is attributed to the
	// injected drop fault; an unexplained loss would mean the trace has
	// a hole.
	losses := dag.Losses(0)
	if losses.Total == 0 || losses.Delivered == 0 || len(losses.Lost) == 0 {
		t.Fatalf("implausible loss audit: %+v", losses)
	}
	if un := losses.Unexplained(); len(un) > 0 {
		t.Fatalf("%d unexplained losses, first: %+v", len(un), un[0])
	}
	for _, l := range losses.Lost {
		for _, c := range l.Causes {
			if c != "injected" {
				t.Fatalf("loss %v attributed to %q; only injected drops ran", l.Key, c)
			}
		}
	}
}
