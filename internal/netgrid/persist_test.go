package netgrid

import (
	mrand "math/rand"
	"os"
	"os/exec"
	"testing"
	"time"

	"secmr/internal/arm"
	"secmr/internal/core"
	"secmr/internal/hashing"
	"secmr/internal/homo"
	"secmr/internal/metrics"
	"secmr/internal/persist"
	"secmr/internal/quest"
	"secmr/internal/topology"
)

// persistGridSpec derives the shared grid fixture deterministically so
// the parent test and the exec'd child process agree on the dataset,
// partition and topology without any state crossing the process
// boundary except the durable directory itself.
func persistGridSpec() (core.Config, *homo.Plain, []*arm.Database, *topology.Graph, arm.RuleSet) {
	const n = persistGridN
	seed := int64(11)
	scheme := homo.NewPlain(96)
	rng := mrand.New(mrand.NewSource(seed))
	global := quest.Generate(quest.Params{NumTransactions: n * 120, NumItems: 15,
		NumPatterns: 8, AvgTransLen: 4, AvgPatternLen: 2, Seed: seed})
	th := arm.Thresholds{MinFreq: 0.2, MinConf: 0.7}
	universe := arm.Itemset{}
	for i := 0; i < 15; i++ {
		universe = append(universe, arm.Item(i))
	}
	truth := arm.GroundTruth(global, th, universe, 2)
	parts := hashing.Partition(global, n, rng)
	tree := topology.Line(n, topology.DelayRange{Min: 1, Max: 1}, rng)
	cfg := core.Config{Th: th, Universe: universe, ScanBudget: 40,
		CandidateEvery: 5, K: 2, MaxRuleItems: 2, IntraDelay: true,
		LossyLinks: true}
	return cfg, scheme, parts, tree, truth
}

const (
	persistGridN    = 3 // line 0-1-2; node 2 is the journaled victim
	persistVictimID = persistGridN - 1
	persistChildEnv = "SECMR_PERSIST_CHILD"
	persistDirEnv   = "SECMR_PERSIST_DIR"
	persistPeerEnv  = "SECMR_PERSIST_PEER_ADDR"
)

func persistJournalOptions(scheme homo.Scheme) persist.Options {
	return persist.Options{SnapshotEvery: 30, FsyncEvery: 8, Keys: scheme}
}

// TestPersistCrashChild is not a test: it is the victim process for
// TestPersistKill9Recovery, selected via -test.run by the parent. It
// hosts the journaled resource until the parent kills it with SIGKILL
// — no shutdown path runs, so whatever survives is what fsync made
// durable.
func TestPersistCrashChild(t *testing.T) {
	if os.Getenv(persistChildEnv) != "1" {
		t.Skip("helper process for TestPersistKill9Recovery")
	}
	dir := os.Getenv(persistDirEnv)
	peerAddr := os.Getenv(persistPeerEnv)
	cfg, scheme, parts, tree, _ := persistGridSpec()

	res := core.NewResource(persistVictimID, cfg, scheme, parts[persistVictimID], nil, nil)
	j, err := persist.Open(dir, persistVictimID, persistJournalOptions(scheme))
	if err != nil {
		t.Fatal(err)
	}
	res.SetJournal(j)
	h, err := NewHost(persistVictimID, res, scheme, authOpt(persistVictimID, Options{Logf: t.Logf}))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Node().Connect(map[int]string{persistVictimID - 1: peerAddr}); err != nil {
		t.Fatal(err)
	}
	if !h.Node().WaitFor(tree.Neighbors(persistVictimID), 10*time.Second) {
		t.Fatal("child: neighbour never connected")
	}
	h.Run(tree.Neighbors(persistVictimID), 2*time.Millisecond)
	select {} // run until SIGKILL
}

// TestPersistKill9Recovery is the deployment-shape durability test:
// the victim node runs in a separate OS process with a snapshot+WAL
// journal, the parent SIGKILLs it mid-run (no flush, no goodbye —
// crash with amnesia), then rebuilds it in-process from the durable
// directory alone (RecoverHost), re-dials the grid, and requires exact
// protocol convergence with no malicious reports. This is the CI
// "persistence chaos smoke".
func TestPersistKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess + network end-to-end")
	}
	cfg, scheme, parts, tree, truth := persistGridSpec()
	dir := t.TempDir()

	// Survivor hosts 0..n-2 live in this process, no persistence.
	hosts := make([]*Host, persistVictimID)
	for i := range hosts {
		res := core.NewResource(i, cfg, scheme, parts[i], nil, nil)
		h, err := NewHost(i, res, scheme, authOpt(i, Options{Logf: t.Logf}))
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
		defer h.Close()
	}
	for i := range hosts {
		peers := map[int]string{}
		for _, w := range tree.Neighbors(i) {
			if w < i {
				peers[w] = hosts[w].Node().Addr()
			}
		}
		if err := hosts[i].Node().Connect(peers); err != nil {
			t.Fatal(err)
		}
	}

	// Spawn the victim: this test binary re-exec'd against the child
	// helper, journaling into dir and dialing the last survivor.
	child := exec.Command(os.Args[0],
		"-test.run=^TestPersistCrashChild$", "-test.v", "-test.timeout=120s")
	child.Env = append(os.Environ(),
		persistChildEnv+"=1",
		persistDirEnv+"="+dir,
		persistPeerEnv+"="+hosts[persistVictimID-1].Node().Addr())
	child.Stdout = os.Stderr
	child.Stderr = os.Stderr
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	childDone := make(chan struct{})
	go func() { child.Wait(); close(childDone) }()
	defer func() {
		child.Process.Kill()
		<-childDone
	}()

	for i := range hosts {
		if !hosts[i].Node().WaitFor(tree.Neighbors(i), 20*time.Second) {
			t.Fatalf("host %d: neighbours never connected (child up? %v)", i, child.Process.Pid)
		}
	}
	for i := range hosts {
		hosts[i].Run(tree.Neighbors(i), 2*time.Millisecond)
	}

	// Let the victim do real work: wait until its journal has rolled
	// past the bootstrap snapshot (gen 1) to a mid-run generation and
	// accumulated a WAL tail, so the recovery below genuinely exercises
	// snapshot load + replay of in-flight protocol state.
	deadline := time.Now().Add(60 * time.Second)
	for {
		info, err := persist.Inspect(dir)
		if err == nil && info.Gen >= 2 && info.WALRecords >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never built durable state: info=%+v err=%v", mustInspect(dir), err)
		}
		select {
		case <-childDone:
			t.Fatalf("child exited prematurely: %v", child.ProcessState)
		case <-time.After(50 * time.Millisecond):
		}
	}

	// SIGKILL: the child gets no chance to flush or close anything.
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-childDone
	t.Logf("killed victim pid %d: %v", child.Process.Pid, child.ProcessState)

	// Rebuild the victim from disk alone — key material, snapshot and
	// WAL tail — and rejoin it through the ordinary dial path.
	rec, stats, err := RecoverHost(dir, cfg, persistJournalOptions(nil), authOpt(persistVictimID, Options{Logf: t.Logf}))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if stats.SnapshotGen < 2 {
		t.Fatalf("recovered from bootstrap snapshot only: %+v", stats)
	}
	t.Logf("recovered node %d: gen=%d replayed=%d walBytes=%d",
		persistVictimID, stats.SnapshotGen, stats.ReplayedEvents, stats.WALBytes)
	if err := rec.Node().Connect(map[int]string{
		persistVictimID - 1: hosts[persistVictimID-1].Node().Addr()}); err != nil {
		t.Fatal(err)
	}
	if !rec.Node().WaitFor(tree.Neighbors(persistVictimID), 20*time.Second) {
		t.Fatal("recovered host: neighbour never reconnected")
	}
	rec.RunRecovered(2 * time.Millisecond)

	all := append(append([]*Host{}, hosts...), rec)
	convergeDeadline := time.After(90 * time.Second)
	for {
		outs := make([]arm.RuleSet, len(all))
		for i, h := range all {
			outs[i] = h.OutputSnapshot()
		}
		recall, prec := metrics.Average(outs, truth)
		if recall >= 0.9 && prec >= 0.9 {
			break
		}
		select {
		case <-convergeDeadline:
			t.Fatalf("grid stuck after kill -9 recovery: recall=%.3f precision=%.3f (truth %d)",
				recall, prec, len(truth))
		case <-time.After(100 * time.Millisecond):
		}
	}
	for i, h := range all {
		if _, halted := h.Snapshot(); halted {
			t.Fatalf("host %d halted after recovery (false malice detection)", i)
		}
	}
}

func mustInspect(dir string) persist.Info {
	info, _ := persist.Inspect(dir)
	return info
}
