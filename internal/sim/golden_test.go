package sim

import (
	"testing"

	"secmr/internal/faults"
)

// Golden reference outputs of the engine, held as data. The engine must
// reproduce them exactly at every width.

// goldenHashFaults is TestShardedParityWithEngine's reference run:
// chainGraph/chainNodes(60), 80 steps, the injector at seed 42 with
// DropProb 0.2 and DupProb 0.15. It was recorded at commit 8275c4e on
// the single-heap engine, whose own hash-keyed drop/duplicate knobs gave
// the verdicts the injector's rolls reproduce bit for bit.
var (
	goldenHashFaultsDigests = []uint64{
		0x6175bdee29289c17, 0xe6cad25ef31687ac, 0xbc42a415d2449758, 0xaa1b26303fb50b07,
		0x0b3042f59018a029, 0x447993ba2c903df7, 0xc6ca5b060a05b9a3, 0xf5417d890eb7ac4e,
		0x0c32aa82d44b2639, 0x6b0cc79ad05db098, 0x031f9695f56747c7, 0x1f9b182c76dcb06f,
		0xb489b8f2862e87b0, 0x26ebb268d9c39218, 0xa1128d5a06683b9a, 0x4c98b1c8400a685d,
		0xb4ec12b3b096b4b8, 0x1bfdf81c07c039bb, 0x24023ab51e85895b, 0xb964643e4fecf2a7,
		0x999862e1f0c1eb52, 0x4fa93ac10dfac79a, 0x4772ba5055937764, 0x980e11d99956fc0a,
		0x6c00b5b315cbb0ba, 0x063c28e22c3f211f, 0xcaf0e83610613629, 0xa313fe57133c8537,
		0x7ef21a72d0a5f42a, 0xcae5559244b3cb18, 0x54aac95de81032f2, 0x82382fe28479ce07,
		0xc9f622ce7b378e31, 0xf02a65164f7abb0b, 0x8da5bfe6ed7df475, 0xb4b2fc0a35a2eb5b,
		0x6b01282c7fba0d6e, 0x53cbad1fdb739fe7, 0xa98f36cf924c63ba, 0xde78e8933c8f1c71,
		0xf9c2f13255ac6202, 0xd0d4e7b65c810f93, 0xc25abcfdec2ac304, 0x0c097dc72fdba4e6,
		0x071a16035b90ad1a, 0x89460da081c50bca, 0x62bc593e1dea188c, 0x2396a1f23b46770c,
		0x6e35e031067ee931, 0xc732cbc6eb884c6b, 0x183431fb9bf4acfe, 0xa64e1afc16117b76,
		0x86dc30f94a550fb7, 0xaab12a67b3453cbb, 0x456399d3d02279fd, 0xae5b7cae36c575b4,
		0x0dc4e0b77efbf92e, 0xd7b0887802e910da, 0xc9fa261932079b05, 0xf9a40920a82e272c,
	}
	goldenHashFaultsStats = Stats{Sent: 1368, Delivered: 1274, Dropped: 262, Duplicated: 168}
)

// goldenInject is the same 60-node chain, 80 steps, under the full
// injector (goldenInjectConfig): hashed drop, duplicate and jitter
// rolls, a crash, a partition. It pins the jitter draws, the per-link
// FIFO clamp and the delivery keys.
var (
	goldenInjectDigests = []uint64{
		0x7d8c2dc367ab49af, 0xb1b9680cf6e8a788, 0x14eb83c3313305db, 0xd1d5ef832d3fff40,
		0x71bf3e08c65c02c6, 0xd286fc1ac522202b, 0x8e9be170da4d4454, 0x10eefc1638bcd665,
		0x732075c499d9be21, 0x6d5e4bc5f367ce12, 0x41b767fc2ec97333, 0xd3155e1dd547a98a,
		0x5c1b3dd7c061ce51, 0x11385d23e3c8852b, 0xc1355f923527a69f, 0xe4080e87bd94a788,
		0x3744d6eea132d395, 0x217aed960a4e9d27, 0xf3d43833dc258d20, 0x6056884778853af4,
		0x749f21f00504e995, 0x0e7e2cb6f2c18242, 0xaed603e6a7322728, 0x512ae13e2e339889,
		0x80da963f6bc25735, 0x476de4110310dd10, 0x09634b6ee7421928, 0x62bec0119cd11493,
		0xb0d78884ffe179b0, 0xec645afdea71e422, 0x44b398202ea4a7e1, 0x576ca70f8b6e3c75,
		0x33b697e46538c7d8, 0x5ebe3b3971625fb0, 0xaf7ea3b31ad76552, 0xeb6acf11c21a6e65,
		0xc11fa7ed66436e6b, 0xe301af4daab8d49e, 0x4e47231090c99f56, 0xdc9df4f2682a9be7,
		0x7fbf67baf4fe1660, 0xce297f636c5c3537, 0x456a4c1a5490cdb5, 0x70a6f6b305aeed89,
		0x53534fde3640fb06, 0x95a11d7244c6378e, 0x9e94a5315515d644, 0x3b83f60d7d8944b6,
		0x2c113e32678089a0, 0x713ac5726eb0b7d8, 0x4725f8d0769346ec, 0x3f881c8927d6506a,
		0xb04f4b33f9ab510e, 0xb6718dd1d6db5c25, 0x564c0fad0948f508, 0xbd0a502957298da6,
		0x0795cfa874ceffee, 0x37382b72f8ad19c2, 0x8c842bda8cf8e33a, 0x62d779f6a6426b65,
	}
	goldenInjectStats      = Stats{Sent: 1366, Delivered: 1215, Dropped: 305, Duplicated: 154}
	goldenInjectFaultStats = faults.Stats{Dropped: 254, Duplicated: 154, Delayed: 796, CrashDrops: 17, CutDrops: 34}
)

func goldenInjectConfig() faults.Config {
	return faults.Config{Seed: 42, DropProb: 0.2, DupProb: 0.15, DelayJitter: 2,
		Schedule: []faults.Event{
			{At: 5, Crash: []int{3}},
			{At: 10, Partition: [][]int{{0, 1, 2, 4, 5, 6, 7, 8, 9}, {10, 11, 12, 13, 14, 15, 16, 17, 18, 19}}},
			{At: 14, Restart: []int{3}},
			{At: 20, Heal: true},
		}}
}

func checkDigests(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d digests, golden has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: node %d digest %#x, golden %#x", label, i, got[i], want[i])
		}
	}
}

// TestGoldenInjectReference holds the one-shard engine under the full
// fault injector to the recorded reference run.
func TestGoldenInjectReference(t *testing.T) {
	e := NewEngine(chainGraph(t), chainNodes(60), 42)
	inj := faults.New(goldenInjectConfig())
	e.Inject = inj
	e.Run(80)
	checkDigests(t, "inject", digests(e.nodes), goldenInjectDigests)
	if st := e.Stats(); st != goldenInjectStats {
		t.Fatalf("engine stats %+v, golden %+v", st, goldenInjectStats)
	}
	fs := inj.Stats()
	// Every engine-level drop has a cause the injector counted, the
	// in-flight messages lost to a crashed destination included.
	if st := e.Stats(); st.Dropped != fs.Dropped+fs.CrashDrops+fs.CutDrops {
		t.Fatalf("engine dropped %d, injector counted %d injected + %d crash + %d cut",
			st.Dropped, fs.Dropped, fs.CrashDrops, fs.CutDrops)
	}
	if fs != goldenInjectFaultStats {
		t.Fatalf("fault stats %+v, golden %+v", fs, goldenInjectFaultStats)
	}
}
