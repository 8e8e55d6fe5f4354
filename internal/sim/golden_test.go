package sim

import (
	"testing"

	"secmr/internal/faults"
)

// Golden reference outputs of the single-heap engine, recorded at
// commit 8275c4e before the sharded scheduler was folded into Engine.
// That engine was the reference the sharded parity tests compared
// against; these constants keep the reference as data. The engine must
// reproduce them exactly at every width: its barrier routes sends in
// the single-heap engine's order.

// goldenHashFaults is TestShardedParityWithEngine's reference run:
// chainGraph/chainNodes(60), seed 42, Faults{0.2, 0.15}, 80 steps.
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

// goldenInject is the same 60-node chain, seed 42, 80 steps, under the
// full injector (goldenInjectConfig). The injector draws from one
// sequential RNG, so this run pins the order of Decide calls, the
// per-link FIFO clamp and the delivery keys.
var (
	goldenInjectDigests = []uint64{
		0x4c007043622e6209, 0x463d998204826fdc, 0x26506a4994887228, 0x54b7cb5031a9e35e,
		0xd8ceb061e23f21fa, 0xbd4643b585703b4c, 0xa9c38ee4958f0e6c, 0x940c7b65c23dedec,
		0x8a3d3e69415c146b, 0x9ff049a5305ddb9b, 0x50ff3a19fa101c31, 0x9320b633ee7987a6,
		0x61addd8da76f9e62, 0xb294d14384650989, 0xf5dddca06b99ed1e, 0x0cc4d30d6f10f267,
		0x15e373052328073c, 0x1b4abb25d4e16dc0, 0x30f863f889c850cb, 0x9285715b4ca3823b,
		0x1dde8f582cc3b75f, 0x80ca16ee3cfe0edc, 0x0df58001badc85a9, 0xc7d48819aefee288,
		0x5f74d92abadda3b1, 0xe41792f01e96f91d, 0x383d438e35e6e94a, 0xaf78d35cb4ca93ad,
		0xd26a9afcd1ecee6c, 0xbb7ac0856bafcef0, 0xb951590ac81966a2, 0x875df6cd89968c2f,
		0xafac3e17d1376b3f, 0x66aa125675c6b1bf, 0xce5e48306f3df9fd, 0x9e70b59cb9a533d5,
		0xa444f83208ac0abf, 0x6996e026f3d14b52, 0x41228b0d661e8aa9, 0xb73ffd495ec4c98a,
		0x3019904fc684f072, 0x381340411adc8014, 0x9d97c421851f416b, 0x4442898d4c53d9d8,
		0x96a51575c14e6d30, 0x8107fb0abc45d63a, 0xb8007c3c460b13cd, 0xe3a65702c0d3cffa,
		0x2eae6bb7e58ad4fb, 0xbad15706a3419a56, 0x45da75291f5b2ff1, 0x2969786bc86318e8,
		0x9a0747f9fc1fcec8, 0xa474c117844fd6e8, 0x26e2fa23844cc599, 0x31cbffe3e0c026a4,
		0x14ad3f6ae874b734, 0xb18f3a17fc73a8b5, 0x27fdd8bda6089495, 0xcc05030d7fcb476f,
	}
	goldenInjectStats = Stats{Sent: 1358, Delivered: 1211, Dropped: 317, Duplicated: 170}
	// CrashDrops is left out of the comparison: at the recording commit
	// the injector counted only crash drops decided at send time (14),
	// not the in-flight messages dropped at delivery.
	goldenInjectFaultStats = faults.Stats{Dropped: 263, Duplicated: 170, Delayed: 779, CutDrops: 35}
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
	fs.CrashDrops = 0
	if fs != goldenInjectFaultStats {
		t.Fatalf("fault stats %+v, golden %+v", fs, goldenInjectFaultStats)
	}
}
