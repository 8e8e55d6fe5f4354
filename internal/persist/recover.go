package persist

import (
	"fmt"
	"os"
	"path/filepath"

	"secmr/internal/core"
	"secmr/internal/homo"
	"secmr/internal/obs"
)

// RecoverOptions parameterizes a durable-state recovery.
type RecoverOptions struct {
	// Cfg must match the configuration the resource ran with; it is
	// distributed out of band, not persisted.
	Cfg core.Config
	// Scheme is the grid cryptosystem. Nil loads it from the
	// directory's key.bin; pass a live (possibly instrumented) instance
	// to share it with the rest of an in-process grid — it must
	// implement homo.Adopter and hold the keys the persisted
	// ciphertexts were produced under.
	Scheme homo.Scheme
	// Obs, when non-nil, receives persist_replay_events and the
	// EvRecover trace event.
	Obs *obs.Sink
	// Logf, when non-nil, receives replay diagnostics (skipped
	// undecodable records).
	Logf func(format string, args ...any)
}

// RecoveryStats describes what a recovery did.
type RecoveryStats struct {
	SnapshotGen    uint64 // generation of the snapshot restored
	SnapshotBytes  int    // state-image size
	ReplayedEvents int    // WAL records applied on top
	WALBytes       int64  // valid WAL prefix length
	ClockLease     int64  // highest durable clock lease applied (0 = none)
}

// discardTransport swallows every send. Replay re-executes the
// resource's state transitions, but its outputs already happened
// before the crash — re-sending them would at best duplicate traffic
// (idempotent, but wasteful) and the neighbours' anti-entropy refresh
// re-synchronizes whatever the crash actually lost.
type discardTransport struct{}

func (discardTransport) Send(int, any) {}

// Recover rebuilds a resource from its durable state directory alone:
// load key material (unless a scheme is supplied), restore the latest
// snapshot, replay the paired WAL tail through the live protocol code
// against a discarding transport, raise the Lamport clock to the
// highest durable lease, and re-stage the accountant's replies. The
// returned resource has NO journal attached — the caller decides
// whether to Open a fresh one (and then SetJournal) before rejoining
// the grid.
func Recover(dir string, opt RecoverOptions) (*core.Resource, *RecoveryStats, error) {
	scheme := opt.Scheme
	if scheme == nil {
		blob, err := os.ReadFile(filepath.Join(dir, "key.bin"))
		if err != nil {
			return nil, nil, fmt.Errorf("persist: reading key material: %w", err)
		}
		if scheme, err = LoadScheme(blob); err != nil {
			return nil, nil, err
		}
	}
	state, hdr, err := readSnapshot(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: no usable snapshot in %s: %w", dir, err)
	}
	res, err := core.RestoreResource(hdr.nodeID, opt.Cfg, scheme, state)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: snapshot gen %d: %w", hdr.gen, err)
	}
	stats := &RecoveryStats{SnapshotGen: hdr.gen, SnapshotBytes: len(state)}

	// Replay the paired log. A missing file is an empty tail (the crash
	// landed between the snapshot rename and the first post-snapshot
	// record).
	walData, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("wal.%d.log", hdr.gen)))
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	records, valid := ScanFramed(walData)
	stats.WALBytes = int64(valid)
	adopter, _ := scheme.(homo.Adopter)
	tr := discardTransport{}
	for _, rec := range records {
		switch rec.Type {
		case recMessage:
			from, frame, err := decodeMessageRecord(rec.Body)
			if err != nil {
				logf(opt.Logf, "persist: replay: %v (skipped)", err)
				continue
			}
			msg, err := core.DecodeMessage(frame, adopter)
			if err != nil {
				logf(opt.Logf, "persist: replay: undecodable message from %d: %v (skipped)", from, err)
				continue
			}
			res.HandleMessage(tr, from, msg)
		case recTick:
			res.Tick(tr)
		case recJoin:
			v, err := decodeJoin(rec.Body)
			if err != nil {
				logf(opt.Logf, "persist: replay: %v (skipped)", err)
				continue
			}
			res.HandleNeighborJoin(tr, v)
		case recClockLease:
			lease, err := decodeLease(rec.Body)
			if err != nil {
				logf(opt.Logf, "persist: replay: %v (skipped)", err)
				continue
			}
			if lease > stats.ClockLease {
				stats.ClockLease = lease
			}
		default:
			// Unknown record type from a future version: skip, keep the
			// rest of the tail.
			logf(opt.Logf, "persist: replay: unknown record type %d (skipped)", rec.Type)
		}
		stats.ReplayedEvents++
	}
	// Replay may reconstruct FEWER clock increments than the pre-crash
	// run issued (recovery work is not itself a logged event), but every
	// stamp that left the resource was covered by a durable lease;
	// resuming at the highest lease keeps our stamps monotone at every
	// neighbour.
	res.EnsureClockAtLeast(stats.ClockLease)
	res.RestageReplies()

	if reg := opt.Obs.Registry(); reg != nil {
		reg.Counter("persist_replay_events",
			"WAL records replayed during recoveries.").Add(int64(stats.ReplayedEvents))
	}
	opt.Obs.Emit(obs.Event{Type: obs.EvRecover, Node: hdr.nodeID, Peer: -1,
		Value: int64(stats.ReplayedEvents), Detail: fmt.Sprintf("gen=%d", hdr.gen)})
	return res, stats, nil
}

func logf(f func(string, ...any), format string, args ...any) {
	if f != nil {
		f(format, args...)
	}
}

// Info summarizes a durable state directory without loading the
// protocol state (secmr-keys inspect).
type Info struct {
	NodeID        int
	SchemeKind    string
	Gen           uint64
	SnapshotBytes int
	WALRecords    int
	WALBytes      int64
	TornBytes     int64 // garbage past the last valid record
}

// Inspect reads a durable state directory's metadata.
func Inspect(dir string) (Info, error) {
	var info Info
	blob, err := os.ReadFile(filepath.Join(dir, "key.bin"))
	if err != nil {
		return info, fmt.Errorf("persist: %w", err)
	}
	if len(blob) == 0 {
		return info, fmt.Errorf("persist: %s: empty key material", dir)
	}
	info.SchemeKind = SchemeKindName(blob[0])
	state, hdr, err := readSnapshot(dir)
	if err != nil {
		if os.IsNotExist(err) {
			info.NodeID = -1
			return info, nil
		}
		return info, err
	}
	info.NodeID, info.Gen, info.SnapshotBytes = hdr.nodeID, hdr.gen, len(state)
	walData, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("wal.%d.log", hdr.gen)))
	if err != nil && !os.IsNotExist(err) {
		return info, err
	}
	records, valid := ScanFramed(walData)
	info.WALRecords, info.WALBytes = len(records), int64(valid)
	info.TornBytes = int64(len(walData) - valid)
	return info, nil
}
