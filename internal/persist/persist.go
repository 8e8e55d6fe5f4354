package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"secmr/internal/core"
	"secmr/internal/homo"
	"secmr/internal/obs"
)

// Options tunes one resource's journal.
type Options struct {
	// SnapshotEvery is the number of protocol ticks between snapshots
	// (default 256). Smaller values shorten replay at the cost of more
	// snapshot I/O.
	SnapshotEvery int
	// FsyncEvery is the number of WAL records between fsyncs (default
	// 64; 1 = synchronous). Clock-lease records are always flushed
	// synchronously regardless — stamp monotonicity must never depend
	// on the batch timer. Records inside an unsynced batch can be lost
	// to a crash; the protocol absorbs that exactly like a dropped
	// message.
	FsyncEvery int
	// Keys is the grid cryptosystem whose key material is written to
	// key.bin on first open (required unless the file already exists).
	// Pass the raw scheme, not a telemetry wrapper.
	Keys homo.Scheme
	// Obs, when non-nil, receives durability telemetry:
	// persist_snapshot_seconds, persist_wal_bytes and snapshot trace
	// events.
	Obs *obs.Sink
	// Logf, when non-nil, receives diagnostic messages (I/O errors that
	// degraded the journal to a no-op).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 256
	}
	if o.FsyncEvery == 0 {
		o.FsyncEvery = 64
	}
	return o
}

// snapshotMagic heads every snapshot file; the trailing digits version
// the format.
const snapshotMagic = "SMRSNP01"

// Journal implements core.Journal over one resource directory. It is
// intentionally not safe for concurrent use: every runtime drives a
// resource from a single goroutine (the simulator's loop, a netgrid
// host's mutex), and the journal lives inside that serialization.
//
// Errors are sticky and silent by design: the first I/O failure is
// recorded (Err), reported through Logf, and every subsequent hook
// becomes a no-op — a resource must never change protocol behaviour
// because its disk died. The operator notices through Err/metrics, and
// a later recovery simply replays a shorter (still consistent) tail.
type Journal struct {
	dir string
	id  int
	opt Options

	gen     uint64 // current snapshot/WAL generation
	wal     *os.File
	buf     []byte // scratch for record framing
	pending int    // records appended since the last fsync
	ticks   int    // ticks since the last snapshot
	err     error

	hSnap     *obs.Histogram
	cWalBytes *obs.Counter
}

// Open attaches (creating if needed) the durable state directory for
// one resource: writes key.bin on first use, loads the current
// snapshot generation, and opens that generation's WAL for appending —
// after truncating any torn tail a previous crash left (appending
// after torn bytes would strand every later record behind garbage the
// reader never passes).
func Open(dir string, id int, opt Options) (*Journal, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	keyPath := filepath.Join(dir, "key.bin")
	if _, err := os.Stat(keyPath); os.IsNotExist(err) {
		if opt.Keys == nil {
			return nil, fmt.Errorf("persist: %s has no key material and Options.Keys is nil", dir)
		}
		blob, err := ExportScheme(opt.Keys)
		if err != nil {
			return nil, err
		}
		if err := WriteFileAtomic(keyPath, blob, 0o600); err != nil {
			return nil, fmt.Errorf("persist: writing key material: %w", err)
		}
	}
	j := &Journal{dir: dir, id: id, opt: opt}
	if reg := opt.Obs.Registry(); reg != nil {
		j.hSnap = reg.Histogram("persist_snapshot_seconds",
			"Snapshot write latency.", obs.DefLatencyBuckets)
		j.cWalBytes = reg.Counter("persist_wal_bytes",
			"Bytes appended to write-ahead logs.")
	}
	if _, hdr, err := readSnapshot(dir); err == nil {
		j.gen = hdr.gen
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if err := j.openWAL(); err != nil {
		return nil, err
	}
	return j, nil
}

// openWAL opens the current generation's log for appending, truncating
// it to the last valid record boundary first.
func (j *Journal) openWAL() error {
	path := j.walPath(j.gen)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("persist: %w", err)
	}
	_, valid := ScanFramed(data)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return fmt.Errorf("persist: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	j.wal = f
	return nil
}

func (j *Journal) walPath(gen uint64) string {
	return filepath.Join(j.dir, fmt.Sprintf("wal.%d.log", gen))
}

// Err returns the first I/O error that degraded the journal to a
// no-op (nil while healthy).
func (j *Journal) Err() error { return j.err }

// Dir returns the journal's resource directory.
func (j *Journal) Dir() string { return j.dir }

// Close flushes and closes the WAL. The journal must be detached from
// its resource (SetJournal(nil)) before Close.
func (j *Journal) Close() error {
	if j.wal == nil {
		return j.err
	}
	if j.pending > 0 && j.err == nil {
		if err := j.wal.Sync(); err != nil {
			j.fail(err)
		}
	}
	err := j.wal.Close()
	j.wal = nil
	if j.err != nil {
		return j.err
	}
	return err
}

// fail records the first I/O error and degrades the journal.
func (j *Journal) fail(err error) {
	if j.err != nil {
		return
	}
	j.err = err
	if j.opt.Logf != nil {
		j.opt.Logf("persist: journal for node %d degraded to no-op: %v", j.id, err)
	}
}

// append frames and writes one record, batching fsyncs.
func (j *Journal) append(typ byte, payload []byte, sync bool) {
	if j.err != nil || j.wal == nil {
		return
	}
	j.buf = AppendFramed(j.buf[:0], typ, payload)
	if _, err := j.wal.Write(j.buf); err != nil {
		j.fail(err)
		return
	}
	j.cWalBytes.Add(int64(len(j.buf)))
	j.pending++
	if sync || j.pending >= j.opt.FsyncEvery {
		if err := j.wal.Sync(); err != nil {
			j.fail(err)
			return
		}
		j.pending = 0
	}
}

// LogMessage implements core.Journal.
func (j *Journal) LogMessage(from int, msg any) {
	if j.err != nil {
		return
	}
	frame, err := core.EncodeMessage(msg)
	if err != nil {
		j.fail(err)
		return
	}
	j.append(recMessage, append(binary.AppendVarint(nil, int64(from)), frame...), false)
}

// LogTick implements core.Journal.
func (j *Journal) LogTick() {
	j.ticks++
	j.append(recTick, nil, false)
}

// LogJoin implements core.Journal.
func (j *Journal) LogJoin(v int) {
	j.append(recJoin, binary.AppendVarint(nil, int64(v)), false)
}

// LogClockLease implements core.Journal: always synchronous (see
// Options.FsyncEvery).
func (j *Journal) LogClockLease(upTo int64) {
	j.append(recClockLease, binary.AppendVarint(nil, upTo), true)
}

// SnapshotDue implements core.Journal.
func (j *Journal) SnapshotDue() bool {
	return j.err == nil && j.ticks >= j.opt.SnapshotEvery
}

// Snapshot implements core.Journal: atomically replaces the snapshot
// with a new generation and truncates the log by switching to the next
// generation's (empty) WAL.
func (j *Journal) Snapshot(state []byte) {
	if j.err != nil {
		return
	}
	start := time.Now()
	next := j.gen + 1
	img := make([]byte, 0, len(snapshotMagic)+len(state)+32)
	img = append(img, snapshotMagic...)
	img = binary.AppendUvarint(img, next)
	img = binary.AppendUvarint(img, uint64(j.id))
	img = binary.AppendUvarint(img, uint64(len(state)))
	img = append(img, state...)
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(img[len(snapshotMagic):]))

	if err := WriteFileAtomic(filepath.Join(j.dir, "snapshot.bin"), img, 0o600); err != nil {
		j.fail(err)
		return
	}
	// The moment the rename is durable, wal.<gen>.log is dead weight:
	// recovery pairs the snapshot with wal.<next>.log (missing = empty).
	old := j.wal
	oldGen := j.gen
	j.gen, j.ticks, j.pending = next, 0, 0
	if err := j.openWAL(); err != nil {
		j.wal = old // keep appending to the superseded log; harmless
		j.gen = oldGen
		j.fail(err)
		return
	}
	if old != nil {
		old.Close()
	}
	os.Remove(j.walPath(oldGen))
	j.hSnap.Observe(time.Since(start).Seconds())
	j.opt.Obs.Emit(obs.Event{Type: obs.EvSnapshot, Node: j.id, Peer: -1,
		Value: int64(len(img)), Detail: fmt.Sprintf("gen=%d", next)})
}

var _ core.Journal = (*Journal)(nil)

// snapshotHeader is the decoded snapshot.bin preamble.
type snapshotHeader struct {
	gen    uint64
	nodeID int
}

// readSnapshot loads and validates dir's snapshot, returning the state
// image. A missing file returns an os.IsNotExist error.
func readSnapshot(dir string) ([]byte, snapshotHeader, error) {
	var hdr snapshotHeader
	data, err := os.ReadFile(filepath.Join(dir, "snapshot.bin"))
	if err != nil {
		return nil, hdr, err
	}
	if len(data) < len(snapshotMagic)+4 || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, hdr, fmt.Errorf("persist: %s: not a snapshot file", dir)
	}
	body := data[len(snapshotMagic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != want {
		return nil, hdr, fmt.Errorf("persist: %s: snapshot checksum mismatch", dir)
	}
	off := 0
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(body[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	gen, ok1 := next()
	id, ok2 := next()
	sz, ok3 := next()
	if !ok1 || !ok2 || !ok3 || uint64(len(body)-off) != sz {
		return nil, hdr, fmt.Errorf("persist: %s: malformed snapshot header", dir)
	}
	hdr.gen, hdr.nodeID = gen, int(id)
	return body[off:], hdr, nil
}

// WriteFileAtomic replaces path with data so that a crash leaves
// either the old file or the new one, never a prefix: the bytes go to
// path+".tmp" in the same directory (overwriting any a crash left
// there), are fsynced, renamed over path, and the directory is fsynced
// so the rename itself is durable. The directory fsync is best-effort:
// some filesystems (and all of Windows) reject it; the rename is still
// atomic.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, perm)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
