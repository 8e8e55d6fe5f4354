package persist

import (
	"encoding/binary"
	"hash/crc32"
	"os"
)

// Exported framed-log primitives for other durable components (the
// service's result store) that want this package's crash semantics —
// CRC-framed append-only records with torn-tail truncation, and
// fsync'd tmp→rename snapshot publication — without carrying a full
// per-resource Journal.

// FramedRecord is one decoded record of a framed log.
type FramedRecord struct {
	Type byte
	Body []byte
}

// AppendFramed appends to dst the WAL record appendRecord writes for
// [typ ‖ payload] (uvarint length ‖ CRC32 ‖ body), copying payload once
// and summing the body where it lands: a dst with len(payload)+16 bytes
// spare takes no allocation.
func AppendFramed(dst []byte, typ byte, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(1+len(payload)))
	at := len(dst)
	dst = append(append(append(dst, 0, 0, 0, 0), typ), payload...)
	binary.LittleEndian.PutUint32(dst[at:], crc32.ChecksumIEEE(dst[at+4:]))
	return dst
}

// ScanFramed walks a framed-log image, returning every valid record
// and the length of the valid prefix. Scanning stops — without error —
// at the first torn or corrupted record; appenders must truncate the
// file to validLen before writing again.
func ScanFramed(data []byte) (records []FramedRecord, validLen int) {
	raw, n := scanWAL(data)
	if len(raw) == 0 {
		return nil, n
	}
	records = make([]FramedRecord, len(raw))
	for i, r := range raw {
		records[i] = FramedRecord{Type: r.typ, Body: r.body}
	}
	return records, n
}

// WriteFileSync writes data and fsyncs before closing, so a subsequent
// rename never exposes a file whose bytes are still in flight.
func WriteFileSync(path string, data []byte, perm os.FileMode) error {
	return writeFileSync(path, data, perm)
}

// SyncDir fsyncs a directory so a rename within it is durable
// (best-effort; see syncDir).
func SyncDir(dir string) { syncDir(dir) }
