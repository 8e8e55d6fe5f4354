package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// WAL frame: every record is
//
//	uvarint bodyLen ‖ uint32-LE CRC32(body) ‖ body
//
// where body = [1B record type ‖ payload]. The log is append-only and
// records are fsync-batched (Options.FsyncEvery); a crash can
// therefore tear the final record(s), and the reader treats the first
// length/CRC violation as the clean end of the log — a torn tail is
// indistinguishable from "the events after it never happened", which
// is exactly the crash semantics the protocol tolerates (a lost
// message). Clock-lease records are the one exception to batching:
// they are flushed synchronously before any covered stamp leaves the
// resource, so the monotonicity guarantee never depends on the batch
// timer.
const (
	recMessage    = 1 // varint from ‖ core.AppendMessage frame
	recTick       = 2 // (empty)
	recJoin       = 3 // varint joined-neighbour id
	recClockLease = 4 // varint leased clock upper bound
)

// maxWALRecord bounds one record's body so a corrupted or hostile
// length prefix cannot force an oversized allocation. Generous: the
// largest legitimate record is one coalesced message frame.
const maxWALRecord = 16 << 20

// FramedRecord is one decoded record: Body is the payload after the
// type byte, a slice of the scanned image.
type FramedRecord struct {
	Type byte
	Body []byte
}

// AppendFramed appends to dst the record of [typ ‖ payload], copying
// payload once and summing the body where it lands: a dst with
// len(payload)+16 bytes spare takes no allocation. Other durable
// components (the service's result store) frame their logs with it
// for the same crash semantics without a per-resource Journal.
func AppendFramed(dst []byte, typ byte, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(1+len(payload)))
	at := len(dst)
	dst = append(append(append(dst, 0, 0, 0, 0), typ), payload...)
	binary.LittleEndian.PutUint32(dst[at:], crc32.ChecksumIEEE(dst[at+4:]))
	return dst
}

// ScanFramed walks a log image, returning every valid record and the
// byte offset of the valid prefix. Scanning stops — without error — at
// the first torn or corrupted record: everything after it is
// unreachable garbage (crash tail), and appenders must truncate to
// validLen before writing (O_APPEND after a torn write would strand new
// records behind bytes replay never reads).
func ScanFramed(data []byte) (records []FramedRecord, validLen int) {
	off := 0
	for off < len(data) {
		n, vn := binary.Uvarint(data[off:])
		if vn <= 0 || n == 0 || n > maxWALRecord {
			break
		}
		hdr := off + vn
		if hdr+4 > len(data) || uint64(len(data)-hdr-4) < n {
			break
		}
		want := binary.LittleEndian.Uint32(data[hdr:])
		body := data[hdr+4 : hdr+4+int(n)]
		if crc32.ChecksumIEEE(body) != want {
			break
		}
		records = append(records, FramedRecord{Type: body[0], Body: body[1:]})
		off = hdr + 4 + int(n)
	}
	return records, off
}

// decodeLease extracts the leased clock bound from a recClockLease
// body.
func decodeLease(body []byte) (int64, error) {
	v, n := binary.Varint(body)
	if n <= 0 || n != len(body) {
		return 0, fmt.Errorf("persist: malformed clock-lease record")
	}
	return v, nil
}

// decodeMessageRecord splits a recMessage body into the sender id and
// the wire frame.
func decodeMessageRecord(body []byte) (from int, frame []byte, err error) {
	v, n := binary.Varint(body)
	if n <= 0 {
		return 0, nil, fmt.Errorf("persist: malformed message record")
	}
	return int(v), body[n:], nil
}

// decodeJoin extracts the neighbour id from a recJoin body.
func decodeJoin(body []byte) (int, error) {
	v, n := binary.Varint(body)
	if n <= 0 || n != len(body) {
		return 0, fmt.Errorf("persist: malformed join record")
	}
	return int(v), nil
}
