package persist

import (
	"bytes"
	"encoding/binary"
	"testing"

	"secmr/internal/core"
	"secmr/internal/homo"
)

// FuzzWALReplay hammers the log decoder with arbitrary bytes: scanning
// must never panic, never report a valid prefix outside the input, and
// must be self-consistent (re-scanning the valid prefix reproduces the
// same records — the property the torn-tail recovery relies on). Every
// decoded record is then pushed through the replay decoders, which
// must fail cleanly on garbage.
func FuzzWALReplay(f *testing.F) {
	scheme := homo.NewPlain(64)
	var seed []byte
	seed = AppendFramed(seed, recTick, nil)
	seed = AppendFramed(seed, recJoin, binary.AppendVarint(nil, 4))
	seed = AppendFramed(seed, recClockLease, binary.AppendVarint(nil, 4096))
	frame, err := core.EncodeMessage(core.MaliciousReport{Accused: 1, Reporter: 2, Reason: "fuzz"})
	if err != nil {
		f.Fatal(err)
	}
	grant, err := core.EncodeMessage(core.ShareGrant{Share: scheme.EncryptInt(7), Slot: 1, NumSlots: 3, Epoch: 2})
	if err != nil {
		f.Fatal(err)
	}
	for _, fr := range [][]byte{frame, grant} {
		seed = AppendFramed(seed, recMessage, append(binary.AppendVarint(nil, 3), fr...))
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-2]) // torn tail
	f.Add(append(append([]byte{}, seed...), 0xFF, 0x00, 0x07))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		records, valid := ScanFramed(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d outside [0,%d]", valid, len(data))
		}
		again, v2 := ScanFramed(data[:valid])
		if v2 != valid || len(again) != len(records) {
			t.Fatalf("re-scan of valid prefix diverged: %d/%d records, %d/%d bytes",
				len(again), len(records), v2, valid)
		}
		for i, rec := range records {
			if !bytes.Equal(again[i].Body, rec.Body) || again[i].Type != rec.Type {
				t.Fatalf("record %d differs between scans", i)
			}
			switch rec.Type {
			case recMessage:
				if _, fr, err := decodeMessageRecord(rec.Body); err == nil {
					_, _ = core.DecodeMessage(fr, scheme) // must not panic
				}
			case recJoin:
				_, _ = decodeJoin(rec.Body)
			case recClockLease:
				_, _ = decodeLease(rec.Body)
			}
		}
	})
}
