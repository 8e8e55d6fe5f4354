package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secmr/internal/obs"
)

func putAll(t *testing.T, s Store, tenant string, epoch int64, rules ...Rule) {
	t.Helper()
	if err := s.Put(tenant, epoch, rules); err != nil {
		t.Fatalf("put(%s,%d): %v", tenant, epoch, err)
	}
}

// stores runs a subtest against both implementations.
func stores(t *testing.T, fn func(t *testing.T, open func() Store)) {
	t.Run("mem", func(t *testing.T) {
		fn(t, func() Store { return NewMem() })
	})
	t.Run("file", func(t *testing.T) {
		dir := t.TempDir()
		fn(t, func() Store {
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
	})
}

func TestStoreFiltersAndSorting(t *testing.T) {
	stores(t, func(t *testing.T, open func() Store) {
		s := open()
		defer s.Close()
		putAll(t, s, "acme", 1,
			Rule{Key: "=>1;freq", Support: 0.9, Confidence: 1},
			Rule{Key: "1=>2;conf", Support: 0.5, Confidence: 0.8},
			Rule{Key: "2=>3;conf", Support: 0.5, Confidence: 0.4},
		)
		res, err := s.Query("acme", Query{MinConfidence: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Epoch != 1 || len(res.Rules) != 2 {
			t.Fatalf("epoch=%d rules=%v", res.Epoch, res.Rules)
		}
		// Sorted by descending support.
		if res.Rules[0].Key != "=>1;freq" || res.Rules[1].Key != "1=>2;conf" {
			t.Fatalf("order: %v", res.Rules)
		}
		res, _ = s.Query("acme", Query{Limit: 1})
		if len(res.Rules) != 1 || !res.Truncated {
			t.Fatalf("limit: %+v", res)
		}
		if res, _ := s.Query("ghost", Query{}); res.Epoch != 0 || len(res.Rules) != 0 {
			t.Fatalf("unknown tenant: %+v", res)
		}
	})
}

func TestStoreEpochCursorAndTombstones(t *testing.T) {
	stores(t, func(t *testing.T, open func() Store) {
		s := open()
		defer s.Close()
		putAll(t, s, "acme", 1,
			Rule{Key: "=>1;freq", Support: 0.9, Confidence: 1},
			Rule{Key: "1=>2;conf", Support: 0.5, Confidence: 0.8},
		)
		// Epoch 2: one rule unchanged, one updated, one new, none removed.
		putAll(t, s, "acme", 2,
			Rule{Key: "=>1;freq", Support: 0.9, Confidence: 1},
			Rule{Key: "1=>2;conf", Support: 0.6, Confidence: 0.8},
			Rule{Key: "=>3;freq", Support: 0.3, Confidence: 1},
		)
		res, _ := s.Query("acme", Query{Since: 1})
		if len(res.Rules) != 2 {
			t.Fatalf("cursor must skip unchanged rules: %v", res.Rules)
		}
		// Epoch 3: "=>3;freq" leaves the mined set → tombstone visible to
		// the cursor, invisible to plain queries.
		putAll(t, s, "acme", 3,
			Rule{Key: "=>1;freq", Support: 0.9, Confidence: 1},
			Rule{Key: "1=>2;conf", Support: 0.6, Confidence: 0.8},
		)
		res, _ = s.Query("acme", Query{Since: 2})
		if len(res.Rules) != 1 || !res.Rules[0].Deleted || res.Rules[0].Key != "=>3;freq" {
			t.Fatalf("tombstone: %+v", res.Rules)
		}
		res, _ = s.Query("acme", Query{})
		if len(res.Rules) != 2 {
			t.Fatalf("plain query must hide tombstones: %v", res.Rules)
		}
		// Stale epoch rejected.
		if err := s.Put("acme", 3, nil); err == nil {
			t.Fatal("stale epoch must be rejected")
		}
		// Cursor at the current epoch: empty delta.
		if res, _ := s.Query("acme", Query{Since: res.Epoch}); len(res.Rules) != 0 {
			t.Fatalf("empty delta expected: %v", res.Rules)
		}
	})
}

func TestFileStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, s, "a", 1, Rule{Key: "=>1;freq", Support: 0.9, Confidence: 1})
	putAll(t, s, "b", 5, Rule{Key: "1=>2;conf", Support: 0.4, Confidence: 0.7})
	// No Close: simulate kill -9 by just reopening (the WAL is fsync'd
	// per Put, so everything acknowledged must be there).
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Tenants(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("tenants after recovery: %v", got)
	}
	res, _ := s2.Query("b", Query{})
	if res.Epoch != 5 || len(res.Rules) != 1 || res.Rules[0].Support != 0.4 {
		t.Fatalf("recovered state: %+v", res)
	}
	// Epochs stay monotone across restart.
	if err := s2.Put("b", 5, nil); err == nil {
		t.Fatal("stale epoch must be rejected after recovery")
	}
	s.Close()
}

func TestFileStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, s, "a", 1, Rule{Key: "=>1;freq", Support: 0.9, Confidence: 1})
	putAll(t, s, "a", 2, Rule{Key: "=>1;freq", Support: 0.8, Confidence: 1})
	s.Close()
	// Tear the last record mid-frame.
	path := filepath.Join(dir, "rules.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := s2.Query("a", Query{})
	if res.Epoch != 1 || res.Rules[0].Support != 0.9 {
		t.Fatalf("torn tail must roll back to the last full record: %+v", res)
	}
	// The tail was truncated: appending works and survives reopen.
	putAll(t, s2, "a", 2, Rule{Key: "=>1;freq", Support: 0.7, Confidence: 1})
	s2.Close()
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	res, _ = s3.Query("a", Query{})
	if res.Epoch != 2 || res.Rules[0].Support != 0.7 {
		t.Fatalf("post-truncate append lost: %+v", res)
	}
}

func TestFileStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(1); e <= 20; e++ {
		putAll(t, s, "a", e, Rule{Key: "=>1;freq", Support: float64(e) / 100, Confidence: 1})
	}
	if _, err := os.Stat(filepath.Join(dir, "rules.snap")); err != nil {
		t.Fatalf("no snapshot after 20 puts over a 256B threshold: %v", err)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res, _ := s2.Query("a", Query{})
	if res.Epoch != 20 || res.Rules[0].Support != 0.2 {
		t.Fatalf("compacted recovery: %+v", res)
	}
}

// TestFileStoreStalePutWritesNothing: a Put at a stale epoch is refused
// with the stale error before anything reaches the WAL, though its
// record is encoded outside the lock: store_wal_bytes and the file do
// not move, and a reopen recovers the epoch and rules of the last
// accepted Put.
func TestFileStoreStalePutWritesNothing(t *testing.T) {
	dir := t.TempDir()
	sink := obs.NewSink()
	s, err := Open(dir, Options{Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, s, "a", 3, Rule{Key: "=>1;freq", Support: 0.9, Confidence: 1})
	walBytes := func() float64 {
		for _, p := range sink.Reg.Snapshot() {
			if p.Name == "store_wal_bytes" {
				return p.Value
			}
		}
		t.Fatal("store_wal_bytes is not exported")
		return 0
	}
	before := walBytes()
	err = s.Put("a", 3, []Rule{{Key: "=>2;freq", Support: 0.5, Confidence: 1}})
	if err == nil || !strings.Contains(err.Error(), "stale epoch 3") {
		t.Fatalf("stale Put returned %v, want the stale-epoch error", err)
	}
	if after := walBytes(); after != before {
		t.Fatalf("store_wal_bytes %v → %v across a refused Put", before, after)
	}
	st, err := os.Stat(filepath.Join(dir, "rules.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if float64(st.Size()) != before {
		t.Fatalf("WAL file holds %d bytes after a refused Put, want %v", st.Size(), before)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res, _ := s2.Query("a", Query{})
	if res.Epoch != 3 || len(res.Rules) != 1 || res.Rules[0].Key != "=>1;freq" || res.Rules[0].Support != 0.9 {
		t.Fatalf("recovered %+v, want epoch 3 with =>1;freq at 0.9 alone", res)
	}
}
