package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"secmr/internal/obs"
	"secmr/internal/persist"
)

// File layout under the store directory:
//
//	rules.snap — fsync'd JSON snapshot, published by tmp→rename
//	rules.wal  — framed put records appended (and fsync'd) per Put
//
// Recovery loads the snapshot, then replays the WAL's valid prefix;
// the first torn or corrupted record ends the log exactly like the
// resource journals (persist package doc). A crash between snapshot
// rename and WAL truncation leaves already-compacted records in the
// log; replay drops them by their stale epochs, so the overlap is
// harmless.

// recPut is the only WAL record type: one JSON-encoded Put.
const recPut = 1

// defaultCompactBytes triggers snapshot compaction once the WAL grows
// past this size.
const defaultCompactBytes = 4 << 20

// putRecord is the WAL/snapshot wire form of one publish.
type putRecord struct {
	Tenant string `json:"tenant"`
	Epoch  int64  `json:"epoch"`
	Rules  []Rule `json:"rules"`
}

// snapshot is the wire form of the full store image.
type snapshot struct {
	Tenants map[string]snapTenant `json:"tenants"`
}

type snapTenant struct {
	Epoch int64    `json:"epoch"`
	Rules []Record `json:"rules"`
}

// Options tunes a file-backed store.
type Options struct {
	// CompactBytes is the WAL size that triggers snapshot compaction
	// (default 4 MiB).
	CompactBytes int
	// Obs, when set, registers the store_* metrics.
	Obs *obs.Sink
}

// FileStore is the durable Store: a WAL-fronted snapshot under one
// directory, surviving kill -9 at any instant.
type FileStore struct {
	mu      sync.Mutex
	dir     string
	opt     Options
	tenants map[string]*tenantState
	wal     *os.File
	walLen  int64

	cPuts      *obs.Counter
	cSnapshots *obs.Counter
	gWALBytes  *obs.Gauge
}

// Open loads (or initializes) a file-backed store in dir.
func Open(dir string, opt Options) (*FileStore, error) {
	if opt.CompactBytes <= 0 {
		opt.CompactBytes = defaultCompactBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &FileStore{dir: dir, opt: opt, tenants: map[string]*tenantState{}}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.wal = wal
	if st, err := wal.Stat(); err == nil {
		s.walLen = st.Size()
	}
	if reg := opt.Obs.Registry(); reg != nil {
		s.cPuts = reg.Counter("store_puts_total", "Rule-set publishes accepted by the result store.")
		s.cSnapshots = reg.Counter("store_snapshots_total", "Result-store snapshot compactions.")
		s.gWALBytes = reg.Gauge("store_wal_bytes", "Current result-store WAL length.")
		s.gWALBytes.Set(float64(s.walLen))
		reg.GaugeFunc("store_rules", "Live (non-tombstone) rules across all tenants.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, t := range s.tenants {
				n += t.liveRules()
			}
			return float64(n)
		})
		reg.GaugeFunc("store_tenants", "Tenants known to the result store.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.tenants))
		})
	}
	return s, nil
}

func (s *FileStore) walPath() string  { return filepath.Join(s.dir, "rules.wal") }
func (s *FileStore) snapPath() string { return filepath.Join(s.dir, "rules.snap") }

func (s *FileStore) loadSnapshot() error {
	data, err := os.ReadFile(s.snapPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("store: corrupt snapshot %s: %w", s.snapPath(), err)
	}
	for id, st := range snap.Tenants {
		t := &tenantState{epoch: st.Epoch, rules: make(map[string]Record, len(st.Rules))}
		for _, r := range st.Rules {
			t.rules[r.Key] = r
		}
		s.tenants[id] = t
	}
	return nil
}

func (s *FileStore) replayWAL() error {
	data, err := os.ReadFile(s.walPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	recs, valid := persist.ScanFramed(data)
	for _, rec := range recs {
		if rec.Type != recPut {
			continue // unknown record type: forward-compat skip
		}
		var put putRecord
		if err := json.Unmarshal(rec.Body, &put); err != nil {
			return fmt.Errorf("store: corrupt WAL record: %w", err)
		}
		// Stale epochs mean the record predates the snapshot (crash
		// between snapshot rename and WAL truncate) — already applied.
		_ = s.state(put.Tenant).apply(put.Epoch, put.Rules)
	}
	if valid < len(data) {
		// Torn tail: truncate so appends land after the last good
		// record, exactly like the resource journals.
		if err := os.Truncate(s.walPath(), int64(valid)); err != nil {
			return fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	return nil
}

func (s *FileStore) state(tenant string) *tenantState {
	t, ok := s.tenants[tenant]
	if !ok {
		t = &tenantState{rules: map[string]Record{}}
		s.tenants[tenant] = t
	}
	return t
}

// Put implements Store: apply in memory (validating the epoch), then
// append + fsync the WAL record so an acknowledged publish survives
// kill -9. Publishes happen at the mining loop's cadence, so one
// fsync per Put is cheap. The record is encoded and framed before the
// lock: readers wait on apply, write and fsync only.
func (s *FileStore) Put(tenant string, epoch int64, rules []Rule) error {
	body, err := json.Marshal(putRecord{Tenant: tenant, Epoch: epoch, Rules: rules})
	if err != nil {
		return err
	}
	frame := persist.AppendFramed(make([]byte, 0, len(body)+16), recPut, body)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return fmt.Errorf("store: closed")
	}
	if err := s.state(tenant).apply(epoch, rules); err != nil {
		return err
	}
	if _, err := s.wal.Write(frame); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.walLen += int64(len(frame))
	s.cPuts.Inc()
	s.gWALBytes.Set(float64(s.walLen))
	if s.walLen > int64(s.opt.CompactBytes) {
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// compactLocked snapshots the full state and truncates the WAL;
// caller holds s.mu.
func (s *FileStore) compactLocked() error {
	snap := snapshot{Tenants: make(map[string]snapTenant, len(s.tenants))}
	for id, t := range s.tenants {
		st := snapTenant{Epoch: t.epoch, Rules: make([]Record, 0, len(t.rules))}
		for _, r := range t.rules {
			st.Rules = append(st.Rules, r)
		}
		sort.Slice(st.Rules, func(i, j int) bool { return st.Rules[i].Key < st.Rules[j].Key })
		snap.Tenants[id] = st
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	if err := persist.WriteFileAtomic(s.snapPath(), data, 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// The snapshot now covers everything in the WAL; truncate it. A
	// crash before this point leaves snapshot+full WAL — replay drops
	// the duplicates by epoch.
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := s.wal.Seek(0, 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.walLen = 0
	s.cSnapshots.Inc()
	s.gWALBytes.Set(0)
	return nil
}

// Query implements Store.
func (s *FileStore) Query(tenant string, q Query) (Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[tenant]
	if !ok {
		return Result{}, nil
	}
	return t.query(q), nil
}

// Tenants implements Store.
func (s *FileStore) Tenants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Close implements Store: flush and close the WAL. Idempotent.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Sync()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}
