package serve

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"
)

// snapshotVersion is bumped whenever the serialized snapshot layout changes;
// loadSnapshot rejects mismatches so a restarted daemon never replays an
// incompatible cache image. A rejected snapshot is a cold start, not a
// crash.
const snapshotVersion = 2

// snapshotSchema fingerprints the response types whose marshaled bodies a
// snapshot can contain, walking struct field names, JSON tags, and types
// recursively. The envelope's Schema field carries it, so a build whose
// response shapes changed rejects an older snapshot automatically — a cold
// start — instead of relying on someone remembering to bump
// snapshotVersion while a stale image replays wrong answers as cache hits.
var snapshotSchema = sync.OnceValue(func() string {
	h := fnv.New64a()
	seen := map[reflect.Type]bool{}
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		if seen[t] {
			fmt.Fprintf(h, "~%s", t.String())
			return
		}
		seen[t] = true
		fmt.Fprintf(h, "%s(", t.Kind())
		switch t.Kind() {
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				fmt.Fprintf(h, "%s`%s`:", f.Name, f.Tag.Get("json"))
				walk(f.Type)
			}
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(t.Elem())
		case reflect.Map:
			walk(t.Key())
			walk(t.Elem())
		default:
			fmt.Fprint(h, t.String())
		}
		fmt.Fprint(h, ")")
	}
	for _, rt := range routeTable {
		walk(reflect.TypeOf(rt.shape))
	}
	return fmt.Sprintf("%016x", h.Sum64())
})

// snapEntry is one cached response in a snapshot, hot-path metadata only —
// counters and recency are rebuilt by replaying the entries through put.
type snapEntry struct {
	Key   string `json:"key"`
	CType string `json:"ctype"`
	Body  []byte `json:"body"`
}

// snapshotFile is the on-disk envelope. The entry list is kept as raw JSON
// so the checksum covers exactly the bytes that will be decoded: any
// corruption of the payload — truncation, bit flips, a partial write that
// survived a crash — fails the CRC before any entry is trusted.
type snapshotFile struct {
	Version int             `json:"version"`
	Schema  string          `json:"schema"`
	CRC     uint32          `json:"crc32"`
	Entries json.RawMessage `json:"entries"`
}

// encodeSnapshot serializes cache entries into the versioned, checksummed
// envelope.
func encodeSnapshot(entries []*cached) ([]byte, error) {
	ses := make([]snapEntry, 0, len(entries))
	for _, e := range entries {
		ses = append(ses, snapEntry{Key: e.key, CType: e.ctype, Body: e.body})
	}
	payload, err := json.Marshal(ses)
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot encode: %w", err)
	}
	return json.Marshal(snapshotFile{
		Version: snapshotVersion,
		Schema:  snapshotSchema(),
		CRC:     crc32.ChecksumIEEE(payload),
		Entries: payload,
	})
}

// decodeSnapshot validates the envelope (version, schema, checksum, shape)
// and returns the entries hot-order-preserving (cold end first). Every
// failure is an error, never a panic: callers log, skip, and cold-start.
func decodeSnapshot(data []byte) ([]*cached, error) {
	var sf snapshotFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("serve: snapshot decode: %w", err)
	}
	if sf.Version != snapshotVersion {
		return nil, fmt.Errorf("serve: snapshot version %d, this build reads version %d", sf.Version, snapshotVersion)
	}
	if sf.Schema != snapshotSchema() {
		return nil, fmt.Errorf("serve: snapshot schema %q, this build's responses fingerprint as %q", sf.Schema, snapshotSchema())
	}
	if got := crc32.ChecksumIEEE(sf.Entries); got != sf.CRC {
		return nil, fmt.Errorf("serve: snapshot checksum mismatch (file %08x, payload %08x)", sf.CRC, got)
	}
	var ses []snapEntry
	if err := json.Unmarshal(sf.Entries, &ses); err != nil {
		return nil, fmt.Errorf("serve: snapshot payload decode: %w", err)
	}
	out := make([]*cached, 0, len(ses))
	for i, se := range ses {
		if se.Key == "" {
			return nil, fmt.Errorf("serve: snapshot entry %d has no key", i)
		}
		out = append(out, &cached{key: se.Key, ctype: se.CType, body: se.Body})
	}
	return out, nil
}

// writeSnapshotFile persists the encoded snapshot atomically: temp file in
// the same directory, fsync, rename — the checkpoint file discipline, so a
// kill mid-write leaves the previous snapshot intact.
func writeSnapshotFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return fmt.Errorf("serve: snapshot write: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("serve: snapshot rename: %w", err)
	}
	return nil
}

// snapStats tracks the snapshot lifecycle for /statusz; the save and load
// counts live in the counter store's snapshot group.
type snapStats struct {
	mu        sync.Mutex
	restored  int    // entries replayed into the cache at startup
	loadNote  string // "ok" / "none" / the skip reason
	lastSave  time.Time
	lastSaveN int // entries in the last successful save
}

// snapshotStatus is /statusz's snapshot block.
func (s *Server) snapshotStatus() map[string]any {
	ops := group(s.metrics.counts, "snapshot.")
	st := &s.snap
	st.mu.Lock()
	defer st.mu.Unlock()
	out := map[string]any{
		"restored_entries": st.restored,
		"load":             st.loadNote,
		"saves":            ops["save"],
		"save_errors":      ops["save_error"],
	}
	if !st.lastSave.IsZero() {
		out["last_save_unix"] = st.lastSave.Unix()
		out["last_save_entries"] = st.lastSaveN
	}
	return out
}

// loadCacheSnapshot restores the result cache from cfg.SnapshotPath at
// startup. Any failure — missing file, corrupt bytes, version skew — is a
// logged cold start, never fatal: a daemon must come up even when its
// snapshot does not.
func (s *Server) loadCacheSnapshot() {
	note, restored := "none", 0
	// Runs on the loader goroutine, concurrently with early requests (which
	// see a filling cache — correct, just colder); snap.mu guards the stats.
	defer func() {
		s.snap.mu.Lock()
		s.snap.loadNote = note
		s.snap.restored = restored
		s.snap.mu.Unlock()
	}()
	data, err := os.ReadFile(s.cfg.SnapshotPath)
	if err != nil {
		if !os.IsNotExist(err) {
			note = fmt.Sprintf("skipped: %v", err)
			s.cfg.Logger.Printf("snapshot load %s: %v (cold start)", s.cfg.SnapshotPath, err)
		}
		return
	}
	entries, err := decodeSnapshot(data)
	if err != nil {
		note = fmt.Sprintf("skipped: %v", err)
		s.metrics.counts.Add("snapshot.load_skipped", 1)
		s.cfg.Logger.Printf("snapshot load %s: %v (cold start)", s.cfg.SnapshotPath, err)
		return
	}
	for _, e := range entries {
		s.cachePut(e)
	}
	note, restored = "ok", len(entries)
	s.metrics.counts.Add("snapshot.load_ok", 1)
	s.cfg.Logger.Printf("snapshot load %s: restored %d entries", s.cfg.SnapshotPath, len(entries))
}

// SaveSnapshot persists the current result cache to the configured snapshot
// path. It is a no-op without a SnapshotPath. Safe for concurrent use; the
// atomic rename means readers never observe a torn file.
func (s *Server) SaveSnapshot() error {
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	entries := s.cache.export()
	data, err := encodeSnapshot(entries)
	if err == nil {
		err = writeSnapshotFile(s.cfg.SnapshotPath, data)
	}
	if err != nil {
		s.metrics.counts.Add("snapshot.save_error", 1)
		s.cfg.Logger.Printf("snapshot save %s: %v", s.cfg.SnapshotPath, err)
		return err
	}
	s.snap.mu.Lock()
	s.snap.lastSave = time.Now()
	s.snap.lastSaveN = len(entries)
	s.snap.mu.Unlock()
	s.metrics.counts.Add("snapshot.save", 1)
	return nil
}

// snapshotLoop saves periodically until the server context ends, each wait
// jittered ±10% so a fleet of daemons restarted together does not fsync its
// snapshots in lockstep. The final on-drain save happens in Close, after
// in-flight solves finish, so the last image includes everything the daemon
// computed. Runs on the loader goroutine started by New, which owns the
// snapWG slot.
func (s *Server) snapshotLoop(interval time.Duration) {
	t := time.NewTimer(jitterDuration(interval))
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = s.SaveSnapshot()
			t.Reset(jitterDuration(interval))
		case <-s.base.Done():
			return
		}
	}
}

// jitterDuration spreads d uniformly over [0.9d, 1.1d].
func jitterDuration(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.9 + 0.2*rand.Float64()))
}
