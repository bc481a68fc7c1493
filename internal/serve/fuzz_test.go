package serve

import (
	"encoding/json"
	"hash/crc32"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fuzzSrv is shared across fuzz iterations: small bounds and a short budget
// keep each accidental valid request cheap.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzHandler() http.Handler {
	fuzzOnce.Do(func() {
		fuzzSrv = New(Config{
			MaxSweepPoints: 64,
			DefaultTimeout: 200 * time.Millisecond,
			MaxTimeout:     200 * time.Millisecond,
			Logger:         log.New(io.Discard, "", 0),
		})
	})
	return fuzzSrv.Handler()
}

// fuzzEndpoints is every POST route, in table order.
var fuzzEndpoints = func() (paths []string) {
	for _, rt := range routeTable {
		paths = append(paths, rt.path)
	}
	return paths
}()

// FuzzDecode throws arbitrary bodies at every endpoint decoder. The
// invariants: the server never panics, malformed JSON is always a plain 400,
// and whatever happens the response is one of the documented statuses with a
// well-formed JSON error envelope (sweeps may stream NDJSON on success).
func FuzzDecode(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"tech":"100nm","l":2e-6,"f":0.5}`,
		`{"tech":"100nm","l":2e-6,"h":1e-3,"k":100}`,
		`{"tech":"100nm","ls":[0,1e-6],"f":0.5}`,
		`{"tech":"100nm","ls":[],"f":0.5}`,
		`{"tech":"100nm","ls":[1e308,-1e308]}`,
		`{"tech":"100nm","l":1e999}`,
		`{"tech":"100nm","l":-1e-6,"length":-1}`,
		`{"tech":"7nm"}`,
		`{"teCh":"100nm"}`, // case-insensitive field match, zero geometry: lcrit must 400, not NaN→500
		`{"tech":"100nm","bogus":true}`,
		`{"tech":"100nm"} trailing`,
		`{"peak_j":-1,"rms_j":1e99}`,
		`{"tech":"100nm","overshoot_v":-3}`,
		`{"tech":"100nm","l":2e-6,"length":0.02,"alpha":0.15,"freq":1e9}`,
		`{"tech":"100nm","l":2e-6,"alpha":2,"freq":-1}`,
		`{"tech":"100nm","l":2e-6,"length":0.02,"alpha":0,"freq":0,"points":1,"max_weight":-3}`,
		`{"tech":"250nm","l":1e-6,"alpha":1,"freq":3e9,"points":3,"max_weight":0.5}`,
		`{"tech":"100nm","ls":[0],"workers":-1,"tile_size":-9,"timeout_ms":-5}`,
		// PDN seeds stay cheap: no valid mesh above 64².
		`{"nx":8,"ny":8,"f_start":1e9,"f_stop":1e6}`,
		`{"nx":8,"ny":8,"f_start":-5}`,
		`{"nx":8,"ny":8,"points":1}`,
		`{"nx":8,"ny":8,"probe_x":9,"probe_y":2}`,
		`{"nx":1,"ny":8}`,
		`{"nx":1024,"ny":257}`,
		`{"nx":8,"ny":8,"workers":-1}`,
		`{"nx":8,"ny":8,"tech":"250nm","points":4}`,
		`[1,2,3]`,
		`"just a string"`,
		`{"tech":`,
		"\x00\xff\xfe",
		`{"tech":"100nm","ls":` + "[" + strings.Repeat("1e-9,", 200) + "2e-9]}",
	}
	for _, s := range seeds {
		for i := range fuzzEndpoints {
			f.Add(i, s)
		}
	}
	allowed := map[int]bool{
		200: true, 400: true, 404: true, 422: true,
		499: true, 503: true, 504: true,
	}
	f.Fuzz(func(t *testing.T, which int, body string) {
		if which < 0 {
			which = -which
		}
		path := fuzzEndpoints[which%len(fuzzEndpoints)]
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		fuzzHandler().ServeHTTP(rec, req) // a panic here fails the fuzz run

		if !allowed[rec.Code] {
			t.Fatalf("%s body %q → undocumented status %d (%s)", path, body, rec.Code, rec.Body.Bytes())
		}
		if !json.Valid([]byte(body)) && rec.Code != 400 {
			t.Fatalf("%s: malformed JSON %q → %d, want 400", path, body, rec.Code)
		}
		if rec.Code >= 400 {
			var env struct {
				Error struct {
					Status int    `json:"status"`
					Kind   string `json:"kind"`
				} `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("%s: error response is not a JSON envelope: %q", path, rec.Body.Bytes())
			}
			if env.Error.Status != rec.Code || env.Error.Kind == "" {
				t.Fatalf("%s: envelope %+v inconsistent with status %d", path, env.Error, rec.Code)
			}
		}
	})
}

// FuzzSnapshotLoad throws arbitrary bytes at the snapshot loader, both at
// the decoder and through a full server start. The invariants: never a
// panic, and anything that isn't a perfectly valid snapshot is a clean
// skip-and-cold-start — the server still comes up and still answers.
func FuzzSnapshotLoad(f *testing.F) {
	valid, err := encodeSnapshot([]*cached{
		{key: "optimize|100nm|1|2", ctype: "application/json", body: []byte(`{"h":1}` + "\n")},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"version":1,"crc32":0,"entries":[]}`))
	f.Add([]byte(`{"version":99,"crc32":0,"entries":[]}`))
	f.Add([]byte(`{"version":1,"crc32":` + "4294967295" + `,"entries":[{"key":"","ctype":"","body":""}]}`))
	f.Add([]byte("\x00\xff\xfe garbage"))
	f.Add([]byte(`[{"key":"a"}]`))

	payload := []byte(`[{"key":"k","ctype":"t","body":"eA=="}]`)
	wrapped, _ := json.Marshal(snapshotFile{Version: snapshotVersion, Schema: snapshotSchema(), CRC: crc32.ChecksumIEEE(payload), Entries: payload})
	f.Add(wrapped)
	noSchema, _ := json.Marshal(snapshotFile{Version: snapshotVersion, CRC: crc32.ChecksumIEEE(payload), Entries: payload})
	f.Add(noSchema)

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodeSnapshot(data) // a panic here fails the run
		if err == nil {
			for _, e := range entries {
				if e.key == "" {
					t.Fatal("decoder admitted an entry with no key")
				}
			}
		}

		path := filepath.Join(t.TempDir(), "cache.snap")
		if werr := os.WriteFile(path, data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		s := New(Config{
			SnapshotPath:     path,
			SnapshotInterval: -1, // no ticker: keep each iteration cheap
			Logger:           log.New(io.Discard, "", 0),
		})
		defer s.Close()
		req := httptest.NewRequest("GET", "/healthz", nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("server with snapshot %q failed /healthz: %d", data, rec.Code)
		}
		if err != nil {
			// A rejected snapshot must leave the cache cold.
			if _, _, n, _ := s.cache.stats(); n != 0 {
				t.Fatalf("rejected snapshot still populated %d cache entries", n)
			}
		}
	})
}
