package serve

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"

	"rlcint/internal/tech"
)

// maxBodyBytes bounds every request body; grids large enough to exceed it
// are out of scope for a single request anyway.
const maxBodyBytes = 1 << 20

// decodeJSON decodes the request body into v, a pointer to a struct,
// strictly: unknown fields, trailing garbage, oversized bodies, non-JSON, and
// non-finite floats all fail with a typed *badRequest (→ 400). JSON cannot
// carry NaN/±Inf literals, and Go's decoder rejects out-of-range numbers, so
// decoded floats are always finite — checkFinite and the facade's ErrDomain
// validation backstop anything that slips through.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return badRequestf("request body exceeds %d bytes", mbe.Limit)
		}
		return badRequestf("invalid request JSON: %v", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return badRequestf("trailing data after JSON body")
	}
	return checkFinite(reflect.ValueOf(v).Elem())
}

// canonF renders a float for canonical cache keys: the exact bit pattern, so
// two requests share a key iff their inputs are identical.
func canonF(v float64) string {
	return strconv.FormatUint(math.Float64bits(v), 16)
}

// checkFinite rejects a non-finite float field of struct v, embedded structs
// included, with a 400 before it reaches a solver (defense in depth; strict
// JSON decoding should make this moot). decodeJSON runs it on every request,
// so no request type keeps a list of its float fields.
func checkFinite(v reflect.Value) error {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		switch {
		case f.Anonymous && fv.Kind() == reflect.Struct:
			if err := checkFinite(fv); err != nil {
				return err
			}
		case f.IsExported() && fv.Kind() == reflect.Float64:
			if x := fv.Float(); math.IsNaN(x) || math.IsInf(x, 0) {
				name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				return badRequestf("%s=%g is not finite", name, x)
			}
		}
	}
	return nil
}

// lookupTech resolves the technology node a request names into *node, the
// request's unexported node field (never decoded, keyed, or forwarded).
func lookupTech(name string, node *tech.Node) error {
	if name == "" {
		return badRequestf("missing technology (want one of: 250nm, 100nm, 100nm-eps250)")
	}
	t, err := tech.ByName(name)
	if err != nil {
		return badRequestf("%v", err)
	}
	*node = t
	return nil
}

// threshold normalizes the delay-threshold field: 0 means the paper's 50%.
func threshold(f float64) float64 {
	if f == 0 {
		return 0.5
	}
	return f
}

// optimizeReq drives /v1/optimize: the paper's core methodology at one
// (technology, inductance, threshold) point. All units SI.
type optimizeReq struct {
	Tech      string  `json:"tech"`
	L         float64 `json:"l"` // line inductance, H/m
	F         float64 `json:"f"` // delay threshold fraction; 0 → 0.5
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
	// NoDegraded opts this request out of degraded-mode answers: a solver
	// failure surfaces as its mapped error instead of a closed-form
	// estimate. Not part of the cache key — it changes failure handling,
	// never the result.
	NoDegraded bool `json:"no_degraded,omitempty"`
	node       tech.Node
}

func (q *optimizeReq) validate(*Config) error { return lookupTech(q.Tech, &q.node) }

func (q *optimizeReq) key() string {
	return "optimize|" + q.Tech + "|" + canonF(q.L) + "|" + canonF(threshold(q.F))
}

// delayReq drives /v1/delay: the f×100% delay of one explicit stage.
type delayReq struct {
	Tech       string  `json:"tech"`
	L          float64 `json:"l"` // line inductance, H/m
	H          float64 `json:"h"` // segment length, m
	K          float64 `json:"k"` // repeater size
	F          float64 `json:"f"`
	TimeoutMS  int64   `json:"timeout_ms,omitempty"`
	NoDegraded bool    `json:"no_degraded,omitempty"` // see optimizeReq.NoDegraded
	node       tech.Node
}

func (q *delayReq) validate(*Config) error { return lookupTech(q.Tech, &q.node) }

func (q *delayReq) key() string {
	return "delay|" + q.Tech + "|" + canonF(q.L) + "|" + canonF(q.H) + "|" +
		canonF(q.K) + "|" + canonF(threshold(q.F))
}

// planReq drives /v1/plan: a realizable integer-stage repeater plan for a
// net of total length Length meters.
type planReq struct {
	Tech       string  `json:"tech"`
	L          float64 `json:"l"`
	F          float64 `json:"f"`
	Length     float64 `json:"length"` // total net length, m
	TimeoutMS  int64   `json:"timeout_ms,omitempty"`
	NoDegraded bool    `json:"no_degraded,omitempty"` // see optimizeReq.NoDegraded
	node       tech.Node
}

func (q *planReq) validate(*Config) error { return lookupTech(q.Tech, &q.node) }

func (q *planReq) key() string {
	return "plan|" + q.Tech + "|" + canonF(q.L) + "|" + canonF(threshold(q.F)) + "|" + canonF(q.Length)
}

// rcReq drives /v1/optimize-rc: the closed-form Elmore/RC optimum.
type rcReq struct {
	Tech string `json:"tech"`
	node tech.Node
}

func (q *rcReq) validate(*Config) error { return lookupTech(q.Tech, &q.node) }

func (q *rcReq) key() string { return "optimize-rc|" + q.Tech }

// lcritReq drives /v1/lcrit: the paper's Eq. (4) critical inductance of one
// explicit stage (the stage's own l is ignored by the formula).
type lcritReq struct {
	Tech string  `json:"tech"`
	L    float64 `json:"l"`
	H    float64 `json:"h"`
	K    float64 `json:"k"`
	node tech.Node
}

func (q *lcritReq) validate(*Config) error {
	// Eq. (4) divides by the stage's loading (c·h²/2 + cl·h) and sizes the
	// driver as R0/k: a non-positive geometry yields NaN/Inf, which has no
	// JSON encoding — reject it as the caller's error instead.
	if q.H <= 0 {
		return badRequestf("h=%g must be positive", q.H)
	}
	if q.K <= 0 {
		return badRequestf("k=%g must be positive", q.K)
	}
	return lookupTech(q.Tech, &q.node)
}

func (q *lcritReq) key() string {
	return "lcrit|" + q.Tech + "|" + canonF(q.L) + "|" + canonF(q.H) + "|" + canonF(q.K)
}

// sweepReq drives /v1/sweep: the Section 3 study over an inductance grid,
// streamed as NDJSON. Workers is an execution hint (capped server-side,
// never part of the result), while Warm and TileSize are part of the result
// contract and therefore of the cache key.
type sweepReq struct {
	Tech      string    `json:"tech"`
	Ls        []float64 `json:"ls"` // inductance grid, H/m
	F         float64   `json:"f"`
	Warm      bool      `json:"warm,omitempty"`
	Workers   int       `json:"workers,omitempty"`
	TileSize  int       `json:"tile_size,omitempty"`
	TimeoutMS int64     `json:"timeout_ms,omitempty"`
	node      tech.Node
}

func (q *sweepReq) validate(cfg *Config) error {
	if len(q.Ls) == 0 {
		return badRequestf("empty inductance grid")
	}
	if len(q.Ls) > cfg.MaxSweepPoints {
		return badRequestf("grid of %d points exceeds the per-request limit of %d", len(q.Ls), cfg.MaxSweepPoints)
	}
	for i, l := range q.Ls {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return badRequestf("ls[%d]=%g is not finite", i, l)
		}
	}
	if q.Workers < 0 || q.TileSize < 0 {
		return badRequestf("workers and tile_size must be non-negative")
	}
	return lookupTech(q.Tech, &q.node)
}

// keyBase canonicalizes everything that decides sweep results except the
// grid itself; chunkKey appends the chunk's slice of the grid.
func (q *sweepReq) keyBase() string {
	var b strings.Builder
	b.WriteString("sweep|")
	b.WriteString(q.Tech)
	b.WriteString("|")
	b.WriteString(canonF(threshold(q.F)))
	if q.Warm {
		b.WriteString("|warm|tile=")
		b.WriteString(strconv.Itoa(q.TileSize))
	}
	return b.String()
}

// chunkKey is the canonical key of one streamed chunk: the base plus the
// chunk's exact grid values (position-independent, so identical chunks of
// different requests share work).
func chunkKey(base string, ls []float64) string {
	var b strings.Builder
	b.Grow(len(base) + 17*len(ls) + 8)
	b.WriteString(base)
	b.WriteString("|")
	for _, l := range ls {
		b.WriteString(canonF(l))
		b.WriteString(",")
	}
	return b.String()
}

// oxideReq drives /v1/check/oxide.
type oxideReq struct {
	Tech       string  `json:"tech"`
	OvershootV float64 `json:"overshoot_v"` // measured overshoot above VDD, V
	node       tech.Node
}

func (q *oxideReq) validate(*Config) error {
	if q.OvershootV < 0 {
		return badRequestf("overshoot_v must be non-negative, got %g", q.OvershootV)
	}
	return lookupTech(q.Tech, &q.node)
}

func (q *oxideReq) key() string { return "check-oxide|" + q.Tech + "|" + canonF(q.OvershootV) }

// wireReq drives /v1/check/wire.
type wireReq struct {
	PeakJ float64 `json:"peak_j"` // peak current density, A/m²
	RMSJ  float64 `json:"rms_j"`  // rms current density, A/m²
}

func (q *wireReq) validate(*Config) error {
	if q.PeakJ < 0 || q.RMSJ < 0 || (q.PeakJ > 0 && q.RMSJ > q.PeakJ) {
		return badRequestf("implausible densities peak_j=%g rms_j=%g", q.PeakJ, q.RMSJ)
	}
	return nil
}

func (q *wireReq) key() string { return "check-wire|" + canonF(q.PeakJ) + "|" + canonF(q.RMSJ) }
