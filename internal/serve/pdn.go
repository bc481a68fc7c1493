package serve

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"rlcint/internal/pdn"
	"rlcint/internal/runctl"
)

// maxPDNNodes bounds one request's mesh (nx*ny). The ceiling admits the
// 10⁵-node acceptance workload with headroom while keeping a single request
// from claiming unbounded memory.
const maxPDNNodes = 1 << 18

// maxPDNPoints bounds one impedance sweep's frequency grid: each point is a
// full 2n-unknown solve, far heavier than a sweep grid point.
const maxPDNPoints = 1024

// pdnIRReq drives /v1/pdn/ir: a DC IR-drop analysis of a parameterized
// power-grid mesh. The embedded Spec carries the mesh parameters; zero
// fields take the package defaults.
type pdnIRReq struct {
	pdn.Spec
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (q *pdnIRReq) validate(*Config) error { return validatePDNSpec(&q.Spec) }

// validatePDNSpec canonicalizes the spec in place (so cache keys see the
// defaulted form) and applies the server-side size cap. A spec pdn rejects
// keeps its diag domain kind, so it answers 400 domain.
func validatePDNSpec(s *pdn.Spec) error {
	c, err := s.Canonical()
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if c.NX*c.NY > maxPDNNodes {
		return badRequestf("mesh of %d nodes exceeds the per-request limit of %d", c.NX*c.NY, maxPDNNodes)
	}
	*s = c
	return nil
}

// pdnKey canonicalizes a (defaulted) spec into a cache key segment.
func pdnKey(kind string, s pdn.Spec) string {
	var b strings.Builder
	b.WriteString("pdn-")
	b.WriteString(kind)
	b.WriteString("|")
	b.WriteString(s.Tech)
	for _, n := range []int{s.NX, s.NY, s.BumpNX, s.BumpNY, s.HotX, s.HotY} {
		b.WriteString("|")
		b.WriteString(strconv.Itoa(n))
	}
	for _, f := range []float64{s.PitchMM, s.LPerM, s.RBump, s.LBump, s.CNode, s.ILoad, s.IHot, s.VDD} {
		b.WriteString("|")
		b.WriteString(canonF(f))
	}
	return b.String()
}

func (q *pdnIRReq) key() string { return pdnKey("ir", q.Spec) }

// pdnImpReq drives /v1/pdn/impedance: an AC impedance-profile sweep at the
// probe node. Workers is an execution hint and stays out of the cache key.
type pdnImpReq struct {
	pdn.Spec
	FStart    float64 `json:"f_start,omitempty"`
	FStop     float64 `json:"f_stop,omitempty"`
	Points    int     `json:"points,omitempty"`
	ProbeX    int     `json:"probe_x,omitempty"`
	ProbeY    int     `json:"probe_y,omitempty"`
	Workers   int     `json:"workers,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

func (q *pdnImpReq) validate(*Config) error {
	if err := validatePDNSpec(&q.Spec); err != nil {
		return err
	}
	if q.Points > maxPDNPoints {
		return badRequestf("impedance sweep of %d points exceeds the per-request limit of %d", q.Points, maxPDNPoints)
	}
	if q.Workers < 0 {
		return badRequestf("workers must be non-negative")
	}
	return nil
}

func (q *pdnImpReq) key() string {
	var b strings.Builder
	b.WriteString(pdnKey("imp", q.Spec))
	for _, f := range []float64{q.FStart, q.FStop} {
		b.WriteString("|")
		b.WriteString(canonF(f))
	}
	b.WriteString("|")
	b.WriteString(strconv.Itoa(q.Points))
	b.WriteString("|")
	b.WriteString(strconv.Itoa(q.ProbeX))
	b.WriteString(",")
	b.WriteString(strconv.Itoa(q.ProbeY))
	return b.String()
}

// plan serves the DC IR-drop analysis. Large meshes route through the
// engine's CG path automatically, with run control wired to the request
// context and timeout_ms so an abandoned or overdue solve stops at its next
// CG iteration; the solver stats land in the response and the /metrics
// sparse counters.
func (q *pdnIRReq) plan(s *Server) reply {
	return reply{key: q.key(), timeoutMS: q.TimeoutMS, compute: func(ctx context.Context) (any, error) {
		m, err := pdn.Build(q.Spec)
		if err != nil {
			return nil, err
		}
		res, err := m.SolveIRWith(runctl.New(ctx, runctl.Limits{Timeout: s.timeoutFor(q.TimeoutMS)}))
		if err != nil {
			return nil, err
		}
		s.metrics.recordSparse(res.Solver)
		return res, nil
	}}
}

// plan serves the AC impedance-profile sweep through the batched engine,
// with run control wired to the request context so an abandoned sweep stops
// at its next frequency point.
func (q *pdnImpReq) plan(s *Server) reply {
	workers, timeout := s.workers(q.Workers), s.timeoutFor(q.TimeoutMS)
	return reply{key: q.key(), timeoutMS: q.TimeoutMS, compute: func(ctx context.Context) (any, error) {
		m, err := pdn.Build(q.Spec)
		if err != nil {
			return nil, err
		}
		ctl := runctl.New(ctx, runctl.Limits{Timeout: timeout})
		return m.ImpedanceProfile(ctl, pdn.ImpedanceOpts{
			FStart: q.FStart, FStop: q.FStop, Points: q.Points,
			ProbeX: q.ProbeX, ProbeY: q.ProbeY, Workers: workers,
		})
	}}
}
