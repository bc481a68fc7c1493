// Package repeater models the sized CMOS repeater of the paper's Figure 1
// and the classical Elmore/RC-optimal repeater insertion it compares
// against: closed-form optimal segment length h_optRC, size k_optRC and
// segment delay τ_optRC, plus the inverse extraction the paper uses to
// obtain (r_s, c_0, c_p) for a technology from SPICE-measured optima.
package repeater

import (
	"fmt"
	"math"

	"rlcint/internal/diag"
	"rlcint/internal/tech"
	"rlcint/internal/tline"
)

// MinDevice describes a minimum-sized repeater: output resistance Rs,
// input capacitance C0 and output parasitic capacitance Cp (SI units).
// A repeater k times minimum size has RS = Rs/k, CP = Cp·k, and presents
// CL = C0·k to its driver.
type MinDevice struct {
	Rs float64 // Ω
	C0 float64 // F
	Cp float64 // F
}

// FromTech extracts the device parameters of a technology node.
func FromTech(n tech.Node) MinDevice { return MinDevice{Rs: n.Rs, C0: n.C0, Cp: n.Cp} }

// Validate rejects non-physical device parameters, including NaN/Inf
// values (which plain sign comparisons would let through) with a
// diag.ErrDomain-matchable error.
func (d MinDevice) Validate() error {
	if err := diag.CheckFinite("repeater.MinDevice",
		[]string{"Rs", "C0", "Cp"}, []float64{d.Rs, d.C0, d.Cp}); err != nil {
		return err
	}
	if d.Rs <= 0 || d.C0 <= 0 || d.Cp < 0 {
		return fmt.Errorf("repeater: invalid device rs=%g c0=%g cp=%g: %w", d.Rs, d.C0, d.Cp, diag.ErrDomain)
	}
	return nil
}

// Scaled returns the driver parameters of a k-times-minimum repeater:
// series resistance, output parasitic capacitance, and the input (load)
// capacitance it presents.
func (d MinDevice) Scaled(k float64) (rs, cp, cl float64) {
	return d.Rs / k, d.Cp * k, d.C0 * k
}

// Stage assembles the paper's driver–line–load stage for a segment of
// length h driven by a size-k repeater and loaded by an identical repeater.
func (d MinDevice) Stage(line tline.Line, h, k float64) tline.Stage {
	rs, cp, cl := d.Scaled(k)
	return tline.Stage{Line: line, H: h, RS: rs, CP: cp, CL: cl}
}

// RCOptimum is the classical Elmore-delay repeater insertion solution.
type RCOptimum struct {
	H   float64 // optimal segment length, m
	K   float64 // optimal repeater size (multiples of minimum)
	Tau float64 // Elmore delay of one optimal segment, s
}

// Normalize maps a design point (h, k) into the RC optimum's coordinate
// frame (h/h_optRC, k/k_optRC) — the dimensionless space the stationarity
// Newton, its cold start (the normalized Ismail–Friedman closed form), its
// warm-start continuation seeds, and the batched sweep engine all work in.
func (o RCOptimum) Normalize(h, k float64) (x, y float64) {
	return h / o.H, k / o.K
}

// Denormalize is the inverse of Normalize: it maps a point of the RC-frame
// back to physical (h, k).
func (o RCOptimum) Denormalize(x, y float64) (h, k float64) {
	return x * o.H, y * o.K
}

// RCOptimal returns the closed-form optimum for the Elmore (RC) delay model:
//
//	h_optRC = √(2·rs(c0+cp)/(r·c)),  k_optRC = √(rs·c/(r·c0)),
//	τ_optRC = 2·rs(c0+cp)·(1 + √(2c0/(c0+cp))).
//
// τ_optRC is independent of the wiring level — the paper treats it as a
// technology constant.
func RCOptimal(d MinDevice, line tline.Line) (RCOptimum, error) {
	if err := d.Validate(); err != nil {
		return RCOptimum{}, err
	}
	if err := line.Validate(); err != nil {
		return RCOptimum{}, err
	}
	return RCOptimum{
		H:   math.Sqrt(2 * d.Rs * (d.C0 + d.Cp) / (line.R * line.C)),
		K:   math.Sqrt(d.Rs * line.C / (line.R * d.C0)),
		Tau: 2 * d.Rs * (d.C0 + d.Cp) * (1 + math.Sqrt(2*d.C0/(d.C0+d.Cp))),
	}, nil
}

// SegmentElmore returns the Elmore delay of one length-h segment driven by a
// size-k repeater (the bracketed term of the paper's t_Elmore).
func SegmentElmore(d MinDevice, line tline.Line, h, k float64) float64 {
	return d.Stage(line, h, k).ElmoreSegment()
}

// TotalElmore returns the Elmore delay of a length-L line broken into
// length-h buffered segments of size-k repeaters: (L/h)·τ_segment.
func TotalElmore(d MinDevice, line tline.Line, L, h, k float64) float64 {
	return L / h * SegmentElmore(d, line, h, k)
}

// Extract inverts the RC-optimum closed forms: given a measured optimal
// segment length h, repeater size k and segment delay tau (e.g. from SPICE
// sweeps, as the paper does for Table 1) plus the line's r and c, it
// recovers the minimum-device parameters (rs, c0, cp).
//
// Derivation: with A ≡ rs(c0+cp) = r·c·h²/2 and B ≡ rs/c0 = k²·r/c, the
// delay equation gives q ≡ √(2c0/(c0+cp)) = tau/(2A) − 1, so
// rs = q·√(A·B/2), c0 = rs/B, cp = A/rs − c0.
func Extract(line tline.Line, h, k, tau float64) (MinDevice, error) {
	if h <= 0 || k <= 0 || tau <= 0 {
		return MinDevice{}, fmt.Errorf("repeater: Extract requires positive h, k, tau")
	}
	if err := line.Validate(); err != nil {
		return MinDevice{}, err
	}
	a := line.R * line.C * h * h / 2
	b := k * k * line.R / line.C
	q := tau/(2*a) - 1
	if q <= 0 || q >= math.Sqrt2 {
		return MinDevice{}, fmt.Errorf("repeater: Extract: inconsistent measurements (q=%g must be in (0,√2))", q)
	}
	rs := q * math.Sqrt(a*b/2)
	c0 := rs / b
	cp := a/rs - c0
	d := MinDevice{Rs: rs, C0: c0, Cp: cp}
	if err := d.Validate(); err != nil {
		return MinDevice{}, fmt.Errorf("repeater: Extract produced %+v: %w", d, err)
	}
	return d, nil
}

// IntrinsicDelay returns τ_optRC for the device alone; like τ_optRC it is a
// pure technology figure of merit (the paper's Table 1 τ column).
func (d MinDevice) IntrinsicDelay() float64 {
	return 2 * d.Rs * (d.C0 + d.Cp) * (1 + math.Sqrt(2*d.C0/(d.C0+d.Cp)))
}
