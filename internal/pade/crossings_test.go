package pade

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"rlcint/internal/diag"
	"rlcint/internal/num"
)

// scanDelay is the delay solve as one scan per threshold: num.FirstCrossingS
// over the growing window, then a Newton polish with a Brent fallback. It
// is the oracle the shared scan must reproduce bit for bit.
func scanDelay(m Model, f float64) (DelayResult, error) {
	g := stepState{m: m, f: f}
	tScale := math.Max(m.B1, math.Sqrt(m.B2))
	tmax := 4 * tScale
	for try := 0; ; try++ {
		lo, hi, err := num.FirstCrossingS(stepResidual, g, 0, tmax, 512)
		if err == nil {
			res, err := num.Newton1DS(stepResidual, stepDeriv, g, lo, hi, 0.5*(lo+hi), 1e-14*tScale+1e-30, 60)
			if err != nil {
				tau, err := num.BrentS(stepResidual, g, lo, hi, 1e-16*tScale, 200)
				return DelayResult{Tau: tau, Iterations: res.Iterations}, err
			}
			return DelayResult{Tau: res.Root, Iterations: res.Iterations}, nil
		}
		if try == 24 {
			return DelayResult{}, err
		}
		tmax *= 4
	}
}

// crossingModels spans ζ from 0.05 to 20 on a unit natural period,
// including the critical band on both sides of ζ = 1.
func crossingModels(t *testing.T) []Model {
	t.Helper()
	var ms []Model
	for _, zeta := range []float64{0.05, 0.1, 0.3, 0.6, 0.9, 0.99,
		1 - 1e-9, 1 - 1e-11, 1, 1 + 1e-11, 1 + 1e-9, 1.01, 1.2, 2, 5, 20} {
		m, err := New(2*zeta, 1)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// TestCrossingsMatchDelayWith: one shared scan returns, for every threshold,
// exactly the bits of that threshold's own solve, in every damping regime
// and for thresholds whose crossing lies beyond the first window (f = 0.99
// and up at large ζ), and allocates nothing.
func TestCrossingsMatchDelayWith(t *testing.T) {
	sets := [][]float64{
		{0.5},
		{0.1, 0.9},
		{0.1, 0.5, 0.9},
		{0.1, 0.9, 0.9},
		{0, 0.05, 0.1, 0.5, 0.9, 0.95},
		{0.1, 0.5, 0.9, 0.99, 0.999, 0.9999},
		{0.9, 0.99999},
	}
	rng := rand.New(rand.NewSource(1))
	ms := crossingModels(t)
	for i := 0; i < 500; i++ {
		// Random models with ζ from 0.05 to 20 and natural periods over
		// two decades.
		b2 := math.Pow(10, -24+4*rng.Float64())
		zeta := math.Pow(10, -1.3+2.6*rng.Float64())
		m, err := New(2*zeta*math.Sqrt(b2), b2)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	grew := 0
	out := make([]DelayResult, 6)
	for mi, m := range ms {
		for _, fs := range sets {
			if err := m.Crossings(nil, fs, out); err != nil {
				t.Fatalf("model %d (ζ=%g) %v: %v", mi, m.Zeta(), fs, err)
			}
			for i, f := range fs {
				one, err := m.DelayWith(nil, f)
				if err != nil {
					t.Fatalf("model %d f=%g: %v", mi, f, err)
				}
				want := one
				if f > 0 {
					if want, err = scanDelay(m, f); err != nil {
						t.Fatalf("model %d f=%g oracle: %v", mi, f, err)
					}
				}
				if out[i] != one || one != want {
					t.Errorf("model %d (ζ=%g) f=%g in %v: Crossings %+v, DelayWith %+v, per-threshold scan %+v",
						mi, m.Zeta(), f, fs, out[i], one, want)
				}
				if one.Tau > 4*math.Max(m.B1, math.Sqrt(m.B2)) {
					grew++
				}
			}
		}
	}
	if grew == 0 {
		t.Error("no threshold needed the window-growth path")
	}

	m := ms[3]
	fs := []float64{0.1, 0.5, 0.9}
	if a := testing.AllocsPerRun(50, func() {
		if err := m.Crossings(nil, fs, out); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Crossings allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		if _, err := m.DelayWith(nil, 0.5); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("DelayWith allocates %v/op", a)
	}
}

func TestCrossingsValidation(t *testing.T) {
	m, err := New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]DelayResult, 3)
	for _, fs := range [][]float64{{0.9, 0.1}, {0.1, 1}, {math.NaN()}, {-0.1, 0.5}} {
		if err := m.Crossings(nil, fs, out); !errors.Is(err, diag.ErrDomain) {
			t.Errorf("%v: err = %v, want a domain error", fs, err)
		}
	}
}
