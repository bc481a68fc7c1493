package pade

import (
	"math"
	"testing"
	"testing/quick"

	"rlcint/internal/laplace"
	"rlcint/internal/num"
	"rlcint/internal/tech"
	"rlcint/internal/tline"
)

func stage100nm(lNHmm float64) tline.Stage {
	n := tech.Node100()
	k := 528.0
	return tline.Stage{
		Line: tline.Line{R: n.R, L: lNHmm * tech.NHPerMM, C: n.C},
		H:    11.1 * tech.MM,
		RS:   n.Rs / k,
		CP:   n.Cp * k,
		CL:   n.C0 * k,
	}
}

func TestNewRejectsNonPhysical(t *testing.T) {
	for _, c := range [][2]float64{{0, 1}, {1, 0}, {-1, 1}, {1, -1}, {math.NaN(), 1}} {
		if _, err := New(c[0], c[1]); err == nil {
			t.Errorf("New(%v,%v) should fail", c[0], c[1])
		}
	}
	if _, err := New(1e-10, 1e-20); err != nil {
		t.Errorf("valid coefficients rejected: %v", err)
	}
}

func TestDampingClassification(t *testing.T) {
	over, _ := New(3, 1)  // disc = 5 > 0
	under, _ := New(1, 1) // disc = -3 < 0
	crit, _ := New(2, 1)  // disc = 0
	if over.Damping() != Overdamped {
		t.Errorf("(3,1) -> %v", over.Damping())
	}
	if under.Damping() != Underdamped {
		t.Errorf("(1,1) -> %v", under.Damping())
	}
	if crit.Damping() != CriticallyDamped {
		t.Errorf("(2,1) -> %v", crit.Damping())
	}
	if over.Damping().String() != "overdamped" || Damping(9).String() == "" {
		t.Error("String() broken")
	}
}

func TestPolesSatisfyCharacteristicEquation(t *testing.T) {
	for _, c := range [][2]float64{{3, 1}, {1, 1}, {2, 1}, {1e-10, 3e-21}} {
		m, _ := New(c[0], c[1])
		s1, s2 := m.Poles()
		for _, s := range []complex128{s1, s2} {
			res := complex(1, 0) + complex(m.B1, 0)*s + complex(m.B2, 0)*s*s
			if mag := math.Hypot(real(res), imag(res)); mag > 1e-9 {
				t.Errorf("b=(%v,%v): residual %v at pole %v", c[0], c[1], mag, s)
			}
		}
		// Vieta: s1+s2 = -b1/b2, s1*s2 = 1/b2.
		sum := s1 + s2
		prod := s1 * s2
		if math.Abs(real(sum)+m.B1/m.B2) > 1e-6*math.Abs(m.B1/m.B2) {
			t.Errorf("pole sum %v, want %v", real(sum), -m.B1/m.B2)
		}
		if math.Abs(real(prod)-1/m.B2) > 1e-6/m.B2 {
			t.Errorf("pole product %v, want %v", real(prod), 1/m.B2)
		}
	}
}

func TestStepLimitsAndMonotoneRegimes(t *testing.T) {
	for _, c := range [][2]float64{{3, 1}, {2, 1}, {1, 1}, {0.5, 1}} {
		m, _ := New(c[0], c[1])
		if v := m.Step(0); v != 0 {
			t.Errorf("v(0) = %v", v)
		}
		if v := m.Step(-1); v != 0 {
			t.Errorf("v(<0) = %v", v)
		}
		if v := m.Step(200 * math.Sqrt(m.B2) / math.Min(1, m.Zeta())); math.Abs(v-1) > 1e-3 {
			t.Errorf("b=%v: v(inf) = %v, want 1", c, v)
		}
	}
	// Overdamped and critically damped responses are monotone (no overshoot).
	for _, c := range [][2]float64{{3, 1}, {2, 1}} {
		m, _ := New(c[0], c[1])
		prev := -1e-12
		for _, tt := range num.Linspace(0, 20, 2000) {
			v := m.Step(tt)
			if v < prev-1e-12 {
				t.Fatalf("b=%v: non-monotone at t=%v", c, tt)
			}
			if v > 1+1e-9 {
				t.Fatalf("b=%v: overshoot %v in non-underdamped regime", c, v)
			}
			prev = v
		}
	}
}

func TestStepContinuousAcrossCriticalDamping(t *testing.T) {
	// The three evaluation branches must agree at the regime boundaries.
	b2 := 2.3e-20 // representative magnitude for the paper's stages
	b1c := 2 * math.Sqrt(b2)
	for _, eps := range []float64{1e-5, 1e-7} {
		over, _ := New(b1c*(1+eps), b2)
		under, _ := New(b1c*(1-eps), b2)
		crit, _ := New(b1c, b2)
		for _, frac := range []float64{0.3, 1, 3} {
			tt := frac * math.Sqrt(b2)
			vo, vu, vc := over.Step(tt), under.Step(tt), crit.Step(tt)
			if math.Abs(vo-vc) > 1e-3 || math.Abs(vu-vc) > 1e-3 {
				t.Errorf("eps=%g t=%g: over=%v crit=%v under=%v", eps, tt, vo, vc, vu)
			}
		}
	}
}

// TestStepMatchesInverseLaplace checks the closed-form step response (the
// Fig2 waveforms) against numerical inversions of 1/(s(1+b₁s+b₂s²)): fixed
// Talbot in every damping regime, and Gaver–Stehfest, which is blind to
// oscillation, in the overdamped one.
func TestStepMatchesInverseLaplace(t *testing.T) {
	const b2 = 2.3e-20 // paper scale: 1/ωₙ ≈ 0.15 ns
	for _, zeta := range []float64{2, 1, 0.5} {
		m, err := New(2*zeta*math.Sqrt(b2), b2)
		if err != nil {
			t.Fatal(err)
		}
		step := laplace.StepOf(func(s complex128) complex128 {
			return 1 / (1 + complex(m.B1, 0)*s + complex(m.B2, 0)*s*s)
		})
		for k := 1; k <= 50; k++ {
			tt := float64(k) / 50 * 10 / m.OmegaN()
			want := m.Step(tt)
			got, err := laplace.Talbot(step, tt, 32)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("ζ=%g t=%g: Talbot %.12g, closed form %.12g", zeta, tt, got, want)
			}
			if zeta <= 1 {
				continue
			}
			if got, err = laplace.GaverStehfest(step, tt, 8); err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-5 {
				t.Errorf("ζ=%g t=%g: Gaver–Stehfest %.8g, closed form %.8g", zeta, tt, got, want)
			}
		}
	}
}

func TestStepDerivMatchesFiniteDifference(t *testing.T) {
	for _, c := range [][2]float64{{3, 1}, {2, 1}, {1.2, 1}} {
		m, _ := New(c[0], c[1])
		for _, tt := range []float64{0.3, 1, 2.5, 7} {
			want := num.CentralDiff(m.Step, tt)
			got := m.StepDeriv(tt)
			if math.Abs(got-want) > 1e-6*(math.Abs(want)+1e-3) {
				t.Errorf("b=%v t=%v: deriv %v, FD %v", c, tt, got, want)
			}
		}
	}
}

func TestDelayKnownCases(t *testing.T) {
	// Single-dominant-pole limit: b2 -> 0 gives v = 1-exp(-t/b1);
	// 50% delay -> b1·ln2.
	m, _ := New(1, 1e-6)
	res, err := m.Delay(0.5)
	if err != nil {
		t.Fatalf("Delay: %v", err)
	}
	if math.Abs(res.Tau-math.Ln2) > 1e-3 {
		t.Errorf("near-single-pole 50%% delay = %v, want ≈ln2", res.Tau)
	}
	// Critically damped: v(τ)=0.5 with α=1 -> (1+τ)e^{-τ}=0.5, τ≈1.67835.
	mc, _ := New(2, 1)
	res, err = mc.Delay(0.5)
	if err != nil {
		t.Fatalf("Delay: %v", err)
	}
	if math.Abs(res.Tau-1.67835) > 1e-4 {
		t.Errorf("critically damped 50%% delay = %v, want 1.67835", res.Tau)
	}
}

func TestDelayDefinitionHolds(t *testing.T) {
	// v(τ) = f exactly, and τ is the FIRST crossing.
	for _, c := range [][2]float64{{3, 1}, {2, 1}, {1, 1}, {0.3, 1}} {
		m, _ := New(c[0], c[1])
		for _, f := range []float64{0.1, 0.5, 0.9} {
			res, err := m.Delay(f)
			if err != nil {
				t.Fatalf("b=%v f=%v: %v", c, f, err)
			}
			if math.Abs(m.Step(res.Tau)-f) > 1e-9 {
				t.Errorf("b=%v f=%v: v(τ)=%v", c, f, m.Step(res.Tau))
			}
			// No earlier crossing: v(t) < f for t in (0, τ).
			for _, tt := range num.Linspace(res.Tau/400, res.Tau*0.995, 200) {
				if m.Step(tt) >= f {
					t.Fatalf("b=%v f=%v: earlier crossing at %v < τ=%v", c, f, tt, res.Tau)
				}
			}
		}
	}
}

func TestDelayPaperOperatingPointFastNewton(t *testing.T) {
	// The paper reports ≤4 Newton iterations for its operating points. Our
	// solver brackets first, so allow a handful more, but it must stay small.
	for _, l := range []float64{0, 0.5, 1, 2, 3, 4.5} {
		m, err := FromStage(stage100nm(l))
		if err != nil {
			t.Fatalf("FromStage: %v", err)
		}
		res, err := m.Delay(0.5)
		if err != nil {
			t.Fatalf("l=%v: %v", l, err)
		}
		if res.Iterations > 12 {
			t.Errorf("l=%v: %d iterations", l, res.Iterations)
		}
		if res.Tau <= 0 || res.Tau > 1e-8 {
			t.Errorf("l=%v: implausible delay %v s", l, res.Tau)
		}
	}
}

func TestDelayThresholdValidation(t *testing.T) {
	m, _ := New(2, 1)
	if _, err := m.Delay(1); err == nil {
		t.Error("f=1 must be rejected")
	}
	if _, err := m.Delay(-0.1); err == nil {
		t.Error("f<0 must be rejected")
	}
	res, err := m.Delay(0)
	if err != nil || res.Tau != 0 {
		t.Errorf("f=0: %v, %v", res, err)
	}
}

func TestDelayMonotoneInThresholdProperty(t *testing.T) {
	prop := func(a, b float64) bool {
		za := 0.2 + math.Abs(math.Mod(a, 3))      // damping ratio range [0.2, 3.2)
		f1 := 0.05 + math.Abs(math.Mod(b, 1))/2.5 // in [0.05, 0.45)
		f2 := f1 + 0.3
		m, err := New(2*za, 1) // b2=1, zeta=za
		if err != nil {
			return true
		}
		r1, e1 := m.Delay(f1)
		r2, e2 := m.Delay(f2)
		return e1 == nil && e2 == nil && r2.Tau > r1.Tau
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestOvershootUndershootClosedForms(t *testing.T) {
	m, _ := New(1, 1) // zeta = 0.5
	os, tp := m.Overshoot()
	alpha := m.B1 / (2 * m.B2)
	beta := math.Sqrt(-m.Discriminant()) / (2 * m.B2)
	if math.Abs(tp-math.Pi/beta) > 1e-12 {
		t.Errorf("tPeak = %v", tp)
	}
	if math.Abs(os-math.Exp(-alpha*math.Pi/beta)) > 1e-12 {
		t.Errorf("overshoot = %v", os)
	}
	// The step response at tPeak equals 1+overshoot.
	if v := m.Step(tp); math.Abs(v-(1+os)) > 1e-9 {
		t.Errorf("v(tPeak) = %v, want %v", v, 1+os)
	}
	us, tm := m.Undershoot()
	if v := m.Step(tm); math.Abs(v-(1-us)) > 1e-9 {
		t.Errorf("v(tMin) = %v, want %v", v, 1-us)
	}
	// Peaks really are extrema.
	if math.Abs(m.StepDeriv(tp)) > 1e-9 || math.Abs(m.StepDeriv(tm)) > 1e-9 {
		t.Error("derivative at extrema not zero")
	}
	// Non-underdamped: zero overshoot.
	mo, _ := New(3, 1)
	if os, _ := mo.Overshoot(); os != 0 {
		t.Errorf("overdamped overshoot = %v", os)
	}
}

func TestLCritMakesSystemCriticallyDamped(t *testing.T) {
	// Substituting l = LCrit back into the stage must zero the discriminant.
	for _, lseed := range []float64{0.5, 2, 4} {
		st := stage100nm(lseed)
		lc := LCrit(st)
		if lc <= 0 {
			t.Fatalf("lcrit = %v, want positive", lc)
		}
		st.Line.L = lc
		m, err := FromStage(st)
		if err != nil {
			t.Fatal(err)
		}
		if d := m.Discriminant(); math.Abs(d) > 1e-9*m.B1*m.B1 {
			t.Errorf("disc at lcrit = %v (b1²=%v)", d, m.B1*m.B1)
		}
	}
}

func TestLCritIndependentOfSeedInductance(t *testing.T) {
	// Eq. (4) does not involve l; two stages differing only in l agree.
	a, b := stage100nm(0.1), stage100nm(4.9)
	if la, lb := LCrit(a), LCrit(b); math.Abs(la-lb) > 1e-18 {
		t.Errorf("LCrit depends on seed l: %v vs %v", la, lb)
	}
}

func TestLCritPaperMagnitude(t *testing.T) {
	// At RC-optimal sizing lcrit is small and positive (a few tens of
	// pH/mm), which is exactly why practical inductances (0.1..5 nH/mm)
	// push RC-sized stages underdamped. Fig. 4's "lcrit ~ l" statement
	// holds at the RLC optimum and is checked in the core package tests.
	lc := LCrit(stage100nm(0)) / tech.NHPerMM
	if lc < 1e-3 || lc > 1 {
		t.Errorf("lcrit = %v nH/mm at RC sizing: outside the plausible range", lc)
	}
}

func TestUnderdampedAtRCOptimumFor100nm(t *testing.T) {
	// Section 3.1: at RC-optimal sizing, practical l > lcrit makes the 100 nm
	// stage underdamped. Verify for l = 2 nH/mm.
	m, err := FromStage(stage100nm(2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Damping() != Underdamped {
		t.Errorf("100nm RC-optimum at 2 nH/mm: %v, want underdamped", m.Damping())
	}
}

func TestSettleTime(t *testing.T) {
	for _, c := range [][2]float64{{3, 1}, {1, 1}} {
		m, _ := New(c[0], c[1])
		ts := m.SettleTime(0.01)
		if ts <= 0 {
			t.Fatalf("settle time %v", ts)
		}
		// After the settle time the response stays within the band.
		for _, tt := range num.Linspace(ts, 3*ts, 50) {
			if d := math.Abs(m.Step(tt) - 1); d > 0.011 {
				t.Errorf("b=%v: |v-1| = %v at t=%v > band", c, d, tt)
			}
		}
	}
}

func TestZetaOmegaN(t *testing.T) {
	m, _ := New(2, 1)
	if math.Abs(m.Zeta()-1) > 1e-14 || math.Abs(m.OmegaN()-1) > 1e-14 {
		t.Errorf("zeta=%v omegaN=%v, want 1,1", m.Zeta(), m.OmegaN())
	}
}
