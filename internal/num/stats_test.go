package num

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunningSine(t *testing.T) {
	r := NewRunning()
	n := 20000
	for i := 0; i <= n; i++ {
		time := 2 * math.Pi * float64(i) / float64(n)
		r.Add(time, math.Sin(time))
	}
	if math.Abs(r.Mean()) > 1e-6 {
		t.Errorf("mean of sine over full period = %v, want 0", r.Mean())
	}
	if math.Abs(r.RMS()-1/math.Sqrt2) > 1e-5 {
		t.Errorf("rms = %v, want %v", r.RMS(), 1/math.Sqrt2)
	}
	if math.Abs(r.Peak()-1) > 1e-6 {
		t.Errorf("peak = %v, want 1", r.Peak())
	}
	if math.Abs(r.Max()-1) > 1e-6 || math.Abs(r.Min()+1) > 1e-6 {
		t.Errorf("extrema = [%v, %v], want [-1, 1]", r.Min(), r.Max())
	}
}

func TestRunningConstant(t *testing.T) {
	r := NewRunning()
	for i := 0; i < 10; i++ {
		r.Add(float64(i), 3.5)
	}
	if r.Mean() != 3.5 || math.Abs(r.RMS()-3.5) > 1e-12 {
		t.Errorf("constant signal: mean=%v rms=%v", r.Mean(), r.RMS())
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	r := NewRunning()
	if r.Mean() != 0 || r.RMS() != 0 {
		t.Error("empty accumulator must report zeros")
	}
	r.Add(0, 5)
	if r.Mean() != 0 || r.Peak() != 5 {
		t.Errorf("single sample: mean=%v peak=%v", r.Mean(), r.Peak())
	}
}

func TestRunningRMSAtLeastMeanProperty(t *testing.T) {
	// Property: rms >= |mean| for any sample sequence.
	prop := func(vals []float64) bool {
		if len(vals) < 2 {
			return true
		}
		r := NewRunning()
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			v = math.Mod(v, 1e6)
			r.Add(float64(i), v)
		}
		return r.RMS() >= math.Abs(r.Mean())-1e-9*math.Abs(r.Mean())-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLinspace(t *testing.T) {
	pts := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(pts[i]-want[i]) > 1e-15 {
			t.Errorf("pts[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("n=1: got %v", got)
	}
}

func TestLogspace(t *testing.T) {
	pts := Logspace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if math.Abs(pts[i]-want[i])/want[i] > 1e-12 {
			t.Errorf("pts[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestDiffOracles(t *testing.T) {
	f := math.Exp
	if d := CentralDiff(f, 1); math.Abs(d-math.E) > 1e-6 {
		t.Errorf("CentralDiff(exp,1) = %v", d)
	}
	if d := Richardson(f, 1); math.Abs(d-math.E) > 1e-8 {
		t.Errorf("Richardson(exp,1) = %v", d)
	}
	if d := CentralDiff2(f, 0); math.Abs(d-1) > 1e-5 {
		t.Errorf("CentralDiff2(exp,0) = %v", d)
	}
}

func TestHessianPosDef2(t *testing.T) {
	for _, c := range []struct {
		name string
		f    func(x, y float64) float64
		want bool
	}{
		{"minimum", func(x, y float64) float64 { return math.Exp(x) - x + 2*y*y + x*y }, true},
		{"saddle", func(x, y float64) float64 { return x*x - y*y }, false},
		{"maximum", func(x, y float64) float64 { return -x*x - y*y }, false},
		// Both diagonal curvatures positive, but the cross term makes the
		// Hessian indefinite (det = 4 − 9 < 0).
		{"coupled saddle", func(x, y float64) float64 { return x*x + y*y + 3*x*y }, false},
		{"infeasible probe", func(x, y float64) float64 {
			if x > 0 {
				return math.Inf(1)
			}
			return x*x + y*y
		}, false},
	} {
		if got := HessianPosDef2(c.f, 0, 0, 1e-3); got != c.want {
			t.Errorf("%s: HessianPosDef2 = %v, want %v", c.name, got, c.want)
		}
	}
}
