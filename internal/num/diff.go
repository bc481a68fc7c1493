package num

import "math"

// fdScale returns a sensible absolute step for differencing around x: a
// relative step when x is away from zero, otherwise the relative step itself.
func fdScale(x, rel float64) float64 {
	if x != 0 {
		return rel * math.Abs(x)
	}
	return rel
}

// CentralDiff estimates f'(x) with a central difference using a relative
// step. It is used in tests as an oracle against analytic derivatives.
func CentralDiff(f func(float64) float64, x float64) float64 {
	h := fdScale(x, 1e-6)
	return (f(x+h) - f(x-h)) / (2 * h)
}

// CentralDiff2 estimates f”(x) with a second-order central difference.
func CentralDiff2(f func(float64) float64, x float64) float64 {
	h := fdScale(x, 1e-4)
	return (f(x+h) - 2*f(x) + f(x-h)) / (h * h)
}

// Richardson estimates f'(x) by Richardson extrapolation of central
// differences, giving roughly two extra orders of accuracy over CentralDiff
// at the cost of two more evaluations.
func Richardson(f func(float64) float64, x float64) float64 {
	h := fdScale(x, 1e-4)
	d1 := (f(x+h) - f(x-h)) / (2 * h)
	d2 := (f(x+h/2) - f(x-h/2)) / h
	return (4*d2 - d1) / 3
}

// HessianPosDef2 reports whether the central-difference Hessian of f at
// (x, y), taken with step d in both coordinates, is positive definite: the
// second-order test that tells a local minimum from a saddle or a maximum
// among stationary points. A non-finite probe fails the test.
func HessianPosDef2(f func(x, y float64) float64, x, y, d float64) bool {
	v := [9]float64{
		f(x, y),
		f(x+d, y), f(x-d, y),
		f(x, y+d), f(x, y-d),
		f(x+d, y+d), f(x+d, y-d), f(x-d, y+d), f(x-d, y-d),
	}
	for _, fv := range v {
		if math.IsNaN(fv) || math.IsInf(fv, 0) {
			return false
		}
	}
	hxx := (v[1] - 2*v[0] + v[2]) / (d * d)
	hyy := (v[3] - 2*v[0] + v[4]) / (d * d)
	hxy := (v[5] - v[6] - v[7] + v[8]) / (4 * d * d)
	return hxx > 0 && hyy > 0 && hxx*hyy > hxy*hxy
}
