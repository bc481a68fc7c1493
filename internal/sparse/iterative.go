package sparse

import (
	"fmt"
	"math"

	"rlcint/internal/runctl"
)

// ErrIterativeStalled is returned when an iterative solve fails to reach the
// requested tolerance within its iteration budget, or breaks down (loss of
// positive-definiteness in CG, a zero Arnoldi vector in GMRES). The Engine
// treats it as a signal to fall back to the direct solver.
var ErrIterativeStalled = fmt.Errorf("sparse: iterative solver stalled")

// preconditioner is what GMRES applies (ilu0): an allocation-free
// z ≈ A⁻¹r. CG applies the AMG V-cycle, its only preconditioner, directly.
type preconditioner interface {
	Apply(z, r []float64)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func norm2(a []float64) float64 { return math.Sqrt(dot(a, a)) }

// axpy computes y += alpha*x.
func axpy(y []float64, alpha float64, x []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

// cgWork holds the preallocated vectors of a preconditioned
// conjugate-gradient solve.
type cgWork struct {
	r, z, p, q []float64
}

func newCGWork(n int) *cgWork {
	return &cgWork{
		r: make([]float64, n), z: make([]float64, n),
		p: make([]float64, n), q: make([]float64, n),
	}
}

// solve runs preconditioned CG on a·x = b from x = 0, stopping when
// ‖r‖₂ ≤ tol·‖b‖₂ or maxIter iterations have run. It returns the iteration
// count and final relative residual; a breakdown (the matrix or the
// preconditioner is not positive definite on the Krylov space) or running
// out of iterations reports ErrIterativeStalled. ctl is ticked once per
// iteration, and a stop returns its error. Allocation-free.
func (w *cgWork) solve(a *CSC, m *amg, x, b []float64, tol float64, maxIter int, ctl *runctl.Controller) (int, float64, error) {
	n := a.N
	for i := 0; i < n; i++ {
		x[i] = 0
	}
	bnorm := norm2(b)
	if bnorm == 0 {
		return 0, 0, nil
	}
	copy(w.r, b)
	m.Apply(w.z, w.r)
	copy(w.p, w.z)
	rz := dot(w.r, w.z)
	rn := bnorm
	for it := 1; it <= maxIter; it++ {
		if err := ctl.Tick("sparse.cg"); err != nil {
			return it - 1, rn / bnorm, err
		}
		a.MulVecInto(w.q, w.p)
		pq := dot(w.p, w.q)
		if !(pq > 0) {
			return it, rn / bnorm, fmt.Errorf("%w: CG breakdown pᵀAp=%g at iteration %d", ErrIterativeStalled, pq, it)
		}
		alpha := rz / pq
		axpy(x, alpha, w.p)
		axpy(w.r, -alpha, w.q)
		rn = norm2(w.r)
		if rn <= tol*bnorm {
			return it, rn / bnorm, nil
		}
		m.Apply(w.z, w.r)
		rzNew := dot(w.r, w.z)
		if !(rzNew > 0) || math.IsInf(rzNew, 0) {
			return it, rn / bnorm, fmt.Errorf("%w: CG breakdown rᵀz=%g at iteration %d", ErrIterativeStalled, rzNew, it)
		}
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			w.p[i] = w.z[i] + beta*w.p[i]
		}
	}
	return maxIter, rn / bnorm, fmt.Errorf("%w: CG did not converge in %d iterations (relres %.3g)", ErrIterativeStalled, maxIter, rn/bnorm)
}

// gmresWork holds the preallocated Krylov basis and Hessenberg factorization
// state of a restarted GMRES solve with restart length m.
type gmresWork struct {
	m      int
	v      [][]float64 // m+1 basis vectors of length n
	h      []float64   // Hessenberg column-major: h[i + k*(m+1)], i ≤ k+1
	cs, sn []float64   // Givens rotations
	g      []float64   // rotated residual vector, len m+1
	y      []float64   // triangular solve result
	tmp    []float64   // M⁻¹ scratch
	r      []float64
}

func newGMRESWork(n, m int) *gmresWork {
	w := &gmresWork{
		m:  m,
		v:  make([][]float64, m+1),
		h:  make([]float64, (m+1)*m),
		cs: make([]float64, m), sn: make([]float64, m),
		g: make([]float64, m+1), y: make([]float64, m),
		tmp: make([]float64, n), r: make([]float64, n),
	}
	for i := range w.v {
		w.v[i] = make([]float64, n)
	}
	return w
}

// solve runs right-preconditioned restarted GMRES(m) on a·x = b from x = 0:
// the Krylov space is built for A·M⁻¹ so the recurrence's residual is the
// true residual and the stopping test needs no extra matvec. Stops when
// ‖r‖₂ ≤ tol·‖b‖₂ or after maxIter total inner iterations; both stagnation
// and a non-finite Arnoldi norm report ErrIterativeStalled. Allocation-free.
func (w *gmresWork) solve(a *CSC, mp preconditioner, x, b []float64, tol float64, maxIter int) (int, float64, error) {
	n := a.N
	for i := 0; i < n; i++ {
		x[i] = 0
	}
	bnorm := norm2(b)
	if bnorm == 0 {
		return 0, 0, nil
	}
	m := w.m
	total := 0
	relres := 1.0
	for total < maxIter {
		// r = b - A·x (x is zero on the first cycle but not after restarts).
		a.MulVecInto(w.r, x)
		for i := 0; i < n; i++ {
			w.r[i] = b[i] - w.r[i]
		}
		beta := norm2(w.r)
		relres = beta / bnorm
		if beta <= tol*bnorm {
			return total, relres, nil
		}
		inv := 1 / beta
		for i := 0; i < n; i++ {
			w.v[0][i] = w.r[i] * inv
		}
		for i := range w.g {
			w.g[i] = 0
		}
		w.g[0] = beta
		k := 0
		for ; k < m && total < maxIter; k++ {
			total++
			// Arnoldi step on A·M⁻¹ with modified Gram–Schmidt.
			mp.Apply(w.tmp, w.v[k])
			vk1 := w.v[k+1]
			a.MulVecInto(vk1, w.tmp)
			hc := w.h[k*(m+1):]
			for i := 0; i <= k; i++ {
				hik := dot(vk1, w.v[i])
				hc[i] = hik
				axpy(vk1, -hik, w.v[i])
			}
			hk1 := norm2(vk1)
			if math.IsNaN(hk1) || math.IsInf(hk1, 0) {
				return total, relres, fmt.Errorf("%w: GMRES Arnoldi norm %g at iteration %d", ErrIterativeStalled, hk1, total)
			}
			hc[k+1] = hk1
			if hk1 > 0 {
				inv := 1 / hk1
				for i := 0; i < n; i++ {
					vk1[i] *= inv
				}
			}
			// Apply the stored Givens rotations, then generate a new one to
			// zero the subdiagonal.
			for i := 0; i < k; i++ {
				t := w.cs[i]*hc[i] + w.sn[i]*hc[i+1]
				hc[i+1] = -w.sn[i]*hc[i] + w.cs[i]*hc[i+1]
				hc[i] = t
			}
			denom := math.Hypot(hc[k], hc[k+1])
			if denom == 0 {
				w.cs[k], w.sn[k] = 1, 0
			} else {
				w.cs[k], w.sn[k] = hc[k]/denom, hc[k+1]/denom
			}
			hc[k] = w.cs[k]*hc[k] + w.sn[k]*hc[k+1]
			hc[k+1] = 0
			w.g[k+1] = -w.sn[k] * w.g[k]
			w.g[k] *= w.cs[k]
			relres = math.Abs(w.g[k+1]) / bnorm
			if relres <= tol || hk1 == 0 {
				k++
				break
			}
		}
		// Back-substitute H·y = g and accumulate x += M⁻¹·(V·y).
		for i := k - 1; i >= 0; i-- {
			s := w.g[i]
			for j := i + 1; j < k; j++ {
				s -= w.h[i+j*(m+1)] * w.y[j]
			}
			w.y[i] = s / w.h[i+i*(m+1)]
		}
		for i := 0; i < n; i++ {
			w.r[i] = 0
		}
		for j := 0; j < k; j++ {
			axpy(w.r, w.y[j], w.v[j])
		}
		mp.Apply(w.tmp, w.r)
		axpy(x, 1, w.tmp)
		if relres <= tol {
			// Recompute the true residual once: floating-point drift across
			// restarts can make the recurrence optimistic.
			a.MulVecInto(w.r, x)
			for i := 0; i < n; i++ {
				w.r[i] = b[i] - w.r[i]
			}
			relres = norm2(w.r) / bnorm
			if relres <= 10*tol {
				return total, relres, nil
			}
		}
	}
	return total, relres, fmt.Errorf("%w: GMRES did not converge in %d iterations (relres %.3g)", ErrIterativeStalled, maxIter, relres)
}
