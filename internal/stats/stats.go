// Package stats provides the small statistics toolkit used across TCB's
// experiments: running moments, percentile estimation over recorded samples,
// and ordinary least squares for calibrating the analytic cost model against
// measured engine times.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates count, mean and variance in one pass (Welford).
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records a sample.
func (r *Running) Add(x float64) {
	if r.n == 0 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Mean returns the sample mean (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g", r.n, r.Mean(), r.Std(), r.min, r.max)
}

// Sample stores raw observations for exact percentile queries.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records x.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of recorded observations.
func (s *Sample) N() int { return len(s.xs) }

// Percentile returns the p-th percentile (p in [0, 100]) by linear
// interpolation between closest ranks. It panics on an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		panic("stats: Percentile of empty sample")
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// LinearFit returns slope and intercept of the least-squares line through
// (x, y) pairs. It panics when fewer than 2 points are given or when all x
// are identical.
func LinearFit(xs, ys []float64) (slope, intercept float64) {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: LinearFit needs >= 2 paired points")
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i, x := range xs {
		sx += x
		sy += ys[i]
		sxx += x * x
		sxy += x * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		panic("stats: LinearFit with constant x")
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept
}

// LinearFit2 fits y = a·x1 + b·x2 + c by ordinary least squares over the
// paired samples (normal equations, 3×3 Gaussian elimination). It panics
// with fewer than 3 points or a singular design (e.g. x1 and x2 collinear).
func LinearFit2(x1s, x2s, ys []float64) (a, b, c float64) {
	n := len(ys)
	if len(x1s) != n || len(x2s) != n || n < 3 {
		panic("stats: LinearFit2 needs >= 3 paired points")
	}
	// Accumulate the normal equations MᵀM β = Mᵀy for M = [x1 x2 1].
	var s11, s12, s1, s22, s2, sn float64
	var t1, t2, t0 float64
	for i := 0; i < n; i++ {
		x1, x2, y := x1s[i], x2s[i], ys[i]
		s11 += x1 * x1
		s12 += x1 * x2
		s1 += x1
		s22 += x2 * x2
		s2 += x2
		t1 += x1 * y
		t2 += x2 * y
		t0 += y
	}
	sn = float64(n)
	m := [3][4]float64{
		{s11, s12, s1, t1},
		{s12, s22, s2, t2},
		{s1, s2, sn, t0},
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < 3; col++ {
		pivot := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			panic("stats: LinearFit2 singular design matrix")
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for k := col; k < 4; k++ {
				m[r][k] -= f * m[col][k]
			}
		}
	}
	return m[0][3] / m[0][0], m[1][3] / m[1][1], m[2][3] / m[2][2]
}
