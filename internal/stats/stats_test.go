package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d, want 8", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", r.Mean())
	}
	// Unbiased sample variance of the classic dataset is 32/7.
	if math.Abs(r.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("Var = %v, want %v", r.Var(), 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", r.Min(), r.Max())
	}
	if math.Abs(r.Sum()-40) > 1e-12 {
		t.Fatalf("Sum = %v, want 40", r.Sum())
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.N() != 0 {
		t.Fatal("empty Running should be all zero")
	}
	r.Add(3)
	if r.Var() != 0 {
		t.Fatalf("single-sample Var = %v, want 0", r.Var())
	}
	if r.Mean() != 3 || r.Min() != 3 || r.Max() != 3 {
		t.Fatal("single-sample stats wrong")
	}
}

func TestRunningMatchesDirect(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		var r Running
		var sum float64
		for _, x := range xs {
			r.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var sq float64
		for _, x := range xs {
			sq += (x - mean) * (x - mean)
		}
		variance := sq / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(mean))
		return math.Abs(r.Mean()-mean) < 1e-6*scale &&
			math.Abs(r.Var()-variance) < 1e-4*math.Max(1, variance)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunningStdAndString(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if want := math.Sqrt(32.0 / 7.0); math.Abs(r.Std()-want) > 1e-12 {
		t.Fatalf("Std = %v, want %v", r.Std(), want)
	}
	if got, want := r.String(), "n=8 mean=5 std=2.138 min=2 max=9"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestSampleN(t *testing.T) {
	var s Sample
	if s.N() != 0 {
		t.Fatalf("empty N = %d", s.N())
	}
	for _, x := range []float64{3, 1, 2} {
		s.Add(x)
	}
	s.Percentile(50) // sorting in place must not change the count
	s.Add(4)
	if s.N() != 4 {
		t.Fatalf("N = %d, want 4", s.N())
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("P0 = %v, want 1", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Fatalf("P100 = %v, want 100", p)
	}
	if p := s.Percentile(50); math.Abs(p-50.5) > 1e-9 {
		t.Fatalf("P50 = %v, want 50.5", p)
	}
	if p := s.Percentile(99); math.Abs(p-99.01) > 1e-9 {
		t.Fatalf("P99 = %v, want 99.01", p)
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	var s Sample
	for _, x := range []float64{5, 1, 4, 2, 3} {
		s.Add(x)
	}
	if p := s.Percentile(50); p != 3 {
		t.Fatalf("median = %v, want 3", p)
	}
	s.Add(0) // adding after a query must re-sort
	if p := s.Percentile(0); p != 0 {
		t.Fatalf("min after add = %v, want 0", p)
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty sample")
		}
	}()
	var s Sample
	s.Percentile(50)
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	slope, intercept := LinearFit(xs, ys)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-3) > 1e-12 {
		t.Fatalf("fit = %v, %v; want 2, 3", slope, intercept)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := []float64{1.1, 2.9, 5.2, 6.8, 9.1, 10.9} // ~ y = 2x + 1
	slope, intercept := LinearFit(xs, ys)
	if math.Abs(slope-2) > 0.1 || math.Abs(intercept-1) > 0.3 {
		t.Fatalf("fit = %v, %v; want ~2, ~1", slope, intercept)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	for _, tc := range []struct{ xs, ys []float64 }{
		{[]float64{1}, []float64{1}},
		{[]float64{1, 1}, []float64{1, 2}},
		{[]float64{1, 2}, []float64{1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", tc)
				}
			}()
			LinearFit(tc.xs, tc.ys)
		}()
	}
}

func TestLinearFit2Exact(t *testing.T) {
	// y = 3·x1 − 2·x2 + 7 over a non-degenerate design.
	x1 := []float64{1, 2, 3, 4, 5, 1}
	x2 := []float64{2, 1, 5, 3, 2, 7}
	y := make([]float64, len(x1))
	for i := range y {
		y[i] = 3*x1[i] - 2*x2[i] + 7
	}
	a, b, c := LinearFit2(x1, x2, y)
	if math.Abs(a-3) > 1e-9 || math.Abs(b+2) > 1e-9 || math.Abs(c-7) > 1e-9 {
		t.Fatalf("fit = %v, %v, %v; want 3, -2, 7", a, b, c)
	}
}

func TestLinearFit2Degenerate(t *testing.T) {
	for _, tc := range []struct{ x1, x2, y []float64 }{
		{[]float64{1, 2}, []float64{1, 2}, []float64{1, 2}},          // too few
		{[]float64{1, 2, 3}, []float64{2, 4, 6}, []float64{1, 2, 3}}, // collinear
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", tc)
				}
			}()
			LinearFit2(tc.x1, tc.x2, tc.y)
		}()
	}
}

// N returns the number of samples recorded.
func (r *Running) N() int { return r.n }

// Min returns the smallest sample (0 when empty).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample (0 when empty).
func (r *Running) Max() float64 { return r.max }

// Sum returns n·mean.
func (r *Running) Sum() float64 { return r.mean * float64(r.n) }
