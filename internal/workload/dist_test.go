package workload

import (
	"math"
	"testing"
	"testing/quick"

	"tcb/internal/rng"
)

func sampleMany(t *testing.T, d LengthDist, n int, seed uint64) []int {
	t.Helper()
	src := rng.New(seed)
	out := make([]int, n)
	for i := range out {
		out[i] = d.Sample(src)
	}
	return out
}

func moments(xs []int) (mean, variance float64) {
	var s, sq float64
	for _, x := range xs {
		s += float64(x)
		sq += float64(x) * float64(x)
	}
	mean = s / float64(len(xs))
	variance = sq/float64(len(xs)) - mean*mean
	return mean, variance
}

func TestNormalLengthsMoments(t *testing.T) {
	d := NormalLengths{Mean: 20, Variance: 20, Min: 3, Max: 100}
	xs := sampleMany(t, d, 50000, 1)
	mean, variance := moments(xs)
	if math.Abs(mean-20) > 0.5 || math.Abs(variance-20) > 3 {
		t.Fatalf("moments = %v/%v", mean, variance)
	}
	if d.Name() == "" {
		t.Fatal("name required")
	}
}

func TestBimodalLengthsHasTwoModes(t *testing.T) {
	d := BimodalLengths{
		Low:          NormalLengths{Mean: 10, Variance: 4, Min: 3, Max: 100},
		High:         NormalLengths{Mean: 80, Variance: 16, Min: 3, Max: 100},
		HighFraction: 0.3,
	}
	xs := sampleMany(t, d, 50000, 2)
	var low, high int
	for _, x := range xs {
		switch {
		case x < 30:
			low++
		case x > 60:
			high++
		}
	}
	fracHigh := float64(high) / float64(len(xs))
	if math.Abs(fracHigh-0.3) > 0.02 {
		t.Fatalf("high fraction %v, want ~0.3", fracHigh)
	}
	if low == 0 || high == 0 {
		t.Fatal("both modes must appear")
	}
	// Variance of the mixture must dwarf either component's.
	_, variance := moments(xs)
	if variance < 300 {
		t.Fatalf("mixture variance %v too low", variance)
	}
	if d.Name() == "" {
		t.Fatal("name required")
	}
}

func TestLogNormalLengthsTail(t *testing.T) {
	d := LogNormalLengths{Mu: 3, Sigma: 0.6, Min: 3, Max: 400}
	xs := sampleMany(t, d, 50000, 3)
	mean, _ := moments(xs)
	// E[lognormal(3, .6)] = exp(3 + .18) ≈ 24.
	if math.Abs(mean-24) > 2 {
		t.Fatalf("mean %v, want ~24", mean)
	}
	// Heavy tail: some samples well above 3× the mean.
	tail := 0
	for _, x := range xs {
		if float64(x) > 3*mean {
			tail++
		}
	}
	if tail == 0 {
		t.Fatal("lognormal should produce tail samples")
	}
	for _, x := range xs {
		if x < 3 || x > 400 {
			t.Fatalf("clamping failed: %d", x)
		}
	}
}

func TestGenerateWithDist(t *testing.T) {
	spec := PaperSpec(200, 3, 5)
	d := BimodalLengths{
		Low:          NormalLengths{Mean: 10, Variance: 4, Min: 3, Max: 100},
		High:         NormalLengths{Mean: 80, Variance: 16, Min: 3, Max: 100},
		HighFraction: 0.25,
	}
	reqs, err := GenerateWithDist(spec, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) == 0 {
		t.Fatal("no requests generated")
	}
	for _, r := range reqs {
		if r.Len < spec.MinLen || r.Len > spec.MaxLen {
			t.Fatalf("length %d escapes spec bounds", r.Len)
		}
		if r.Validate() != nil {
			t.Fatalf("invalid request %+v", r)
		}
	}
	// Determinism.
	again, err := GenerateWithDist(spec, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(reqs) || *again[0] != *reqs[0] {
		t.Fatal("GenerateWithDist not deterministic")
	}
}

func TestGenerateWithDistErrors(t *testing.T) {
	if _, err := GenerateWithDist(Spec{}, NormalLengths{Mean: 1, Variance: 1, Min: 1, Max: 2}); err == nil {
		t.Fatal("invalid spec should fail")
	}
	if _, err := GenerateWithDist(PaperSpec(10, 1, 1), nil); err == nil {
		t.Fatal("nil dist should fail")
	}
}

// Property: every distribution respects its own clamping bounds.
func TestDistBoundsProperty(t *testing.T) {
	f := func(seed uint32) bool {
		src := rng.New(uint64(seed))
		dists := []LengthDist{
			NormalLengths{Mean: 20, Variance: 20, Min: 3, Max: 100},
			LogNormalLengths{Mu: 3, Sigma: 1, Min: 3, Max: 100},
			BimodalLengths{
				Low:          NormalLengths{Mean: 10, Variance: 4, Min: 3, Max: 100},
				High:         NormalLengths{Mean: 90, Variance: 9, Min: 3, Max: 100},
				HighFraction: 0.5,
			},
		}
		for _, d := range dists {
			for i := 0; i < 50; i++ {
				v := d.Sample(src)
				if v < 3 || v > 100 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
