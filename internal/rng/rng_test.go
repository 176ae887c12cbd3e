package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions across different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child stream must not track the parent.
	matches := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("child stream tracks parent: %d matches", matches)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a, b := New(9), New(9)
	ca, cb := a.Split(), b.Split()
	for i := 0; i < 50; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatal("Split must be deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	s := New(6)
	for i := 0; i < 1000; i++ {
		v := s.IntRange(3, 5)
		if v < 3 || v > 5 {
			t.Fatalf("IntRange(3,5) = %d", v)
		}
	}
	if v := s.IntRange(4, 4); v != 4 {
		t.Fatalf("IntRange(4,4) = %d", v)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(8)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := s.Normal(20, 4)
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-20) > 0.1 {
		t.Fatalf("normal mean %v, want ~20", mean)
	}
	if math.Abs(variance-16) > 0.5 {
		t.Fatalf("normal variance %v, want ~16", variance)
	}
}

func TestTruncatedNormalIntRange(t *testing.T) {
	s := New(9)
	for i := 0; i < 20000; i++ {
		v := s.TruncatedNormalInt(20, math.Sqrt(20), 3, 100)
		if v < 3 || v > 100 {
			t.Fatalf("length %d out of [3,100]", v)
		}
	}
}

func TestTruncatedNormalIntPathological(t *testing.T) {
	// Mass almost entirely above range: must clamp, not spin.
	s := New(10)
	v := s.TruncatedNormalInt(1e9, 1, 3, 100)
	if v != 100 {
		t.Fatalf("pathological truncation = %d, want clamp to 100", v)
	}
}

func TestExpMean(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(0.5)
	}
	if mean := sum / n; math.Abs(mean-2) > 0.05 {
		t.Fatalf("Exp(0.5) mean %v, want ~2", mean)
	}
}

func TestExpNonNegative(t *testing.T) {
	f := func(seed uint32) bool {
		return New(uint64(seed)).Exp(1.5) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntRangeUniform(t *testing.T) {
	s := New(12)
	const n = 60000
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		counts[s.IntRange(3, 8)]++
	}
	if len(counts) != 6 {
		t.Fatalf("IntRange(3,8) hit %d values, want 6", len(counts))
	}
	for v, c := range counts {
		if math.Abs(float64(c)-n/6) > 0.05*n/6 {
			t.Fatalf("IntRange(3,8): value %d drawn %d times, want ~%d", v, c, n/6)
		}
	}
}

func TestTruncatedNormalIntMoments(t *testing.T) {
	// Bounds 8σ away truncate nothing: the draws are N(50, 25) rounded,
	// whose variance is 25 + 1/12.
	s := New(13)
	const n = 100000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := float64(s.TruncatedNormalInt(50, 5, 10, 90))
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-50) > 0.1 {
		t.Fatalf("truncated normal mean %v, want ~50", mean)
	}
	if math.Abs(variance-25) > 0.6 {
		t.Fatalf("truncated normal variance %v, want ~25", variance)
	}
}

func TestInvalidParametersPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"IntRange(5,4)":             func() { New(1).IntRange(5, 4) },
		"TruncatedNormalInt(lo>hi)": func() { New(1).TruncatedNormalInt(10, 1, 20, 3) },
		"Exp(0)":                    func() { New(1).Exp(0) },
		"Exp(-1)":                   func() { New(1).Exp(-1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %s", name)
				}
			}()
			fn()
		})
	}
}
