package tensor

import (
	"math"
	"testing"
)

// withKernel selects a float32 kernel for the test and restores the previous
// selection afterwards (the selection is process-wide).
func withKernel(t testing.TB, k Kernel) {
	t.Helper()
	old := ActiveKernel()
	SetKernel(k)
	t.Cleanup(func() { SetKernel(old) })
}

// sprinkleZeros plants exact zeros so the kernels' k-tail zero-skip paths
// run (random floats almost never hit 0.0 exactly).
func sprinkleZeros(m *Matrix) {
	for i := 0; i < len(m.Data); i += 7 {
		m.Data[i] = 0
	}
}

// requireBitwiseEqual fails unless every element of got has the identical
// bit pattern to want — the wide kernel's contract is exact equality, not
// closeness.
func requireBitwiseEqual(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: bit mismatch at flat index %d: %v (%#08x) vs %v (%#08x)",
				label, i,
				got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// The tentpole contract: the 8-lane wide kernel produces bit-for-bit the
// same outputs as the scalar reference kernel, across shapes that exercise
// every lane/quad/tail combination — odd rows (the paired-row remainder),
// odd k (the scalar k-tail, with planted zeros for its skip branch), and
// column counts straddling multiples of 8.
func TestWideMatchesScalarBitwise(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {1, 5, 3}, {2, 3, 9}, {3, 7, 8}, {5, 9, 17},
		{7, 8, 15}, {9, 16, 7}, {31, 33, 31}, {64, 64, 64},
		{65, 63, 66}, {129, 65, 130},
	}
	for _, s := range shapes {
		a := randMatrix(s[0], s[1], uint64(100+s[0]))
		b := randMatrix(s[1], s[2], uint64(200+s[2]))
		sprinkleZeros(a)
		want := New(s[0], s[2])
		withKernel(t, KernelScalar)
		MatMulInto(want, a, b)
		got := New(s[0], s[2])
		SetKernel(KernelWide)
		MatMulInto(got, a, b)
		requireBitwiseEqual(t, got, want, "wide vs scalar")
	}
}

// MatMulWideBlocked runs the wide kernel's cache-tiled form whatever the
// operand size, so tests can hold it to the scalar blocked kernel.
func MatMulWideBlocked(dst, a, b *Matrix) {
	checkMatMul(dst, a, b)
	matMulWideBlocked(dst, a, b, nil, 0)
}

// The blocked (cache-tiled) forms of both kernels share the same tiling
// geometry, so they must agree bitwise too.
func TestWideBlockedMatchesScalarBlockedBitwise(t *testing.T) {
	a := randMatrix(150, 90, 31)
	b := randMatrix(90, 130, 32)
	sprinkleZeros(a)
	want := New(150, 130)
	MatMulBlocked(want, a, b)
	got := New(150, 130)
	MatMulWideBlocked(got, a, b)
	requireBitwiseEqual(t, got, want, "wide blocked vs scalar blocked")
}

// A product crossing the small→blocked dispatch threshold must stay bitwise
// identical between kernel selections (b at 730² floats > matMulThreshold).
func TestWideDispatchCrossesThreshold(t *testing.T) {
	a := randMatrix(130, 730, 41)
	b := randMatrix(730, 730, 42)
	if b.Rows*b.Cols < matMulThreshold {
		t.Fatalf("test operands below threshold: %d", b.Rows*b.Cols)
	}
	sprinkleZeros(a)
	withKernel(t, KernelScalar)
	want := MatMul(a, b)
	SetKernel(KernelWide)
	got := MatMul(a, b)
	requireBitwiseEqual(t, got, want, "dispatch at threshold")
}

// The fused dense-layer pass MatMulBiasInto equals MatMulInto, AddRowVector
// and ReLU run one after the other, bit for bit (any NaN matching any NaN):
// at GEMM heights 1–9 and 28 (every row split into 4-, 2- and 1-row tiles),
// k ∈ 1…9 (every k tail, where a single row skips zero multipliers and
// paired rows do not) and 128 and 512, widths that are not a multiple of 8,
// strided operands and destination, ±0, denormals, ±Inf and NaN in a, b and
// the bias (small k; at large k they would turn every output into NaN), one
// product past the blocked threshold, under each lane body and KernelScalar.
func TestMatMulBiasMatchesUnfused(t *testing.T) {
	vals := laneValues(7)
	special := func(m *Matrix) *Matrix {
		for i := range m.Data {
			m.Data[i] = vals.next()
		}
		return m
	}
	type tc struct {
		a, b *Matrix
		bias []float32
	}
	var cases []tc
	for _, h := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 28} {
		for _, k := range tileKs {
			for _, p := range []int{5, 13, 37} {
				var a, b *Matrix
				if k < 128 {
					a, b = special(New(h, k+2)), special(New(k, p+3))
				} else {
					a, b = randMatrix(h, k+2, uint64(h*k)), randMatrix(k, p+3, uint64(k+p))
					sprinkleZeros(a)
				}
				cases = append(cases, tc{a.ColView(1, 1+k), b.ColView(2, 2+p), special(New(1, p)).Row(0)})
			}
		}
	}
	big := randMatrix(600, 900, 9) // past matMulThreshold: the blocked k-blocks
	cases = append(cases, tc{randMatrix(9, 600, 8), big, special(New(1, 900)).Row(0)})

	want := make([][2]*Matrix, len(cases))
	withKernel(t, KernelScalar)
	for i, c := range cases {
		for r, relu := range []bool{false, true} {
			w := New(c.a.Rows, c.b.Cols)
			MatMulInto(w, c.a, c.b)
			AddRowVector(w, c.bias)
			if relu {
				ReLU(w)
			}
			want[i][r] = w
		}
	}
	run := func(name string) {
		for i, c := range cases {
			for r, relu := range []bool{false, true} {
				got := New(c.a.Rows, c.b.Cols+3).ColView(1, 1+c.b.Cols)
				MatMulBiasInto(got, c.a, c.b, c.bias, relu)
				for row := 0; row < got.Rows; row++ {
					for j, v := range got.Row(row) {
						if w := want[i][r].At(row, j); !sameFloat(v, w) {
							t.Fatalf("%s %dx%dx%d relu=%v: (%d,%d) = %v (%#08x), unfused %v (%#08x)", name,
								c.a.Rows, c.a.Cols, c.b.Cols, relu, row, j, v, math.Float32bits(v), w, math.Float32bits(w))
						}
					}
				}
			}
		}
	}
	run("scalar")
	SetKernel(KernelWide)
	for _, body := range laneBodies() {
		if body == "go" {
			useGoLanes(t)
		}
		run(body)
	}
}

func TestParseKernel(t *testing.T) {
	cases := []struct {
		in   string
		want Kernel
		ok   bool
	}{
		{"wide", KernelWide, true},
		{"int8", 0, false}, // int8 left the serving stack; nothing selects it
		{"scalar", KernelScalar, true},
		{"avx512", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseKernel(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Fatalf("ParseKernel(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Fatalf("ParseKernel(%q) should fail", c.in)
		}
	}
	if KernelWide.String() != "wide" || KernelScalar.String() != "scalar" {
		t.Fatalf("Kernel.String: %q / %q", KernelWide, KernelScalar)
	}
}

// Dispatch counters tick once per GEMM on the path that actually ran it; a
// fused bias+ReLU pass is one GEMM.
func TestKernelCounters(t *testing.T) {
	a := randMatrix(8, 8, 51)
	b := randMatrix(8, 8, 52)
	q := QuantizeMatrix(b)
	dst := New(8, 8)

	withKernel(t, KernelWide)
	before := KernelCounters()
	MatMulInto(dst, a, b)
	MatMulBiasInto(dst, a, b, make([]float32, 8), true)
	SetKernel(KernelScalar)
	MatMulInto(dst, a, b)
	MatMulQuantizedInto(dst, a, q, nil)
	after := KernelCounters()
	got := KernelCounts{
		Scalar: after.Scalar - before.Scalar,
		Wide:   after.Wide - before.Wide,
		Int8:   after.Int8 - before.Int8,
		ISA:    after.ISA,
	}
	want := KernelCounts{Scalar: 1, Wide: 2, Int8: 1, ISA: laneISA()}
	if got != want {
		t.Fatalf("counters = %+v, want %+v", got, want)
	}
}

// The wide kernel inherits the float32 path's zero-allocation guarantee on
// both sides of the blocked threshold.
func TestWideKernelZeroAllocs(t *testing.T) {
	serialKernels(t)
	withKernel(t, KernelWide)
	a := randMatrix(64, 64, 61)
	b := randMatrix(64, 64, 62)
	dst := New(64, 64)
	allocs := testing.AllocsPerRun(20, func() { MatMulInto(dst, a, b) })
	if allocs != 0 {
		t.Fatalf("wide small kernel allocated %g times per run", allocs)
	}
	la := randMatrix(192, 730, 63)
	lb := randMatrix(730, 730, 64) // ≥ matMulThreshold floats
	ldst := New(192, 730)
	allocs = testing.AllocsPerRun(5, func() { MatMulInto(ldst, la, lb) })
	if allocs != 0 {
		t.Fatalf("wide blocked kernel allocated %g times per run", allocs)
	}
	bias, lbias := make([]float32, 64), make([]float32, 730)
	allocs = testing.AllocsPerRun(20, func() { MatMulBiasInto(dst, a, b, bias, true) })
	if allocs != 0 {
		t.Fatalf("fused bias+ReLU pass allocated %g times per run", allocs)
	}
	allocs = testing.AllocsPerRun(5, func() { MatMulBiasInto(ldst, la, lb, lbias, true) })
	if allocs != 0 {
		t.Fatalf("blocked fused bias+ReLU pass allocated %g times per run", allocs)
	}
}
