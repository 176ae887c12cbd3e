package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestFromSliceAliases(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	m := FromSlice(2, 2, data)
	m.Set(0, 1, 9)
	if data[1] != 9 {
		t.Fatal("FromSlice should alias the provided slice")
	}
}

func TestFromSliceBadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched length")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestCloneIsDeep(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestRowAliases(t *testing.T) {
	m := New(3, 2)
	r := m.Row(1)
	r[0] = 42
	if m.At(1, 0) != 42 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestSliceVsView(t *testing.T) {
	m := New(4, 2)
	for i := range m.Data {
		m.Data[i] = float32(i)
	}
	s := m.Slice(1, 3)
	v := m.View(1, 3)
	if s.Rows != 2 || v.Rows != 2 {
		t.Fatalf("rows = %d/%d, want 2/2", s.Rows, v.Rows)
	}
	m.Set(1, 0, -1)
	if v.At(0, 0) != -1 {
		t.Fatal("View should observe parent mutation")
	}
	if s.At(0, 0) == -1 {
		t.Fatal("Slice should be an independent copy")
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	for _, fn := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.Row(2) },
		func() { m.Slice(1, 3) },
		func() { m.View(-1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on out-of-range access")
				}
			}()
			fn()
		}()
	}
}

func TestEqualAndAllClose(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{1, 2, 3.000003})
	if a.Equal(b) {
		t.Fatal("Equal should be exact")
	}
	if !a.AllClose(b, 1e-5) {
		t.Fatal("AllClose should accept tiny differences")
	}
	c := FromSlice(3, 1, []float32{1, 2, 3})
	if a.Equal(c) || a.AllClose(c, 1) {
		t.Fatal("shape mismatch must compare unequal")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{1, 0, 3})
	if d := a.MaxAbsDiff(b); d != 2 {
		t.Fatalf("MaxAbsDiff = %v, want 2", d)
	}
}

func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float32
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

func randMatrix(rows, cols int, seed uint64) *Matrix {
	m := New(rows, cols)
	state := seed
	for i := range m.Data {
		state = state*6364136223846793005 + 1442695040888963407
		m.Data[i] = float32(int64(state>>33))/float32(1<<30) - 1
	}
	return m
}

func TestMatMulMatchesNaive(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {33, 17, 21}, {64, 64, 64}} {
		a := randMatrix(dims[0], dims[1], 1)
		b := randMatrix(dims[1], dims[2], 2)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !got.AllClose(want, 1e-4) {
			t.Fatalf("MatMul %v mismatch: max diff %g", dims, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulTMatchesTranspose(t *testing.T) {
	for _, dims := range [][3]int{{2, 3, 4}, {9, 6, 5}, {31, 8, 31}} {
		a := randMatrix(dims[0], dims[1], 3)
		b := randMatrix(dims[2], dims[1], 4)
		got := MatMulT(a, b)
		want := MatMul(a, Transpose(b))
		if !got.AllClose(want, 1e-4) {
			t.Fatalf("MatMulT %v mismatch: max diff %g", dims, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a, b := New(2, 3), New(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner dim mismatch")
		}
	}()
	MatMul(a, b)
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	tr := Transpose(m)
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d, want 3x2", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("transpose values wrong: %v", tr)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(rows, cols uint8) bool {
		r, c := int(rows%10)+1, int(cols%10)+1
		m := randMatrix(r, c, uint64(rows)*31+uint64(cols))
		return Transpose(Transpose(m)).Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddAndAddInPlace(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{10, 20, 30})
	sum := Add(a, b)
	if sum.At(0, 2) != 33 {
		t.Fatalf("Add result wrong: %v", sum)
	}
	if a.At(0, 0) != 1 {
		t.Fatal("Add must not mutate its operands")
	}
	AddInPlace(a, b)
	if a.At(0, 1) != 22 {
		t.Fatalf("AddInPlace result wrong: %v", a)
	}
}

func TestAddRowVector(t *testing.T) {
	m := New(2, 3)
	AddRowVector(m, []float32{1, 2, 3})
	if m.At(0, 2) != 3 || m.At(1, 0) != 1 {
		t.Fatalf("AddRowVector wrong: %v", m)
	}
}

func TestScale(t *testing.T) {
	m := FromSlice(1, 2, []float32{2, -4})
	Scale(m, 0.5)
	if m.At(0, 0) != 1 || m.At(0, 1) != -2 {
		t.Fatalf("Scale wrong: %v", m)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	m := randMatrix(5, 9, 7)
	SoftmaxRows(m)
	for i := 0; i < m.Rows; i++ {
		var sum float64
		for _, v := range m.Row(i) {
			if v < 0 {
				t.Fatalf("softmax produced negative value %v", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v, want 1", i, sum)
		}
	}
}

func TestSoftmaxMaskedEntriesVanish(t *testing.T) {
	m := FromSlice(1, 3, []float32{0, NegInf, 0})
	SoftmaxRows(m)
	if m.At(0, 1) != 0 {
		t.Fatalf("masked entry = %v, want 0", m.At(0, 1))
	}
	if math.Abs(float64(m.At(0, 0))-0.5) > 1e-6 {
		t.Fatalf("unmasked entries should split mass: %v", m)
	}
}

func TestSoftmaxFullyMaskedRowIsZero(t *testing.T) {
	m := FromSlice(1, 3, []float32{NegInf, NegInf, NegInf})
	SoftmaxRows(m)
	for j := 0; j < 3; j++ {
		if v := m.At(0, j); v != 0 || math.IsNaN(float64(v)) {
			t.Fatalf("fully masked row produced %v, want 0", v)
		}
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := randMatrix(3, 6, 11)
	b := a.Clone()
	for i := range b.Data {
		b.Data[i] += 100 // softmax(x) == softmax(x + c)
	}
	SoftmaxRows(a)
	SoftmaxRows(b)
	if !a.AllClose(b, 1e-4) {
		t.Fatalf("softmax not shift invariant: diff %g", a.MaxAbsDiff(b))
	}
}

func TestLayerNormRows(t *testing.T) {
	m := randMatrix(4, 16, 13)
	gain := make([]float32, 16)
	bias := make([]float32, 16)
	for i := range gain {
		gain[i] = 1
	}
	LayerNormRows(m, gain, bias, 1e-5)
	for i := 0; i < m.Rows; i++ {
		var mean, sq float64
		for _, v := range m.Row(i) {
			mean += float64(v)
		}
		mean /= 16
		for _, v := range m.Row(i) {
			d := float64(v) - mean
			sq += d * d
		}
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("row %d mean %v, want ~0", i, mean)
		}
		if math.Abs(sq/16-1) > 1e-2 {
			t.Fatalf("row %d variance %v, want ~1", i, sq/16)
		}
	}
}

func TestLayerNormGainBias(t *testing.T) {
	m := randMatrix(2, 4, 17)
	gain := []float32{2, 2, 2, 2}
	bias := []float32{1, 1, 1, 1}
	LayerNormRows(m, gain, bias, 1e-5)
	for i := 0; i < m.Rows; i++ {
		var mean float64
		for _, v := range m.Row(i) {
			mean += float64(v)
		}
		mean /= 4
		if math.Abs(mean-1) > 1e-4 {
			t.Fatalf("row %d mean %v, want 1 (bias)", i, mean)
		}
	}
}

func TestReLU(t *testing.T) {
	m := FromSlice(1, 4, []float32{-1, 0, 2, -0.5})
	ReLU(m)
	want := []float32{0, 0, 2, 0}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("ReLU[%d] = %v, want %v", i, m.Data[i], v)
		}
	}
}

func TestArgmaxRows(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 5, 2, -1, -3, -2})
	got := ArgmaxRows(m)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows = %v, want [1 0]", got)
	}
}

// Property: (A·B)·C == A·(B·C) within float tolerance.
func TestMatMulAssociativity(t *testing.T) {
	a := randMatrix(6, 5, 21)
	b := randMatrix(5, 7, 22)
	c := randMatrix(7, 4, 23)
	left := MatMul(MatMul(a, b), c)
	right := MatMul(a, MatMul(b, c))
	if !left.AllClose(right, 1e-3) {
		t.Fatalf("associativity violated: diff %g", left.MaxAbsDiff(right))
	}
}

// Property: matmul distributes over addition.
func TestMatMulDistributivity(t *testing.T) {
	f := func(seed uint16) bool {
		a := randMatrix(4, 3, uint64(seed)+1)
		b := randMatrix(3, 5, uint64(seed)+2)
		c := randMatrix(3, 5, uint64(seed)+3)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		return left.AllClose(right, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	x := randMatrix(128, 128, 1)
	y := randMatrix(128, 128, 2)
	dst := New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

func BenchmarkSoftmax1024x1024(b *testing.B) {
	m := randMatrix(1024, 1024, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxRows(m)
	}
}

func TestBlockedMatchesSmallKernel(t *testing.T) {
	for _, dims := range [][3]int{
		{1, 1, 1}, {63, 65, 64}, {64, 64, 64}, {100, 70, 130},
		{129, 64, 65}, {200, 150, 90},
	} {
		a := randMatrix(dims[0], dims[1], uint64(dims[0]))
		b := randMatrix(dims[1], dims[2], uint64(dims[2]))
		want := New(dims[0], dims[2])
		matMulSmall(want, a, b)
		got := New(dims[0], dims[2])
		MatMulBlocked(got, a, b)
		if !got.AllClose(want, 1e-4) {
			t.Fatalf("blocked %v mismatch: max diff %g", dims, got.MaxAbsDiff(want))
		}
	}
}

func TestBlockedOverwritesDst(t *testing.T) {
	a := randMatrix(70, 70, 1)
	b := randMatrix(70, 70, 2)
	dst := New(70, 70)
	dst.Fill(999) // stale contents must not leak into the product
	MatMulBlocked(dst, a, b)
	want := New(70, 70)
	matMulSmall(want, a, b)
	if !dst.AllClose(want, 1e-4) {
		t.Fatalf("blocked kernel must zero dst first: diff %g", dst.MaxAbsDiff(want))
	}
}

func TestBlockedShapePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { MatMulBlocked(New(2, 2), New(2, 3), New(4, 2)) },
		func() { MatMulBlocked(New(3, 3), New(2, 3), New(3, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDispatchCrossesThreshold(t *testing.T) {
	// A product right at the dispatch boundary must be correct either way.
	a := randMatrix(130, 730, 5)
	b := randMatrix(730, 730, 6)
	if b.Rows*b.Cols < matMulThreshold {
		t.Fatalf("test operands below threshold: %d", b.Rows*b.Cols)
	}
	got := MatMul(a, b) // dispatches to blocked
	want := New(130, 730)
	matMulSmall(want, a, b)
	if !got.AllClose(want, 1e-4) {
		t.Fatalf("dispatch mismatch: %g", got.MaxAbsDiff(want))
	}
}

func BenchmarkMatMulSmallKernel256(b *testing.B) {
	x := randMatrix(256, 256, 1)
	y := randMatrix(256, 256, 2)
	dst := New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMulSmall(dst, x, y)
	}
}

func BenchmarkMatMulBlocked256(b *testing.B) {
	x := randMatrix(256, 256, 1)
	y := randMatrix(256, 256, 2)
	dst := New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulBlocked(dst, x, y)
	}
}

func TestCopyFromAndFill(t *testing.T) {
	a := FromSlice(2, 2, []float32{1, 2, 3, 4})
	b := New(2, 2)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Fatal("CopyFrom lost data")
	}
	b.Fill(7)
	if b.At(1, 1) != 7 {
		t.Fatal("Fill failed")
	}
	b.Zero()
	if b.At(0, 0) != 0 {
		t.Fatal("Zero failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom shape mismatch should panic")
		}
	}()
	b.CopyFrom(New(3, 3))
}

func TestStringRendering(t *testing.T) {
	small := FromSlice(1, 2, []float32{1.5, -2})
	s := small.String()
	if s == "" || s[:6] != "Matrix" {
		t.Fatalf("String = %q", s)
	}
	big := New(100, 100)
	if bs := big.String(); bs != "Matrix(100x100)" {
		t.Fatalf("large String = %q", bs)
	}
}

func TestMaxAbsDiffShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch should panic")
		}
	}()
	New(1, 2).MaxAbsDiff(New(2, 1))
}

func TestLayerNormBadLengthsPanics(t *testing.T) {
	m := New(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("short gain should panic")
		}
	}()
	LayerNormRows(m, make([]float32, 2), make([]float32, 4), 1e-5)
}

func TestAddShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch should panic")
		}
	}()
	AddInPlace(New(1, 2), New(2, 1))
}

func TestAddRowVectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	AddRowVector(New(1, 3), []float32{1})
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) {
	m.check(i, j)
	m.Data[i*m.stride()+j] = v
}
