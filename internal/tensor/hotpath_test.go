package tensor

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// ---------- parallelRows chunking ----------

// collectChunks runs parallelRows and records every (lo, hi) chunk.
func collectChunks(rows, minRows int) [][2]int {
	var mu sync.Mutex
	var chunks [][2]int
	parallelRows(rows, minRows, func(lo, hi int) {
		mu.Lock()
		chunks = append(chunks, [2]int{lo, hi})
		mu.Unlock()
	})
	sort.Slice(chunks, func(a, b int) bool { return chunks[a][0] < chunks[b][0] })
	return chunks
}

func TestParallelRowsChunking(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	cases := []struct {
		rows, minRows int
	}{
		{0, 8}, {1, 8}, {7, 8}, {8, 8}, {9, 8}, {16, 8}, {17, 8},
		{31, 8}, {32, 8}, {33, 8}, {35, 8}, {100, 8},
		{1, 1}, {3, 1}, {4, 1}, {5, 1}, {1000, 1},
		{10, 16}, {64, 16},
	}
	for _, c := range cases {
		want := planWorkers(c.rows, c.minRows)
		chunks := collectChunks(c.rows, c.minRows)
		if len(chunks) != want {
			t.Fatalf("rows=%d min=%d: %d chunks, planWorkers says %d",
				c.rows, c.minRows, len(chunks), want)
		}
		// Chunks must tile [0, rows) exactly.
		pos := 0
		for _, ch := range chunks {
			if ch[0] != pos {
				t.Fatalf("rows=%d min=%d: chunk starts at %d, want %d", c.rows, c.minRows, ch[0], pos)
			}
			pos = ch[1]
		}
		if pos != c.rows {
			t.Fatalf("rows=%d min=%d: chunks end at %d, want %d", c.rows, c.minRows, pos, c.rows)
		}
		// Every chunk holds at least minRowsPerWorker rows (when split at
		// all), and sizes differ by at most one.
		if want > 1 {
			minSize, maxSize := c.rows, 0
			for _, ch := range chunks {
				size := ch[1] - ch[0]
				if size < minSize {
					minSize = size
				}
				if size > maxSize {
					maxSize = size
				}
			}
			if minSize < c.minRows {
				t.Fatalf("rows=%d min=%d: chunk of %d rows below minimum", c.rows, c.minRows, minSize)
			}
			if maxSize-minSize > 1 {
				t.Fatalf("rows=%d min=%d: chunk sizes range %d..%d", c.rows, c.minRows, minSize, maxSize)
			}
		}
	}
}

func TestPlanWorkersBounds(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	if w := planWorkers(1000, 1); w != 8 {
		t.Fatalf("planWorkers(1000, 1) = %d, want GOMAXPROCS (8)", w)
	}
	if w := planWorkers(15, 8); w != 1 {
		t.Fatalf("planWorkers(15, 8) = %d, want 1 (single chunk holds the minimum)", w)
	}
	if w := planWorkers(0, 8); w != 1 {
		t.Fatalf("planWorkers(0, 8) = %d, want 1", w)
	}
	if w := planWorkers(100, 0); w != 8 {
		t.Fatalf("planWorkers(100, 0) = %d, want 8 (min clamps to 1)", w)
	}
}

// ---------- strided views, Resize, AppendRow ----------

func TestColViewAliases(t *testing.T) {
	m := randMatrix(4, 6, 1)
	v := m.ColView(2, 5)
	if v.Rows != 4 || v.Cols != 3 {
		t.Fatalf("ColView shape %dx%d", v.Rows, v.Cols)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			if v.At(i, j) != m.At(i, j+2) {
				t.Fatalf("ColView[%d][%d] = %g, want %g", i, j, v.At(i, j), m.At(i, j+2))
			}
		}
	}
	v.Set(1, 0, 42)
	if m.At(1, 2) != 42 {
		t.Fatal("ColView mutation not visible in parent")
	}
	// Ops must respect the stride.
	v.Zero()
	for i := 0; i < 4; i++ {
		if m.At(i, 2) != 0 || m.At(i, 3) != 0 || m.At(i, 4) != 0 {
			t.Fatal("Zero through view missed a strided row")
		}
		if m.At(i, 0) == 0 && m.At(i, 1) == 0 && m.At(i, 5) == 0 {
			t.Fatal("Zero through view clobbered columns outside the view")
		}
	}
}

func TestColViewClone(t *testing.T) {
	m := randMatrix(3, 5, 2)
	c := m.ColView(1, 4).Clone()
	if !c.Contiguous() {
		t.Fatal("Clone of a strided view must be contiguous")
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if c.At(i, j) != m.At(i, j+1) {
				t.Fatal("Clone of view has wrong contents")
			}
		}
	}
}

func TestResizeReusesStorage(t *testing.T) {
	m := New(4, 8)
	m.Fill(7)
	m.Resize(2, 16)
	if m.Rows != 2 || m.Cols != 16 {
		t.Fatalf("Resize shape %dx%d", m.Rows, m.Cols)
	}
	m.Resize(4, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("Resize beyond capacity must panic")
		}
	}()
	m.Resize(4, 9)
}

func TestAppendRowGrowsAndWithinCapacityDoesNotAllocate(t *testing.T) {
	m := &Matrix{Cols: 4, Data: make([]float32, 0, 8*4)}
	for i := 0; i < 3; i++ {
		m.AppendRow([]float32{float32(i), 1, 2, 3})
	}
	if m.Rows != 3 || m.At(2, 0) != 2 {
		t.Fatalf("AppendRow contents wrong: rows=%d", m.Rows)
	}
	allocs := testing.AllocsPerRun(5, func() {
		m.Rows = 3
		m.Data = m.Data[:3*4]
		m.AppendRow([]float32{9, 9, 9, 9})
	})
	if allocs != 0 {
		t.Fatalf("AppendRow within capacity allocated %g times", allocs)
	}
	// Growth beyond capacity reallocates but preserves contents.
	g := &Matrix{Cols: 2, Data: make([]float32, 0, 2)}
	g.AppendRow([]float32{1, 2})
	g.AppendRow([]float32{3, 4})
	if g.Rows != 2 || g.At(0, 0) != 1 || g.At(1, 1) != 4 {
		t.Fatal("AppendRow growth lost contents")
	}
}

// ---------- Workspace ----------

func TestWorkspaceGetPutReuse(t *testing.T) {
	ws := NewWorkspace()
	defer ws.Close()
	m := ws.Get(10, 10)
	if m.Rows != 10 || m.Cols != 10 || len(m.Data) != 100 {
		t.Fatalf("Get shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Fill(3)
	ws.Put(m)
	n := ws.Get(9, 11) // same bucket (both round up to 128 floats)
	if n.Rows != 9 || n.Cols != 11 {
		t.Fatalf("Get shape %dx%d", n.Rows, n.Cols)
	}
	if n.Data[0] != 3 {
		t.Fatal("Get did not reuse the pooled buffer (contents are unspecified but the pool should serve LIFO)")
	}
}

func TestWorkspaceNilSafe(t *testing.T) {
	var ws *Workspace
	m := ws.Get(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatal("nil workspace Get must allocate")
	}
	ws.Put(m)   // no-op
	ws.Close()  // no-op
	ws.Put(nil) // no-op
}

func TestWorkspaceZeroSizedAndHuge(t *testing.T) {
	ws := NewWorkspace()
	defer ws.Close()
	e := ws.Get(0, 5)
	if e.Rows != 0 || e.Cols != 5 {
		t.Fatal("zero-row Get shape wrong")
	}
	ws.Put(e)
	big := ws.Get(1, (1<<maxBucketBits)+1)
	if len(big.Data) != (1<<maxBucketBits)+1 {
		t.Fatal("over-ceiling Get must still serve the request")
	}
	ws.Put(big) // silently dropped, not pooled
}

func TestWorkspaceWarmGetPutZeroAllocs(t *testing.T) {
	ws := NewWorkspace()
	defer ws.Close()
	ws.Put(ws.Get(32, 32)) // warm the bucket and the free-list slice
	allocs := testing.AllocsPerRun(100, func() {
		m := ws.Get(32, 32)
		ws.Put(m)
	})
	if allocs != 0 {
		t.Fatalf("warm workspace Get/Put allocated %g times per run", allocs)
	}
}

// ---------- fused softmax ----------

func TestScaleMaskSoftmaxMatchesComposition(t *testing.T) {
	s := randMatrix(6, 9, 3)
	mask := New(6, 9)
	mask.Fill(NegInf)
	for i := 0; i < 6; i++ {
		for j := 0; j < 3+i%4; j++ {
			mask.Set(i, j, 0)
		}
	}
	scale := float32(0.25)

	want := s.Clone()
	Scale(want, scale)
	AddInPlace(want, mask)
	SoftmaxRows(want)

	got := s.Clone()
	ScaleMaskSoftmaxRows(got, scale, mask)
	if !got.AllClose(want, 1e-6) {
		t.Fatalf("fused softmax differs by %g", got.MaxAbsDiff(want))
	}
}

func TestScaleMaskSoftmaxNilMask(t *testing.T) {
	s := randMatrix(4, 7, 4)
	want := s.Clone()
	Scale(want, 0.5)
	SoftmaxRows(want)
	got := s.Clone()
	ScaleMaskSoftmaxRows(got, 0.5, nil)
	if !got.AllClose(want, 1e-6) {
		t.Fatalf("fused softmax (nil mask) differs by %g", got.MaxAbsDiff(want))
	}
}

func TestScaleMaskSoftmaxFullyMaskedRowIsZero(t *testing.T) {
	s := randMatrix(2, 5, 5)
	mask := New(2, 5)
	mask.Fill(NegInf)
	ScaleMaskSoftmaxRows(s, 1, mask)
	for i := 0; i < 2; i++ {
		for j := 0; j < 5; j++ {
			if s.At(i, j) != 0 {
				t.Fatal("fully masked row must become exactly zero")
			}
		}
	}
}

func TestScaleMaskSoftmaxShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mask shape mismatch must panic")
		}
	}()
	ScaleMaskSoftmaxRows(New(3, 3), 1, New(2, 3))
}

// ---------- MatMulTBlocked ----------

func TestMatMulTBlockedMatchesTranspose(t *testing.T) {
	for _, sz := range [][3]int{{5, 7, 9}, {64, 64, 64}, {130, 70, 190}} {
		a := randMatrix(sz[0], sz[1], 11)
		b := randMatrix(sz[2], sz[1], 12)
		want := naiveMatMul(a, Transpose(b))
		got := New(sz[0], sz[2])
		MatMulTBlocked(got, a, b)
		if !got.AllClose(want, 1e-4) {
			t.Fatalf("MatMulTBlocked %v differs by %g", sz, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulTBlockedOverwritesDst(t *testing.T) {
	a := randMatrix(10, 8, 13)
	b := randMatrix(12, 8, 14)
	got := New(10, 12)
	got.Fill(99)
	MatMulTBlocked(got, a, b)
	want := naiveMatMul(a, Transpose(b))
	if !got.AllClose(want, 1e-4) {
		t.Fatal("MatMulTBlocked must overwrite dst, not accumulate")
	}
}

func TestMatMulTDispatchCrossesThreshold(t *testing.T) {
	// b is 730×730 = 533k floats ≥ threshold → blocked kernel.
	a := randMatrix(160, 730, 15)
	b := randMatrix(730, 730, 16)
	if b.Rows*b.Cols < matMulThreshold {
		t.Fatalf("test operands below threshold: %d", b.Rows*b.Cols)
	}
	viaDispatch := New(160, 730)
	MatMulTInto(viaDispatch, a, b)
	small := New(160, 730)
	matMulTSmallRange(small, a, b, 0, a.Rows)
	if !viaDispatch.AllClose(small, 1e-4) {
		t.Fatalf("dispatch and small kernel differ by %g", viaDispatch.MaxAbsDiff(small))
	}
}

// ---------- attention kernels ----------

// naiveMultiHeadAttend is the reference: per head, dense scores with
// additive mask, stable softmax, value product.
func naiveMultiHeadAttend(q, k, v *Matrix, heads int, scale float32, mask *Matrix) *Matrix {
	d := q.Cols
	dh := d / heads
	out := New(q.Rows, d)
	for h := 0; h < heads; h++ {
		c0 := h * dh
		for i := 0; i < q.Rows; i++ {
			scores := make([]float32, k.Rows)
			for t := 0; t < k.Rows; t++ {
				var s float32
				for j := 0; j < dh; j++ {
					s += q.At(i, c0+j) * k.At(t, c0+j)
				}
				s *= scale
				if mask != nil {
					s += mask.At(i, t)
				}
				scores[t] = s
			}
			softmaxRow(scores)
			for t, a := range scores {
				for j := 0; j < dh; j++ {
					out.Set(i, c0+j, out.At(i, c0+j)+a*v.At(t, c0+j))
				}
			}
		}
	}
	return out
}

// segMask builds the dense additive mask equivalent to (blocks, seg, causal)
// so the block-sparse kernel can be checked against the dense one.
func segMask(nq, nk int, blocks []AttendBlock, qSeg, kSeg []int, causal bool) *Matrix {
	m := New(nq, nk)
	m.Fill(NegInf)
	for _, b := range blocks {
		for i := b.Q.Start; i < b.Q.End; i++ {
			for t := b.K.Start; t < b.K.End; t++ {
				if qSeg != nil && kSeg != nil && qSeg[i] != kSeg[t] {
					continue
				}
				if causal && t > i {
					continue
				}
				m.Set(i, t, 0)
			}
		}
	}
	return m
}

func TestMultiHeadAttendMatchesNaive(t *testing.T) {
	q := randMatrix(12, 16, 21)
	k := randMatrix(10, 16, 22)
	v := randMatrix(10, 16, 23)
	mask := New(12, 10)
	for i := 0; i < 12; i++ {
		for j := 0; j < 10; j++ {
			if (i+j)%3 == 0 {
				mask.Set(i, j, NegInf)
			}
		}
	}
	for _, m := range []*Matrix{nil, mask} {
		want := naiveMultiHeadAttend(q, k, v, 4, 0.25, m)
		got := New(12, 16)
		scores := New(12, 10)
		MultiHeadAttendInto(got, q, k, v, 4, 0.25, m, scores)
		if !got.AllClose(want, 1e-5) {
			t.Fatalf("MultiHeadAttendInto differs from naive by %g (mask=%v)", got.MaxAbsDiff(want), m != nil)
		}
	}
}

// blockLayout is a shared fixture: 20 rows, segments [0,6) [6,14) [14,18),
// two rows of padding, slots {segments 0+1} and {segment 2}.
func blockLayoutFixture() (blocks []AttendBlock, seg []int) {
	blocks = []AttendBlock{
		{Q: Span{0, 14}, K: Span{0, 14}},
		{Q: Span{14, 18}, K: Span{14, 18}},
	}
	seg = make([]int, 20)
	for i := range seg {
		switch {
		case i < 6:
			seg[i] = 0
		case i < 14:
			seg[i] = 1
		case i < 18:
			seg[i] = 2
		default:
			seg[i] = -1
		}
	}
	return blocks, seg
}

func TestBlockAttendMatchesDenseMask(t *testing.T) {
	blocks, seg := blockLayoutFixture()
	q := randMatrix(20, 8, 31)
	k := randMatrix(20, 8, 32)
	v := randMatrix(20, 8, 33)
	for _, causal := range []bool{false, true} {
		mask := segMask(20, 20, blocks, seg, seg, causal)
		want := New(20, 8)
		denseScores := New(20, 20)
		MultiHeadAttendInto(want, q, k, v, 2, 0.35, mask, denseScores)

		got := New(20, 8)
		scores := New(20, 14) // max block K width
		BlockAttendInto(got, q, k, v, 2, 0.35, blocks, seg, seg, causal, scores)
		if !got.Equal(want) {
			t.Fatalf("block-sparse (causal=%v) differs from dense-mask by %g", causal, got.MaxAbsDiff(want))
		}
		// One tight block per segment, no segment ids: the same bits again.
		// Segments start at rows 6 and 14 — off the kernel's groups of four —
		// so this holds only because masked keys never enter the grouping.
		tight := []AttendBlock{
			{Q: Span{0, 6}, K: Span{0, 6}},
			{Q: Span{6, 14}, K: Span{6, 14}},
			{Q: Span{14, 18}, K: Span{14, 18}},
		}
		perSeg := New(20, 8)
		BlockAttendInto(perSeg, q, k, v, 2, 0.35, tight, nil, nil, causal, scores)
		if !perSeg.Equal(want) {
			t.Fatalf("per-segment blocks (causal=%v) differ from dense-mask by %g", causal, perSeg.MaxAbsDiff(want))
		}
		// Padding rows (outside every block) must be exactly zero.
		for i := 18; i < 20; i++ {
			for j := 0; j < 8; j++ {
				if got.At(i, j) != 0 {
					t.Fatalf("padding row %d nonzero", i)
				}
			}
		}
	}
}

func TestBlockAttendCrossAttention(t *testing.T) {
	// Decoder rows [0,3) and [3,5) attend encoder rows [0,6) and [6,10).
	blocks := []AttendBlock{
		{Q: Span{0, 3}, K: Span{0, 6}},
		{Q: Span{3, 5}, K: Span{6, 10}},
	}
	q := randMatrix(5, 8, 41)
	k := randMatrix(10, 8, 42)
	v := randMatrix(10, 8, 43)
	mask := segMask(5, 10, blocks, nil, nil, false)
	want := New(5, 8)
	MultiHeadAttendInto(want, q, k, v, 2, 0.5, mask, New(5, 10))
	got := New(5, 8)
	BlockAttendInto(got, q, k, v, 2, 0.5, blocks, nil, nil, false, New(5, 6))
	if !got.AllClose(want, 1e-6) {
		t.Fatalf("cross block attention differs by %g", got.MaxAbsDiff(want))
	}
}

func TestAttendCachedRowMatchesDense(t *testing.T) {
	keys := randMatrix(7, 8, 51)
	vals := randMatrix(7, 8, 52)
	qrow := randMatrix(1, 8, 53)
	want := New(1, 8)
	MultiHeadAttendInto(want, qrow, keys, vals, 2, 0.5, nil, New(1, 7))
	dst := make([]float32, 8)
	scores := make([]float32, 7)
	AttendCachedRow(dst, qrow.Row(0), keys, vals, 2, 4, 0.5, scores)
	for j := range dst {
		diff := dst[j] - want.At(0, j)
		if diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("cached attend differs at %d: %g vs %g", j, dst[j], want.At(0, j))
		}
	}
}

// ---------- allocation regressions ----------

// serialKernels pins GOMAXPROCS to 1 so every kernel takes its inline
// serial path (the steady-state shape on a loaded server, and the only
// configuration where the zero-allocation guarantee is meaningful).
func serialKernels(t *testing.T) {
	t.Helper()
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestMatMulIntoZeroAllocs(t *testing.T) {
	serialKernels(t)
	a := randMatrix(64, 64, 61)
	b := randMatrix(64, 64, 62)
	dst := New(64, 64)
	allocs := testing.AllocsPerRun(20, func() { MatMulInto(dst, a, b) })
	if allocs != 0 {
		t.Fatalf("MatMulInto (small kernel) allocated %g times per run", allocs)
	}
	// Large operands cross into the blocked kernel; still zero allocations.
	la := randMatrix(192, 730, 63)
	lb := randMatrix(730, 730, 64) // ≥ matMulThreshold floats
	ldst := New(192, 730)
	allocs = testing.AllocsPerRun(5, func() { MatMulInto(ldst, la, lb) })
	if allocs != 0 {
		t.Fatalf("MatMulInto (blocked kernel) allocated %g times per run", allocs)
	}
}

func TestScaleMaskSoftmaxZeroAllocs(t *testing.T) {
	serialKernels(t)
	s := randMatrix(128, 128, 65)
	mask := New(128, 128)
	allocs := testing.AllocsPerRun(20, func() { ScaleMaskSoftmaxRows(s, 0.5, mask) })
	if allocs != 0 {
		t.Fatalf("ScaleMaskSoftmaxRows allocated %g times per run", allocs)
	}
}

func TestAttendKernelsZeroAllocs(t *testing.T) {
	serialKernels(t)
	q := randMatrix(32, 16, 66)
	k := randMatrix(32, 16, 67)
	v := randMatrix(32, 16, 68)
	out := New(32, 16)
	scores := New(32, 32)
	allocs := testing.AllocsPerRun(20, func() {
		MultiHeadAttendInto(out, q, k, v, 4, 0.25, nil, scores)
	})
	if allocs != 0 {
		t.Fatalf("MultiHeadAttendInto allocated %g times per run", allocs)
	}
	blocks := []AttendBlock{{Q: Span{0, 16}, K: Span{0, 16}}, {Q: Span{16, 32}, K: Span{16, 32}}}
	allocs = testing.AllocsPerRun(20, func() {
		BlockAttendInto(out, q, k, v, 4, 0.25, blocks, nil, nil, true, scores)
	})
	if allocs != 0 {
		t.Fatalf("BlockAttendInto allocated %g times per run", allocs)
	}
	// The benchmark's cached-attention probe passes a score scratch exactly
	// as wide as the caches are tall.
	keys := []*Matrix{randMatrix(20, 16, 69), randMatrix(20, 16, 70)}
	vals := []*Matrix{randMatrix(20, 16, 71), randMatrix(20, 16, 72)}
	idx, cq, cout, cscores := []int{0, 1}, randMatrix(2, 16, 73), New(2, 16), New(2, 20)
	allocs = testing.AllocsPerRun(20, func() {
		AttendCachedRows(cout, cq, keys, vals, idx, 4, 4, 0.25, cscores)
	})
	if allocs != 0 {
		t.Fatalf("AttendCachedRows allocated %g times per run", allocs)
	}
}

// ColView returns a sub-matrix sharing storage with m covering columns
// [c0, c1) of every row. The view is strided: its rows alias m's rows, so
// mutations through the view are visible in m. This is how attention
// addresses one head's slice of a projection without copying.
func (m *Matrix) ColView(c0, c1 int) *Matrix {
	if c0 < 0 || c1 > m.Cols || c0 > c1 {
		panic(fmt.Sprintf("tensor: ColView [%d,%d) out of range %d", c0, c1, m.Cols))
	}
	s := m.stride()
	out := &Matrix{Rows: m.Rows, Cols: c1 - c0, Stride: s}
	if m.Rows > 0 && c1 > c0 {
		out.Data = m.Data[c0 : (m.Rows-1)*s+c1]
	}
	return out
}
