package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// useGoLanes switches every lane helper to its Go body for the rest of the
// test (a no-op where that is already the only body).
func useGoLanes(tb testing.TB) {
	old := useAVX2
	useAVX2 = false
	tb.Cleanup(func() { useAVX2 = old })
}

// laneBodies names the lane-helper bodies this build and CPU can run; the
// first is the one serving, "go" is reached through useGoLanes.
func laneBodies() []string {
	if useAVX2 {
		return []string{"avx2", "go"}
	}
	return []string{"go"}
}

// sameFloat is the lane contract's equality: identical bits, except that any
// NaN equals any NaN (which of two NaN operands an instruction returns is the
// one thing operand order decides, and Go does not pin operand order).
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

const (
	laneMaxN    = 67 // every n%8 tail eight times over, every dh%4 tail
	laneMaxKeys = 5
	lanePad     = 5 // extra key stride in the strided scoreRow cases
	laneOperand = 2 // a row helper's dst and its row operand
	tileMaxK    = 512
)

// tileKs are the k ranges every tile helper is checked over: each k tail
// (where the one-row tile skips zero multipliers and the taller ones do
// not) and the model's two inner sizes.
var tileKs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 128, 512}

var laneCanary = math.Float32frombits(0xDEADBEEF)

// laneArenas holds one guard-page-backed buffer per operand. Operands are
// cut from the tail: at offset 0 the slice's last element is the last
// readable float, offsets 1..7 walk the start through every alignment
// relative to a 32-byte vector.
type laneArenas struct {
	op   [laneOperand][]float32
	keys []float32
	tile [4][]float32 // a tile's d, a, b and bias
}

func newLaneArenas(tb testing.TB) *laneArenas {
	ar := &laneArenas{keys: guardedFloats(tb, (laneMaxKeys-1)*(laneMaxN+lanePad)+laneMaxN+8)}
	for i := range ar.op {
		ar.op[i] = guardedFloats(tb, laneMaxN+8)
	}
	w := laneMaxN + 2 + lanePad // widest tile row: j0 ≤ 2, plus a stride pad
	ar.tile = [4][]float32{
		guardedFloats(tb, 4*w+8),
		guardedFloats(tb, 4*(tileMaxK+lanePad)+8),
		guardedFloats(tb, tileMaxK*w+8),
		guardedFloats(tb, w+8),
	}
	return ar
}

// cut returns the n floats ending off floats before the end of arena, filled
// from next, with the rest of the arena set to the canary.
func cut(arena []float32, n, off int, next func() float32) []float32 {
	for i := range arena {
		arena[i] = laneCanary
	}
	s := arena[len(arena)-off-n : len(arena)-off : len(arena)-off]
	for i := range s {
		s[i] = next()
	}
	return s
}

// checkCanary fails if anything in arena outside its n-float cut changed.
func checkCanary(t *testing.T, what string, arena []float32, n, off int) {
	t.Helper()
	lo := len(arena) - off - n
	for i, v := range arena {
		if (i < lo || i >= lo+n) && math.Float32bits(v) != math.Float32bits(laneCanary) {
			t.Fatalf("%s n=%d off=%d: wrote outside dst at arena index %d (dst is [%d,%d))", what, n, off, i, lo, lo+n)
		}
	}
}

func requireSameFloats(t *testing.T, what string, n, off int, got, want []float32) {
	t.Helper()
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s n=%d off=%d: element %d: asm %v (%#08x) vs go %v (%#08x)", what, n, off, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// checkLaneBodies runs every lane helper's assembly body (through its
// dispatcher, on guarded operands of length n at offset off) and its Go body
// (on heap copies) over values drawn from next, and requires equal results
// and untouched surroundings.
func checkLaneBodies(t *testing.T, ar *laneArenas, n, off int, next func() float32) {
	t.Helper()
	// expRow: n is the span length, rewritten in place. Scale 1 is the
	// dense route's and the softmax's, 100 walks x − m across exp32's whole
	// domain down past the underflow bound, and a drawn one brings specials.
	for _, scale := range []float32{1, 100, next()} {
		x := cut(ar.op[0], n, off, next)
		want := append([]float32(nil), x...)
		gotSum, wantSum := expRow(x, scale), expRowGo(want, scale)
		what := fmt.Sprintf("expRow scale=%v", scale)
		requireSameFloats(t, what, n, off, x, want)
		requireSameFloats(t, what+" sum", n, off, []float32{gotSum}, []float32{wantSum})
		checkCanary(t, what, ar.op[0], n, off)
	}

	// The tiles: n is the column count. The model's long k ranges run at one
	// offset per n, which still walks every offset across n.
	for _, th := range tileHelpers {
		for _, k := range tileKs {
			if k < 128 || off == n%8 {
				checkTileBodies(t, ar, th.h, th.run, n, k, off, next)
			}
		}
	}

	// valueRow: n is the head width; the value run ends exactly at the guard.
	for nk := 0; nk <= laneMaxKeys; nk++ {
		for _, stride := range []int{n, n + lanePad} {
			vlen := 0
			if nk > 0 {
				vlen = (nk-1)*stride + n
			}
			dst := cut(ar.op[0], n, off, next)
			w := cut(ar.op[1], nk, off, next)
			v := cut(ar.keys, vlen, 0, next)
			s := next()
			want := make([]float32, n)
			valueRow(dst, w, v, stride, s)
			valueRowGo(want, w, v, stride, s)
			what := fmt.Sprintf("valueRow keys=%d stride=%d", nk, stride)
			requireSameFloats(t, what, n, off, dst, want)
			checkCanary(t, what, ar.op[0], n, off)
		}
	}

	// scoreRow: n is the head width; the key run ends exactly at the guard.
	for nk := 0; nk <= laneMaxKeys; nk++ {
		for _, stride := range []int{n, n + lanePad} {
			klen := 0
			if nk > 0 {
				klen = (nk-1)*stride + n
			}
			dst := cut(ar.op[0], nk, off, next)
			q := cut(ar.op[1], n, off, next)
			k := cut(ar.keys, klen, 0, next)
			want := make([]float32, nk)
			scoreRow(dst, q, k, stride)
			scoreRowGo(want, q, k, stride)
			what := fmt.Sprintf("scoreRow keys=%d stride=%d", nk, stride)
			requireSameFloats(t, what, n, off, dst, want)
			checkCanary(t, what, ar.op[0], nk, off)
		}
	}
}

// checkTileBodies runs one h-row tile helper through its dispatcher (the
// assembly on the full tiles of columns [j0, j0+p), the Go body on the rest)
// and tileGo alone, on guarded operands that end off floats before the guard
// page, and requires equal results and an untouched arena around d. The
// offset also picks j0, the flags and whether each stride exceeds its row.
func checkTileBodies(t *testing.T, ar *laneArenas, h int,
	tile func(d []float32, sd int, a []float32, sa int, b []float32, sb, k, j0, j1 int, bias []float32, flags int),
	p, k, off int, next func() float32) {
	t.Helper()
	j0 := off % 3
	j1 := j0 + p
	sd, sa, sb := j1+lanePad*(off&1), k+lanePad*(off>>1&1), j1+lanePad*(off>>2&1)
	flags := (p + off) % 8
	// Only d is written, so only d's arena needs the canary.
	operand := func(arena []float32, n int) []float32 {
		s := arena[len(arena)-off-n : len(arena)-off : len(arena)-off]
		for i := range s {
			s[i] = next()
		}
		return s
	}
	dLen := (h-1)*sd + j1
	d := cut(ar.tile[0], dLen, off, next)
	a := operand(ar.tile[1], (h-1)*sa+k)
	b := operand(ar.tile[2], (k-1)*sb+j1)
	bias := operand(ar.tile[3], j1)
	want := append([]float32(nil), d...)
	tile(d, sd, a, sa, b, sb, k, j0, j1, bias, flags)
	tileGo(want, sd, a, sa, b, sb, h, k, j0, j1, bias, flags)
	what := fmt.Sprintf("tile h=%d k=%d j0=%d strides=%d,%d,%d flags=%d", h, k, j0, sd, sa, sb, flags)
	requireSameFloats(t, what, p, off, d, want)
	checkCanary(t, what, ar.tile[0], dLen, off)
}

// laneValues draws floats that stress rounding and special-value handling:
// mostly uniform in [-1, 1), one in eight from a table of signed zeros,
// denormals, values whose products are denormal, values whose sums overflow,
// the attention mask's NegInf, infinities and NaN.
type laneValues uint64

var laneSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007FFFFF), 1e-19, -1e-20,
	math.MaxFloat32, -math.MaxFloat32, 3e38, -3e38, 2e19, NegInf,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

func (s *laneValues) next() float32 {
	*s = *s*6364136223846793005 + 1442695040888963407
	x := uint64(*s) >> 20
	if x&7 == 0 {
		return laneSpecials[(x>>3)%uint64(len(laneSpecials))]
	}
	return float32(int64(x>>13))/float32(1<<30) - 1
}

// Satellite contract: assembly ≡ Go, bit for bit, for every helper, every
// length 0..67, every offset 0..7 against a guard page.
func TestLaneBodiesBitwise(t *testing.T) {
	if !useAVX2 {
		t.Skip("no assembly body on this build or CPU")
	}
	ar := newLaneArenas(t)
	vals := laneValues(1)
	for n := 0; n <= laneMaxN; n++ {
		for off := 0; off < 8; off++ {
			checkLaneBodies(t, ar, n, off, vals.next)
		}
	}
}

// FuzzLaneBodies feeds the same comparison raw bit patterns (signalling NaNs,
// arbitrary payloads, every exponent) at a fuzzer-chosen length and offset.
func FuzzLaneBodies(f *testing.F) {
	if !useAVX2 {
		f.Skip("no assembly body on this build or CPU")
	}
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0x80, 0x7f, 1, 0, 0, 0, 0, 0, 0xc0, 0x7f}, uint8(9), uint8(3))
	f.Add([]byte{0xff, 0xff, 0x7f, 0x7f, 1, 0, 0x80, 0xff, 0xff, 0xff, 0x7f, 0}, uint8(67), uint8(0))
	ar := newLaneArenas(f)
	f.Fuzz(func(t *testing.T, data []byte, n, off uint8) {
		pos := 0
		next := func() float32 {
			if len(data) < 4 {
				return 0
			}
			if pos+4 > len(data) {
				pos = 0
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
			return v
		}
		checkLaneBodies(t, ar, int(n)%(laneMaxN+1), int(off)%8, next)
	})
}

// The kernels built on the helpers — GEMM on both sides of the blocked
// threshold, dense, block-sparse and cached attention, the fused bias+ReLU
// pass at heights 1–9 and 28 and past the blocked threshold — give the same
// bits whichever body serves them.
func TestKernelsBitwiseAcrossLaneBodies(t *testing.T) {
	if !useAVX2 {
		t.Skip("no assembly body on this build or CPU")
	}
	withKernel(t, KernelWide)
	const heads, dh = 3, 7 // dh%4 and dh%8 tails in every attention helper call
	d := heads * dh
	a, b := randMatrix(131, 129, 1), randMatrix(129, 133, 2)
	sprinkleZeros(a)
	q, k, v := randMatrix(37, d, 3), randMatrix(37, d, 4), randMatrix(37, d, 5)
	blocks, seg := blockLayoutFixture()
	bq, bk, bv := randMatrix(len(seg), d, 6), randMatrix(len(seg), d, 7), randMatrix(len(seg), d, 8)
	keys := []*Matrix{randMatrix(5, d, 9), randMatrix(1, d, 10), randMatrix(11, d, 11)}
	vals := []*Matrix{randMatrix(5, d, 12), randMatrix(1, d, 13), randMatrix(11, d, 14)}
	cq := randMatrix(3, d, 15)

	bias := randMatrix(1, 133, 16).Row(0)
	la, lb := randMatrix(9, 600, 17), randMatrix(600, 900, 18) // past the blocked threshold
	lbias := randMatrix(1, 900, 19).Row(0)

	run := func() []*Matrix {
		small, large := New(9, 133), New(131, 133)
		MatMulInto(small, a.Slice(0, 9), b)
		MatMulInto(large, a, b)
		dense, block, cached := New(37, d), New(len(seg), d), New(3, d)
		MultiHeadAttendInto(dense, q, k, v, heads, 0.3, nil, New(37, 37))
		BlockAttendInto(block, bq, bk, bv, heads, 0.3, blocks, seg, seg, true, New(len(seg), len(seg)))
		AttendCachedRows(cached, cq, keys, vals, []int{2, 0, 1}, heads, dh, 0.3, New(3, 11))
		out := []*Matrix{small, large, dense, block, cached}
		for _, h := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 28} {
			fused := New(h, 133)
			MatMulBiasInto(fused, a.Slice(0, h), b, bias, true)
			out = append(out, fused)
		}
		blocked := New(9, 900)
		MatMulBiasInto(blocked, la, lb, lbias, true)
		return append(out, blocked)
	}
	asm := run()
	useGoLanes(t)
	for i, want := range run() {
		requireBitwiseEqual(t, asm[i], want, fmt.Sprintf("kernel %d, avx2 vs go body", i))
	}
}

// attendHead's value product, one valueRow call per head, equals a plain
// per-key loop — d = d + (w·s)·v, key by key from +0 — under each lane body.
func TestValueRowMatchesPerKeyAxpy(t *testing.T) {
	vals := laneValues(3)
	for _, body := range laneBodies() {
		if body == "go" {
			useGoLanes(t)
		}
		for _, dh := range []int{4, 8, 16, 24} {
			for _, n := range []int{1, 5, 48, 200} {
				v := randMatrix(n, 3*dh+5, uint64(dh*n)) // head 1 of 3, stride ≠ dh
				w := make([]float32, n)
				for i := range w {
					w[i] = vals.next()
				}
				const s = 0.37
				c0 := dh
				want, got := make([]float32, dh), make([]float32, dh)
				for t, wt := range w {
					a := wt * s
					for j, x := range v.Row(t)[c0 : c0+dh] {
						want[j] += float32(a * x)
					}
				}
				valueRow(got, w, v.Data[c0:], v.stride(), s)
				requireSameFloats(t, fmt.Sprintf("%s valueRow dh=%d keys=%d", body, dh, n), dh, 0, got, want)
			}
		}
	}
}

// exp32 meets its contract: exactly 1 at ±0, exactly +0 below the underflow
// bound (NegInf and −Inf included), NaN for NaN, and within 3 ulp of
// math.Exp on a dense grid over [−87.3, 0]. The same grid through expRow —
// a span led by a 0, so m = 0 and every element is exp32 of itself — holds
// each lane body to the same bits.
func TestExp32(t *testing.T) {
	for _, x := range []float32{0, float32(math.Copysign(0, -1))} {
		if got := exp32(x); math.Float32bits(got) != math.Float32bits(1) {
			t.Fatalf("exp32(%v) = %v, want exactly 1", x, got)
		}
	}
	for _, x := range []float32{NegInf, NegInf / 2, float32(math.Inf(-1)), -math.MaxFloat32, -1000, -87.34, math.Nextafter32(expLo, float32(math.Inf(-1)))} {
		if got := exp32(x); math.Float32bits(got) != 0 {
			t.Fatalf("exp32(%v) = %v (%#08x), want +0", x, got, math.Float32bits(got))
		}
	}
	if got := exp32(float32(math.NaN())); got == got {
		t.Fatalf("exp32(NaN) = %v, want NaN", got)
	}
	const steps = 1 << 20
	grid := make([]float32, steps+1)
	for i := range grid {
		grid[i] = float32(-87.3 * float64(i) / steps)
	}
	worst, at := uint32(0), float32(0)
	for _, x := range grid {
		got, want := exp32(x), float32(math.Exp(float64(x)))
		d := math.Float32bits(got) - math.Float32bits(want)
		if int32(d) < 0 {
			d = -d
		}
		if d > worst {
			worst, at = d, x
		}
	}
	if worst > 3 {
		t.Fatalf("exp32 is %d ulp off math.Exp at %v, want ≤ 3", worst, at)
	}
	t.Logf("worst error on the grid: %d ulp at %v", worst, at)
	for _, body := range laneBodies() {
		if body == "go" {
			useGoLanes(t)
		}
		span := make([]float32, 68)
		for lo := 0; lo < len(grid); lo += len(span) - 1 {
			chunk := grid[lo:min(lo+len(span)-1, len(grid))]
			x := append(span[:1], chunk...)
			x[0] = 0
			expRow(x, 1)
			for i, g := range chunk {
				if want := exp32(g); math.Float32bits(x[i+1]) != math.Float32bits(want) {
					t.Fatalf("%s expRow: exp32(%v) = %v, want %v", body, g, x[i+1], want)
				}
			}
		}
	}
}

// Every pre-existing equality and allocation test of the kernels that sit on
// the lane helpers, unmodified, against the Go body on an AVX2 host (the
// plain run of the same tests covers the assembly body).
func TestKernelTestsOnGoLanes(t *testing.T) {
	if !useAVX2 {
		t.Skip("the Go body is already the one under test")
	}
	useGoLanes(t)
	for _, tc := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"WideMatchesScalarBitwise", TestWideMatchesScalarBitwise},
		{"WideBlockedMatchesScalarBlockedBitwise", TestWideBlockedMatchesScalarBlockedBitwise},
		{"WideDispatchCrossesThreshold", TestWideDispatchCrossesThreshold},
		{"WideKernelZeroAllocs", TestWideKernelZeroAllocs},
		{"MatMulMatchesNaive", TestMatMulMatchesNaive},
		{"MatMulIntoZeroAllocs", TestMatMulIntoZeroAllocs},
		{"MultiHeadAttendMatchesNaive", TestMultiHeadAttendMatchesNaive},
		{"BlockAttendMatchesDenseMask", TestBlockAttendMatchesDenseMask},
		{"BlockAttendCrossAttention", TestBlockAttendCrossAttention},
		{"AttendCachedRowMatchesDense", TestAttendCachedRowMatchesDense},
		{"AttendCachedRowsMatchesPerRow", TestAttendCachedRowsMatchesPerRow},
		{"AttendLaneAnchoring", TestAttendLaneAnchoring},
		{"AttendKernelsZeroAllocs", TestAttendKernelsZeroAllocs},
	} {
		t.Run(tc.name, tc.fn)
	}
}

func TestKernelCountersReportISA(t *testing.T) {
	want := "go"
	if useAVX2 {
		want = "avx2"
	}
	if got := KernelCounters().ISA; got != want {
		t.Fatalf("ISA = %q with useAVX2=%v, want %q", got, useAVX2, want)
	}
	useGoLanes(t)
	if got := KernelCounters().ISA; got != "go" {
		t.Fatalf("ISA = %q on the Go body, want \"go\"", got)
	}
}

// gflops reports the benchmark's rate given the flops one iteration does.
func gflops(b *testing.B, flopsPerOp float64) {
	b.ReportMetric(flopsPerOp*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// tileHelpers lists the GEMM tile helpers with their heights.
var tileHelpers = []struct {
	name string
	h    int
	run  func(d []float32, sd int, a []float32, sa int, b []float32, sb, k, j0, j1 int, bias []float32, flags int)
}{{"tile4x8", 4, tile4x8}, {"tile2x16", 2, tile2x16}, {"tile1x32", 1, tile1x32}}

// BenchmarkLaneHelpers times each helper alone at the shapes the serving
// benchmark's model gives it (d_model 128, d_ff 512, 8 heads of 16), per
// body: each GEMM tile helper across a 128- or 512-column weight over
// k = 128 or 512, and one head's scores, softmax exponentials (expRow, on a
// fresh copy of the scores each time) and value product against 8, 20, 48,
// 64 and 128 keys — the encoder's visible spans run to 128, the decoder's
// caches to 48.
func BenchmarkLaneHelpers(b *testing.B) {
	for _, body := range laneBodies() {
		run := func(name string, flops int, f func()) {
			b.Run(strings.Replace(name, "/", "/"+body+"/", 1), func(b *testing.B) {
				if body == "go" {
					useGoLanes(b)
				}
				for i := 0; i < b.N; i++ {
					f()
				}
				if flops > 0 {
					gflops(b, float64(flops))
				}
			})
		}
		for _, kp := range [][2]int{{128, 128}, {128, 512}, {512, 128}} {
			k, p := kp[0], kp[1]
			x, w, dst := randMatrix(4, k, 4), randMatrix(k, p, 5), New(4, p)
			bias := make([]float32, p)
			for _, t := range tileHelpers {
				run(fmt.Sprintf("%s/k=%d,p=%d", t.name, k, p), 2*t.h*p*k, func() {
					t.run(dst.Data, p, x.Data, k, w.Data, p, k, 0, p, bias, tileBias|tileReLU)
				})
			}
		}
		q, w, dst := randMatrix(1, 16, 3).Row(0), randMatrix(1, 128, 6).Row(0), make([]float32, 128)
		scores := randMatrix(1, 128, 7).Row(0)
		cache := randMatrix(128, 128, 2)
		for _, keys := range []int{8, 20, 48, 64, 128} {
			run(fmt.Sprintf("scoreRow/dh=16,keys=%d", keys), 2*16*keys, func() {
				scoreRow(dst[:keys], q, cache.Data, 128)
			})
			run(fmt.Sprintf("expRow/keys=%d", keys), 0, func() {
				copy(dst, scores[:keys])
				expRow(dst[:keys], 0.25)
			})
			run(fmt.Sprintf("valueRow/dh=16,keys=%d", keys), 2*16*keys, func() {
				valueRow(dst[:16], w[:keys], cache.Data, 128, 0.5)
			})
		}
	}
}

// BenchmarkAttendCachedRow times one decode row's cached attention — 8 heads
// of 16 against 8, 20 and 48 cached keys — per body.
func BenchmarkAttendCachedRow(b *testing.B) {
	const heads, dh = 8, 16
	for _, body := range laneBodies() {
		for _, n := range []int{8, 20, 48} {
			keys, vals := randMatrix(n, heads*dh, 1), randMatrix(n, heads*dh, 2)
			q, dst, scores := randMatrix(1, heads*dh, 3).Row(0), make([]float32, heads*dh), make([]float32, n)
			b.Run(fmt.Sprintf("%s/keys=%d", body, n), func(b *testing.B) {
				if body == "go" {
					useGoLanes(b)
				}
				for i := 0; i < b.N; i++ {
					attendCachedRow(dst, q, keys, vals, heads, dh, 0.25, scores)
				}
			})
		}
	}
}

// BenchmarkMatMulBenchShapes times the wide kernel at the GEMM shapes the
// serving benchmark runs — encoder rows (128 tokens through the attention and
// FFN projections) and fused decode heights (1, 7, 32 live segments) — per
// body, single-threaded; "+relu" is the FFN input projection as serving runs
// it, through MatMulBiasInto with its bias and ReLU.
func BenchmarkMatMulBenchShapes(b *testing.B) {
	shapes := [][3]int{{128, 128, 128}, {128, 128, 512}, {128, 512, 128}}
	for _, m := range []int{1, 7, 32} {
		shapes = append(shapes, [3]int{m, 128, 128}, [3]int{m, 128, 512}, [3]int{m, 512, 128})
	}
	for _, body := range laneBodies() {
		for _, s := range shapes {
			x, y, dst := randMatrix(s[0], s[1], 1), randMatrix(s[1], s[2], 2), New(s[0], s[2])
			bias := randMatrix(1, s[2], 3).Row(0)
			for _, relu := range []bool{false, true} {
				if relu && s[2] != 512 {
					continue
				}
				name := fmt.Sprintf("%s/%dx%dx%d", body, s[0], s[1], s[2])
				if relu {
					name += "+relu"
				}
				b.Run(name, func(b *testing.B) {
					if body == "go" {
						useGoLanes(b)
					}
					defer Reserve(runtime.GOMAXPROCS(0))()
					withKernel(b, KernelWide)
					for i := 0; i < b.N; i++ {
						if relu {
							MatMulBiasInto(dst, x, y, bias, true)
						} else {
							MatMulInto(dst, x, y)
						}
					}
					gflops(b, 2*float64(s[0]*s[1]*s[2]))
				})
			}
		}
	}
}
