package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
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
	laneOperand = 6 // d0 d1 b0 b1 b2 b3
)

var laneCanary = math.Float32frombits(0xDEADBEEF)

// laneArenas holds one guard-page-backed buffer per operand. Operands are
// cut from the tail: at offset 0 the slice's last element is the last
// readable float, offsets 1..7 walk the start through every alignment
// relative to a 32-byte vector.
type laneArenas struct {
	op   [laneOperand][]float32
	keys []float32
}

func newLaneArenas(tb testing.TB) *laneArenas {
	ar := &laneArenas{keys: guardedFloats(tb, (laneMaxKeys-1)*(laneMaxN+lanePad)+laneMaxN+8)}
	for i := range ar.op {
		ar.op[i] = guardedFloats(tb, laneMaxN+8)
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
	var op, ref [laneOperand][]float32
	var a [8]float32
	fresh := func() {
		for i := range op {
			op[i] = cut(ar.op[i], n, off, next)
			ref[i] = append([]float32(nil), op[i]...)
		}
		for i := range a {
			a[i] = next()
		}
	}
	check := func(what string, dsts int) {
		t.Helper()
		for i := 0; i < dsts; i++ {
			requireSameFloats(t, what, n, off, op[i], ref[i])
			checkCanary(t, what, ar.op[i], n, off)
		}
	}

	fresh()
	quadAxpy2(op[0], op[1], op[2], op[3], op[4], op[5], a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7])
	quadAxpy2Go(ref[0], ref[1], ref[2], ref[3], ref[4], ref[5], a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7])
	check("quadAxpy2", 2)

	fresh()
	quadAxpy1(op[0], op[2], op[3], op[4], op[5], a[0], a[1], a[2], a[3])
	quadAxpy1Go(ref[0], ref[2], ref[3], ref[4], ref[5], a[0], a[1], a[2], a[3])
	check("quadAxpy1", 1)

	fresh()
	tailAxpy2(op[0], op[1], op[2], a[0], a[1])
	tailAxpy2Go(ref[0], ref[1], ref[2], a[0], a[1])
	check("tailAxpy2", 2)

	fresh()
	tailAxpy1(op[0], op[2], a[0])
	tailAxpy1Go(ref[0], ref[2], a[0])
	check("tailAxpy1", 1)

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

// laneValues draws floats that stress rounding and special-value handling:
// mostly uniform in [-1, 1), one in eight from a table of signed zeros,
// denormals, values whose products are denormal, values whose sums overflow,
// infinities and NaN.
type laneValues uint64

var laneSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007FFFFF), 1e-19, -1e-20,
	math.MaxFloat32, -math.MaxFloat32, 3e38, -3e38, 2e19,
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
// threshold, dense, block-sparse and cached attention — give the same bits
// whichever body serves them.
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

	run := func() []*Matrix {
		small, large := New(9, 133), New(131, 133)
		MatMulInto(small, a.Slice(0, 9), b)
		MatMulInto(large, a, b)
		dense, block, cached := New(37, d), New(len(seg), d), New(3, d)
		MultiHeadAttendInto(dense, q, k, v, heads, 0.3, nil, New(37, 37))
		BlockAttendInto(block, bq, bk, bv, heads, 0.3, blocks, seg, seg, true, New(len(seg), len(seg)))
		AttendCachedRows(cached, cq, keys, vals, []int{2, 0, 1}, heads, dh, 0.3, New(3, 11))
		return []*Matrix{small, large, dense, block, cached}
	}
	asm := run()
	useGoLanes(t)
	for i, want := range run() {
		requireBitwiseEqual(t, asm[i], want, fmt.Sprintf("kernel %d, avx2 vs go body", i))
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

// BenchmarkLaneHelpers times each helper alone at the row widths the serving
// benchmark's model gives it (d_model 128, d_ff 512, head 16), per body.
func BenchmarkLaneHelpers(b *testing.B) {
	for _, body := range laneBodies() {
		for _, n := range []int{16, 128, 512} {
			d0, d1 := make([]float32, n), make([]float32, n)
			src := randMatrix(4, n, 1)
			b0, b1, b2, b3 := src.Row(0), src.Row(1), src.Row(2), src.Row(3)
			run := func(name string, flops int, f func()) {
				b.Run(fmt.Sprintf("%s/%s/n=%d", name, body, n), func(b *testing.B) {
					if body == "go" {
						useGoLanes(b)
					}
					for i := 0; i < b.N; i++ {
						f()
					}
					gflops(b, float64(flops))
				})
			}
			run("quadAxpy2", 16*n, func() { quadAxpy2(d0, d1, b0, b1, b2, b3, 1, 2, 3, 4, 5, 6, 7, 8) })
			run("quadAxpy1", 8*n, func() { quadAxpy1(d0, b0, b1, b2, b3, 1, 2, 3, 4) })
			run("tailAxpy2", 4*n, func() { tailAxpy2(d0, d1, b0, 1, 2) })
			run("tailAxpy1", 2*n, func() { tailAxpy1(d0, b0, 1) })
		}
		// One 16-wide head against 32 keys of a 128-wide cache.
		keys, q, dst := randMatrix(32, 128, 2), randMatrix(1, 16, 3).Row(0), make([]float32, 32)
		b.Run("scoreRow/"+body+"/dh=16,keys=32", func(b *testing.B) {
			if body == "go" {
				useGoLanes(b)
			}
			for i := 0; i < b.N; i++ {
				scoreRow(dst, q, keys.Data, 128)
			}
			gflops(b, 2*16*32)
		})
	}
}

// BenchmarkMatMulBenchShapes times the wide kernel at the GEMM shapes the
// serving benchmark runs — encoder rows (128 tokens through the attention and
// FFN projections) and fused decode heights (1, 7, 32 live segments) — per
// body, single-threaded.
func BenchmarkMatMulBenchShapes(b *testing.B) {
	shapes := [][3]int{{128, 128, 128}, {128, 128, 512}, {128, 512, 128}}
	for _, m := range []int{1, 7, 32} {
		shapes = append(shapes, [3]int{m, 128, 128}, [3]int{m, 128, 512}, [3]int{m, 512, 128})
	}
	for _, body := range laneBodies() {
		for _, s := range shapes {
			x, y, dst := randMatrix(s[0], s[1], 1), randMatrix(s[1], s[2], 2), New(s[0], s[2])
			b.Run(fmt.Sprintf("%s/%dx%dx%d", body, s[0], s[1], s[2]), func(b *testing.B) {
				if body == "go" {
					useGoLanes(b)
				}
				defer Reserve(runtime.GOMAXPROCS(0))()
				withKernel(b, KernelWide)
				for i := 0; i < b.N; i++ {
					MatMulInto(dst, x, y)
				}
				gflops(b, 2*float64(s[0]*s[1]*s[2]))
			})
		}
	}
}
