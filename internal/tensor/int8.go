package tensor

import (
	"fmt"
	"math"
)

// This file is the int8 quantized GEMM path for weight-stationary
// projections (WQ/WK/WV/WO, FFN, logits): weights are quantized once at
// load with symmetric per-output-channel absmax scales, activations are
// quantized per row on the fly into pooled int8 workspace buffers,
// accumulation runs in exact integer arithmetic (two rows packed into the
// 32-bit lanes of one uint64 — see matMulInt8Range), and the result
// dequantizes straight into the float32 dst.
//
// Unlike the float32 kernels, this path trades bits for speed: outputs
// carry a bounded quantization error instead of bitwise identity. What it
// keeps: per-row activation scales are row-local and int32 accumulation is
// exact, so quantized outputs are *still* independent of GEMM height and
// worker chunking.
//
// Measurement code only: no model, engine or binary calls it. It ran at
// 0.27× the AVX2 float32 kernel on this repo's few-MB models, so it left the
// serving stack; it stays, with its tests, only because the frozen benchmark
// module's GEMM probe (bench/probes.go) times it, and goes once that probe
// is dropped (ROADMAP item 1).

// I8Matrix is a dense row-major int8 matrix (always contiguous).
type I8Matrix struct {
	Rows, Cols int
	Data       []int8
}

// Row returns row i as a slice aliasing the matrix.
func (m *I8Matrix) Row(i int) []int8 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// QuantizedMatrix is a weight matrix quantized to int8 with symmetric
// per-output-channel (per-column) scales: the float32 source W[k][j] is
// approximated by Data[k*Cols+j] * Scales[j]. Channels whose absmax is zero
// (or denormal enough to underflow the float32 scale) store zero weights
// with a zero scale and dequantize to exact zero.
//
// Alongside the canonical int8 form the matrix carries the micro-kernel's
// working representation: the same weights biased to uint8 (qw + 128, so
// every entry is non-negative) plus per-column biased sums. The kernel packs
// the two activation rows of its register block into the 32-bit lanes of one
// uint64 and multiplies by the biased weight byte, so a single 64-bit
// multiply-add advances both rows — all-non-negative lane products are what
// make the packing carry-free, and the bias is unwound exactly at tile exit
// from the precomputed row/column sums (see matMulInt8Range).
type QuantizedMatrix struct {
	Rows, Cols int
	Data       []int8
	Scales     []float32 // per output channel; len Cols

	udata   []uint8 // Data + 128, the kernel's biased form (row-major)
	colSumU []int32 // per column: Σ_k (Data[k][j] + 128)
}

// Row returns weight row k (one input channel across all output channels).
func (q *QuantizedMatrix) Row(k int) []int8 {
	return q.Data[k*q.Cols : (k+1)*q.Cols]
}

// QuantizeMatrix quantizes a float32 weight matrix to int8 with symmetric
// per-column absmax scales: Scales[j] = max_k |W[k][j]| / 127, and each
// entry rounds half-away-from-zero to [-127, 127]. Done once at model load;
// the inference hot path only ever reads the result.
func QuantizeMatrix(w *Matrix) *QuantizedMatrix {
	q := &QuantizedMatrix{
		Rows:   w.Rows,
		Cols:   w.Cols,
		Data:   make([]int8, w.Rows*w.Cols),
		Scales: make([]float32, w.Cols),
	}
	if w.Rows == 0 || w.Cols == 0 {
		return q
	}
	absmax := make([]float64, w.Cols)
	for i := 0; i < w.Rows; i++ {
		row := w.Row(i)
		for j, v := range row {
			if a := math.Abs(float64(v)); a > absmax[j] {
				absmax[j] = a
			}
		}
	}
	inv := make([]float64, w.Cols)
	for j, a := range absmax {
		s := float32(a / 127)
		q.Scales[j] = s
		if s > 0 {
			// Invert the rounded float32 scale, not the exact ratio, so
			// quantize→dequantize round-trips against the stored scale.
			inv[j] = 1 / float64(s)
		}
		// s == 0: all-zero (or underflowed-denormal) channel; inv stays 0
		// and every entry quantizes to 0, dequantizing to exact zero.
	}
	for i := 0; i < w.Rows; i++ {
		row := w.Row(i)
		out := q.Row(i)
		for j, v := range row {
			out[j] = quantizeValue(float64(v), inv[j])
		}
	}
	q.buildKernelForm()
	return q
}

// buildKernelForm derives the biased-uint8 weights and per-column biased
// sums the SWAR micro-kernel consumes. Called once at quantization time.
func (q *QuantizedMatrix) buildKernelForm() {
	q.udata = make([]uint8, len(q.Data))
	q.colSumU = make([]int32, q.Cols)
	for i := 0; i < q.Rows; i++ {
		row := q.Row(i)
		urow := q.udata[i*q.Cols : (i+1)*q.Cols]
		for j, v := range row {
			u := int32(v) + 128
			urow[j] = uint8(u)
			q.colSumU[j] += u
		}
	}
}

// quantizeValue rounds v*inv half-away-from-zero and clamps to [-127, 127].
// The clamp happens before the float→int conversion, so denormal absmax
// values (whose reciprocal overflows) cannot hit Go's undefined
// out-of-range conversion.
func quantizeValue(v, inv float64) int8 {
	f := float64(v * inv)
	if f >= 0 {
		f += 0.5
	} else {
		f -= 0.5
	}
	if f > 127 {
		f = 127
	} else if f < -127 {
		f = -127
	}
	return int8(f)
}

// quantizeRowsInto quantizes each row of a with its own symmetric absmax
// scale: scales[i] = max_j |a[i][j]| / 127. dst must be a.Rows × a.Cols and
// scales at least a.Rows long.
func quantizeRowsInto(dst *I8Matrix, scales []float32, a *Matrix) {
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		out := dst.Row(i)
		var absmax float32
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			if v > absmax {
				absmax = v
			}
		}
		s := float32(float64(absmax) / 127)
		scales[i] = s
		if s == 0 {
			for j := range out {
				out[j] = 0
			}
			continue
		}
		inv := 1 / float64(s)
		for j, v := range row {
			out[j] = quantizeValue(float64(v), inv)
		}
	}
}

// int8Tile is the output-column tile width of the int8 micro-kernel: the
// packed-lane accumulators for a (2-row × tile) block live on the stack
// (2 KiB), and the weight sub-block walked per tile (k × tile bytes) stays
// L1-resident across every activation row — the quantized kernel's second
// edge over the float32 path beyond 4× smaller weight traffic.
const int8Tile = 256

// int8MaxK is the largest inner dimension the packed kernel supports: each
// 32-bit lane accumulates at most k·255·255, which must stay below 2^32 so
// the low lane cannot carry into the high one. 65025·66051 < 2^32.
const int8MaxK = 66051

// MatMulQuantizedInto computes dst = a × W for a quantized weight matrix:
// activations quantize per row into int8 workspace buffers, the product
// accumulates in int32, and the result dequantizes into dst as
// acc · rowScale · colScale. dst must be a.Rows × w.Cols and must not alias
// a. ws supplies the activation scratch; nil borrows a workspace from the
// package pool, so warm steady-state calls allocate nothing either way.
func MatMulQuantizedInto(dst, a *Matrix, w *QuantizedMatrix, ws *Workspace) {
	if a.Cols != w.Rows {
		panic(fmt.Sprintf("tensor: MatMulQuantized inner dims %d != %d", a.Cols, w.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: MatMulQuantized dst %dx%d != %dx%d", dst.Rows, dst.Cols, a.Rows, w.Cols))
	}
	if a.Cols > int8MaxK {
		panic(fmt.Sprintf("tensor: MatMulQuantized inner dim %d exceeds packed-lane bound %d", a.Cols, int8MaxK))
	}
	int8Calls.Add(1)
	owned := ws == nil
	if owned {
		ws = NewWorkspace()
	}
	qa := ws.GetI8(a.Rows, a.Cols)
	sc := ws.Get(a.Rows, 1)
	quantizeRowsInto(qa, sc.Data, a)
	n := a.Rows
	if planWorkers(n, 4) == 1 {
		matMulInt8Range(dst, qa, sc.Data, w, 0, n)
	} else {
		parallelRows(n, 4, func(lo, hi int) {
			matMulInt8Range(dst, qa, sc.Data, w, lo, hi)
		})
	}
	ws.Put(sc)
	ws.PutI8(qa)
	if owned {
		ws.Close()
	}
}

// matMulInt8Range runs the int8 micro-kernel over dst rows [lo, hi).
//
// The inner product is computed SWAR-style: both operands are biased
// non-negative (activation qa+128 ∈ [1,255], weight qw+128 ∈ [1,255] from
// the precomputed udata), the two activation rows of a register block are
// packed into the 32-bit lanes of one uint64, and each packed lane pair is
// multiplied by the weight byte — one 64-bit multiply-add advances both
// rows, with weights still read one byte per column. Lane products are
// ≤ 255·255, so lanes never interact while k ≤ int8MaxK.
//
// The bias unwinds exactly at tile exit:
//
//	Σ qa·qw = Σ (ua−128)(uw−128) = lane − 128·Σqa − 128·Σuw
//
// (the 128²·k terms cancel against the −128·Σua expansion), with Σqa summed
// per row here and Σuw per column precomputed in colSumU. Accumulation is
// exact integer arithmetic throughout, so quantized outputs remain
// independent of GEMM height, chunking and batch composition. Each (i, j)
// is produced exactly once, so dst needs no pre-zeroing.
func matMulInt8Range(dst *Matrix, qa *I8Matrix, aScales []float32, w *QuantizedMatrix, lo, hi int) {
	k, p := qa.Cols, w.Cols
	ud := w.udata
	colSum := w.colSumU
	colScale := w.Scales
	// Shrink the column tile until the k×tile weight block it walks fits in
	// L1 (≈32 KiB budget), so the block stays resident across every
	// activation row-pair instead of re-streaming from L2 when k is large.
	tile := int8Tile
	for tile > 32 && k*tile > 32<<10 {
		tile >>= 1
	}
	for j0 := 0; j0 < p; j0 += tile {
		j1 := j0 + tile
		if j1 > p {
			j1 = p
		}
		tw := j1 - j0
		i := lo
		for ; i+2 <= hi; i += 2 {
			var accArr [int8Tile]uint64
			acc := accArr[:tw]
			ar0, ar1 := qa.Row(i), qa.Row(i+1)
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				pa0 := packPair(ar0[kk], ar1[kk])
				pa1 := packPair(ar0[kk+1], ar1[kk+1])
				pa2 := packPair(ar0[kk+2], ar1[kk+2])
				pa3 := packPair(ar0[kk+3], ar1[kk+3])
				b0 := ud[kk*p+j0:][:tw]
				b1 := ud[(kk+1)*p+j0:][:tw]
				b2 := ud[(kk+2)*p+j0:][:tw]
				b3 := ud[(kk+3)*p+j0:][:tw]
				for j := range acc {
					acc[j] += pa0*uint64(b0[j]) + pa1*uint64(b1[j]) +
						pa2*uint64(b2[j]) + pa3*uint64(b3[j])
				}
			}
			for ; kk < k; kk++ {
				pa := packPair(ar0[kk], ar1[kk])
				brow := ud[kk*p+j0:][:tw]
				for j := range acc {
					acc[j] += pa * uint64(brow[j])
				}
			}
			base0 := 128 * rowQSum(ar0)
			base1 := 128 * rowQSum(ar1)
			s0, s1 := aScales[i], aScales[i+1]
			d0 := dst.Row(i)[j0:j1]
			d1 := dst.Row(i + 1)[j0:j1]
			for j := range d0 {
				cj := 128 * int64(colSum[j0+j])
				sw := colScale[j0+j]
				d0[j] = float32(int64(uint32(acc[j]))-base0-cj) * s0 * sw
				d1[j] = float32(int64(uint32(acc[j]>>32))-base1-cj) * s1 * sw
			}
		}
		for ; i < hi; i++ {
			var accArr [int8Tile]uint64
			acc := accArr[:tw]
			arow := qa.Row(i)
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				pa0 := uint64(uint32(int32(arow[kk]) + 128))
				pa1 := uint64(uint32(int32(arow[kk+1]) + 128))
				pa2 := uint64(uint32(int32(arow[kk+2]) + 128))
				pa3 := uint64(uint32(int32(arow[kk+3]) + 128))
				b0 := ud[kk*p+j0:][:tw]
				b1 := ud[(kk+1)*p+j0:][:tw]
				b2 := ud[(kk+2)*p+j0:][:tw]
				b3 := ud[(kk+3)*p+j0:][:tw]
				for j := range acc {
					acc[j] += pa0*uint64(b0[j]) + pa1*uint64(b1[j]) +
						pa2*uint64(b2[j]) + pa3*uint64(b3[j])
				}
			}
			for ; kk < k; kk++ {
				pa := uint64(uint32(int32(arow[kk]) + 128))
				brow := ud[kk*p+j0:][:tw]
				for j := range acc {
					acc[j] += pa * uint64(brow[j])
				}
			}
			base := 128 * rowQSum(arow)
			s := aScales[i]
			drow := dst.Row(i)[j0:j1]
			for j := range drow {
				cj := 128 * int64(colSum[j0+j])
				drow[j] = float32(int64(uint32(acc[j]))-base-cj) * s * colScale[j0+j]
			}
		}
	}
}

// packPair packs two biased activation bytes into the 32-bit lanes of one
// uint64 for the SWAR multiply.
func packPair(a0, a1 int8) uint64 {
	return uint64(uint32(int32(a0)+128)) | uint64(uint32(int32(a1)+128))<<32
}

// rowQSum is Σ qa over one quantized activation row — the row half of the
// bias correction.
func rowQSum(r []int8) int64 {
	var s int64
	for _, v := range r {
		s += int64(v)
	}
	return s
}
