package tensor

import (
	"fmt"
)

// MatMul returns a × b.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a × b. dst must be a.Rows×b.Cols and must not
// alias a or b. Large products dispatch to the cache-blocked kernel.
func MatMulInto(dst, a, b *Matrix) {
	checkMatMul(dst, a, b)
	mulDispatch(dst, a, b)
}

func checkMatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst %dx%d != %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
}

// MatMulBiasInto computes dst = a × b + bias, then, when relu is set,
// clamps negatives to zero (−0 and NaN stay) — a dense layer and its
// activation in one pass that stores each output once. len(bias) must be
// b.Cols. The result is bitwise MatMulInto, AddRowVector and ReLU in
// sequence, which is what it runs under KernelScalar.
func MatMulBiasInto(dst, a, b *Matrix, bias []float32, relu bool) {
	if len(bias) != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBias bias len %d != cols %d", len(bias), b.Cols))
	}
	if ActiveKernel() != KernelWide {
		MatMulInto(dst, a, b)
		AddRowVector(dst, bias)
		if relu {
			ReLU(dst)
		}
		return
	}
	checkMatMul(dst, a, b)
	epi := tileBias
	if relu {
		epi |= tileReLU
	}
	mulWide(dst, a, b, bias, epi)
}

// matMulSmall is the streaming ikj kernel for small operands.
func matMulSmall(dst, a, b *Matrix) {
	n := a.Rows
	if planWorkers(n, 8) == 1 {
		matMulSmallRange(dst, a, b, 0, n)
		return
	}
	parallelRows(n, 8, func(lo, hi int) {
		matMulSmallRange(dst, a, b, lo, hi)
	})
}

// matMulSmallRange processes two dst rows per pass (register blocking: the
// four b rows of each k-quad are loaded once and feed eight multiply-adds
// instead of four) with a single-row fallback for the odd remainder.
//
// Per-row accumulation order is always quads of k followed by a scalar tail —
// the same order for the paired path, the single-row path and the blocked
// kernel's micro-tile (whose k boundaries are multiples of four). A given dst
// row therefore gets bitwise-identical results no matter which kernel, worker
// chunk or row pairing computed it; the fused batch decoder relies on this to
// stay token-identical with per-row decoding across different GEMM heights.
func matMulSmallRange(dst, a, b *Matrix, lo, hi int) {
	k, p := a.Cols, b.Cols
	sb := b.stride()
	bd := b.Data
	i := lo
	for ; i+2 <= hi; i += 2 {
		ar0, ar1 := a.Row(i), a.Row(i+1)
		d0 := dst.Row(i)[:p]
		d1 := dst.Row(i + 1)[:p]
		for j := range d0 {
			d0[j] = 0
		}
		for j := range d1 {
			d1[j] = 0
		}
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			a00, a01, a02, a03 := ar0[kk], ar0[kk+1], ar0[kk+2], ar0[kk+3]
			a10, a11, a12, a13 := ar1[kk], ar1[kk+1], ar1[kk+2], ar1[kk+3]
			b0 := bd[kk*sb : kk*sb+p]
			b1 := bd[(kk+1)*sb : (kk+1)*sb+p]
			b2 := bd[(kk+2)*sb : (kk+2)*sb+p]
			b3 := bd[(kk+3)*sb : (kk+3)*sb+p]
			for j := range d0 {
				v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
				d0[j] += float32(a00*v0) + float32(a01*v1) + float32(a02*v2) + float32(a03*v3)
				d1[j] += float32(a10*v0) + float32(a11*v1) + float32(a12*v2) + float32(a13*v3)
			}
		}
		for ; kk < k; kk++ {
			av0, av1 := ar0[kk], ar1[kk]
			brow := bd[kk*sb : kk*sb+p]
			for j := range d0 {
				d0[j] += float32(av0 * brow[j])
				d1[j] += float32(av1 * brow[j])
			}
		}
	}
	if i < hi {
		matMulRowRange(dst, a, b, i, hi)
	}
}

// matMulRowRange is the one-row-at-a-time form of the small kernel, with the
// same per-row k-quad accumulation order as the paired path.
func matMulRowRange(dst, a, b *Matrix, lo, hi int) {
	k, p := a.Cols, b.Cols
	sb := b.stride()
	bd := b.Data
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)[:p]
		for j := range drow {
			drow[j] = 0
		}
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
			b0 := bd[kk*sb : kk*sb+p]
			b1 := bd[(kk+1)*sb : (kk+1)*sb+p]
			b2 := bd[(kk+2)*sb : (kk+2)*sb+p]
			b3 := bd[(kk+3)*sb : (kk+3)*sb+p]
			for j := range drow {
				drow[j] += float32(a0*b0[j]) + float32(a1*b1[j]) + float32(a2*b2[j]) + float32(a3*b3[j])
			}
		}
		for ; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := bd[kk*sb : kk*sb+p]
			for j := range drow {
				drow[j] += float32(av * brow[j])
			}
		}
	}
}

// MatMulT returns a × bᵀ. b is given untransposed (rows of b are the columns
// of the effective right operand), which is the natural layout for attention
// scores Q·Kᵀ.
func MatMulT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTInto(out, a, b)
	return out
}

// MatMulTInto computes dst = a × bᵀ. dst must be a.Rows×b.Rows. Large
// products dispatch to the cache-blocked kernel, exactly like MatMulInto.
func MatMulTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT inner dims %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT dst %dx%d != %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if b.Rows*b.Cols >= matMulThreshold {
		MatMulTBlocked(dst, a, b)
		return
	}
	n := a.Rows
	if planWorkers(n, 8) == 1 {
		matMulTSmallRange(dst, a, b, 0, n)
		return
	}
	parallelRows(n, 8, func(lo, hi int) {
		matMulTSmallRange(dst, a, b, lo, hi)
	})
}

func matMulTSmallRange(dst, a, b *Matrix, lo, hi int) {
	p := b.Rows
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < p; j++ {
			drow[j] = dotUnrolled(arow, b.Row(j))
		}
	}
}

// dotUnrolled is the shared inner product with four independent
// accumulators, breaking the FP add dependency chain that serializes the
// naive loop. len(b) must be ≥ len(a).
func dotUnrolled(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	j := 0
	b = b[:len(a)]
	for ; j+4 <= len(a); j += 4 {
		s0 += float32(a[j] * b[j])
		s1 += float32(a[j+1] * b[j+1])
		s2 += float32(a[j+2] * b[j+2])
		s3 += float32(a[j+3] * b[j+3])
	}
	for ; j < len(a); j++ {
		s0 += float32(a[j] * b[j])
	}
	return s0 + s1 + s2 + s3
}

// Transpose returns mᵀ.
func Transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}
