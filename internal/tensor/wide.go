package tensor

import "fmt"

// The wide float32 kernel: the same 2×4 register blocking and cache tiling
// as matmul.go/blocked.go, with the innermost column loops routed through
// the 8-lane helpers of lanes_generic.go (AVX2 assembly on amd64, plain Go
// elsewhere). The per-row accumulation order — k quads left to right, then
// a scalar k tail, with the single-row paths skipping zero multipliers on
// the tail exactly like the scalar kernel — is unchanged, so every dst
// element is bitwise identical to the scalar kernel's. mulDispatch routes
// here by default; SetKernel(KernelScalar) selects the reference.

// matMulWideSmall is the streaming ikj kernel for small operands, wide form.
func matMulWideSmall(dst, a, b *Matrix) {
	n := a.Rows
	if planWorkers(n, 8) == 1 {
		matMulWideRange(dst, a, b, 0, n)
		return
	}
	parallelRows(n, 8, func(lo, hi int) {
		matMulWideRange(dst, a, b, lo, hi)
	})
}

// matMulWideRange mirrors matMulSmallRange: two dst rows per pass, four
// k-steps fused, single-row fallback for the odd remainder.
func matMulWideRange(dst, a, b *Matrix, lo, hi int) {
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
			quadAxpy2(d0, d1,
				bd[kk*sb:kk*sb+p],
				bd[(kk+1)*sb:(kk+1)*sb+p],
				bd[(kk+2)*sb:(kk+2)*sb+p],
				bd[(kk+3)*sb:(kk+3)*sb+p],
				ar0[kk], ar0[kk+1], ar0[kk+2], ar0[kk+3],
				ar1[kk], ar1[kk+1], ar1[kk+2], ar1[kk+3])
		}
		for ; kk < k; kk++ {
			tailAxpy2(d0, d1, bd[kk*sb:kk*sb+p], ar0[kk], ar1[kk])
		}
	}
	if i < hi {
		matMulWideRowRange(dst, a, b, i, hi)
	}
}

// matMulWideRowRange is the one-row-at-a-time form, with the scalar
// kernel's zero-skip on the k tail.
func matMulWideRowRange(dst, a, b *Matrix, lo, hi int) {
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
			quadAxpy1(drow,
				bd[kk*sb:kk*sb+p],
				bd[(kk+1)*sb:(kk+1)*sb+p],
				bd[(kk+2)*sb:(kk+2)*sb+p],
				bd[(kk+3)*sb:(kk+3)*sb+p],
				arow[kk], arow[kk+1], arow[kk+2], arow[kk+3])
		}
		for ; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			tailAxpy1(drow, bd[kk*sb:kk*sb+p], av)
		}
	}
}

// MatMulWideBlocked computes dst = a × b with the blocked kernel's cache
// tiling and the wide micro-kernel. Exposed for benchmarks and tests;
// mulDispatch routes large products here when the wide kernel is active.
func MatMulWideBlocked(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulWideBlocked inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulWideBlocked dst %dx%d != %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	n := a.Rows
	dst.Zero()
	nTiles := (n + blockSize - 1) / blockSize
	if planWorkers(nTiles, 1) == 1 {
		matMulWideBlockedTiles(dst, a, b, 0, nTiles)
		return
	}
	parallelRows(nTiles, 1, func(tLo, tHi int) {
		matMulWideBlockedTiles(dst, a, b, tLo, tHi)
	})
}

func matMulWideBlockedTiles(dst, a, b *Matrix, tLo, tHi int) {
	n, k, p := a.Rows, a.Cols, b.Cols
	sb := b.stride()
	bd := b.Data
	for ti := tLo; ti < tHi; ti++ {
		i0 := ti * blockSize
		i1 := i0 + blockSize
		if i1 > n {
			i1 = n
		}
		for k0 := 0; k0 < k; k0 += blockSize {
			k1 := k0 + blockSize
			if k1 > k {
				k1 = k
			}
			for j0 := 0; j0 < p; j0 += blockSize {
				j1 := j0 + blockSize
				if j1 > p {
					j1 = p
				}
				// Tile boundaries are multiples of four, so per-row
				// accumulation order matches the small kernel's exactly as
				// in the scalar blocked micro-kernel.
				i := i0
				for ; i+2 <= i1; i += 2 {
					ar0, ar1 := a.Row(i), a.Row(i+1)
					d0 := dst.Row(i)[j0:j1]
					d1 := dst.Row(i + 1)[j0:j1]
					kk := k0
					for ; kk+4 <= k1; kk += 4 {
						quadAxpy2(d0, d1,
							bd[kk*sb+j0:kk*sb+j1],
							bd[(kk+1)*sb+j0:(kk+1)*sb+j1],
							bd[(kk+2)*sb+j0:(kk+2)*sb+j1],
							bd[(kk+3)*sb+j0:(kk+3)*sb+j1],
							ar0[kk], ar0[kk+1], ar0[kk+2], ar0[kk+3],
							ar1[kk], ar1[kk+1], ar1[kk+2], ar1[kk+3])
					}
					for ; kk < k1; kk++ {
						tailAxpy2(d0, d1, bd[kk*sb+j0:kk*sb+j1], ar0[kk], ar1[kk])
					}
				}
				for ; i < i1; i++ {
					arow := a.Row(i)
					drow := dst.Row(i)[j0:j1]
					kk := k0
					for ; kk+4 <= k1; kk += 4 {
						quadAxpy1(drow,
							bd[kk*sb+j0:kk*sb+j1],
							bd[(kk+1)*sb+j0:(kk+1)*sb+j1],
							bd[(kk+2)*sb+j0:(kk+2)*sb+j1],
							bd[(kk+3)*sb+j0:(kk+3)*sb+j1],
							arow[kk], arow[kk+1], arow[kk+2], arow[kk+3])
					}
					for ; kk < k1; kk++ {
						av := arow[kk]
						if av == 0 {
							continue
						}
						tailAxpy1(drow, bd[kk*sb+j0:kk*sb+j1], av)
					}
				}
			}
		}
	}
}
