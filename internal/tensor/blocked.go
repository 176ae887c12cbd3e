package tensor

import "fmt"

// blockSize is the tile edge for the blocked kernel: 128×128 float32 tiles
// (64 KiB per operand tile) keep the a, b and dst tiles L2-resident while
// giving each GEMM tile helper call 128 columns to amortize itself over.
const blockSize = 128

// matMulThreshold is the size of the right operand (k×p floats) from which
// MatMulInto and MatMulTInto switch to the blocked kernel. The streaming
// kernel re-reads all of b for every dst row (pair); that costs nothing while
// b stays in L2, and its longer rows and lower bookkeeping win there at every
// height measured. Past ~2 MiB of b, tiling wins (EXPERIMENTS.md, PR 15).
const matMulThreshold = 1 << 19

// MatMulBlocked computes dst = a × b with cache-blocked tiling. Exposed for
// benchmarks and tests; MatMulInto dispatches to it automatically for large
// operands.
func MatMulBlocked(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulBlocked inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBlocked dst %dx%d != %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	n := a.Rows
	dst.Zero()
	// Parallelize over row-tiles; each worker owns disjoint dst rows.
	nTiles := (n + blockSize - 1) / blockSize
	if planWorkers(nTiles, 1) == 1 {
		matMulBlockedTiles(dst, a, b, 0, nTiles)
		return
	}
	parallelRows(nTiles, 1, func(tLo, tHi int) {
		matMulBlockedTiles(dst, a, b, tLo, tHi)
	})
}

func matMulBlockedTiles(dst, a, b *Matrix, tLo, tHi int) {
	n, k, p := a.Rows, a.Cols, b.Cols
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
				// Micro-kernel on the (i, k) × (k, j) tile pair: two dst
				// rows per pass with four k-steps fused, exactly
				// matMulSmallRange's register blocking. Tile boundaries are
				// multiples of four, so each row's accumulation order (k
				// quads, then a scalar tail) matches the small kernel's and
				// results per row are bitwise kernel-independent.
				sb := b.stride()
				bd := b.Data
				i := i0
				for ; i+2 <= i1; i += 2 {
					ar0, ar1 := a.Row(i), a.Row(i+1)
					d0 := dst.Row(i)[j0:j1]
					d1 := dst.Row(i + 1)[j0:j1]
					kk := k0
					for ; kk+4 <= k1; kk += 4 {
						a00, a01, a02, a03 := ar0[kk], ar0[kk+1], ar0[kk+2], ar0[kk+3]
						a10, a11, a12, a13 := ar1[kk], ar1[kk+1], ar1[kk+2], ar1[kk+3]
						b0 := bd[kk*sb+j0 : kk*sb+j1]
						b1 := bd[(kk+1)*sb+j0 : (kk+1)*sb+j1]
						b2 := bd[(kk+2)*sb+j0 : (kk+2)*sb+j1]
						b3 := bd[(kk+3)*sb+j0 : (kk+3)*sb+j1]
						for j := range d0 {
							v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
							d0[j] += a00*v0 + a01*v1 + a02*v2 + a03*v3
							d1[j] += a10*v0 + a11*v1 + a12*v2 + a13*v3
						}
					}
					for ; kk < k1; kk++ {
						av0, av1 := ar0[kk], ar1[kk]
						brow := bd[kk*sb+j0 : kk*sb+j1]
						for j := range d0 {
							d0[j] += av0 * brow[j]
							d1[j] += av1 * brow[j]
						}
					}
				}
				for ; i < i1; i++ {
					arow := a.Row(i)
					drow := dst.Row(i)[j0:j1]
					kk := k0
					for ; kk+4 <= k1; kk += 4 {
						a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
						b0 := bd[kk*sb+j0 : kk*sb+j1]
						b1 := bd[(kk+1)*sb+j0 : (kk+1)*sb+j1]
						b2 := bd[(kk+2)*sb+j0 : (kk+2)*sb+j1]
						b3 := bd[(kk+3)*sb+j0 : (kk+3)*sb+j1]
						for j := range drow {
							drow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
						}
					}
					for ; kk < k1; kk++ {
						av := arow[kk]
						if av == 0 {
							continue
						}
						brow := bd[kk*sb+j0 : kk*sb+j1]
						for j := range drow {
							drow[j] += av * brow[j]
						}
					}
				}
			}
		}
	}
}

// MatMulTBlocked computes dst = a × bᵀ with cache-blocked tiling over the
// query rows, key rows and the shared inner dimension. Q·Kᵀ — the largest
// matmul in attention — lands here via MatMulTInto's size dispatch; at
// attention shapes (long rows, modest inner dim) the j/k tiling keeps the
// active slices of b resident in L1/L2 across an entire i-tile.
func MatMulTBlocked(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTBlocked inner dims %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTBlocked dst %dx%d != %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	n := a.Rows
	dst.Zero()
	nTiles := (n + blockSize - 1) / blockSize
	if planWorkers(nTiles, 1) == 1 {
		matMulTBlockedTiles(dst, a, b, 0, nTiles)
		return
	}
	parallelRows(nTiles, 1, func(tLo, tHi int) {
		matMulTBlockedTiles(dst, a, b, tLo, tHi)
	})
}

func matMulTBlockedTiles(dst, a, b *Matrix, tLo, tHi int) {
	n, k, p := a.Rows, a.Cols, b.Rows
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
				// dst[i][j] += a[i][k0:k1] · b[j][k0:k1] on the tile pair.
				for i := i0; i < i1; i++ {
					arow := a.Row(i)[k0:k1]
					drow := dst.Row(i)
					for j := j0; j < j1; j++ {
						drow[j] += dotUnrolled(arow, b.Row(j)[k0:k1])
					}
				}
			}
		}
	}
}
