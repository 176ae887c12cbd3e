package tensor

// The wide float32 kernel: the same row ranges and cache tiling as
// matmul.go/blocked.go, with every output computed by a register tile of
// lanes_generic.go (AVX2 assembly on amd64, plain Go elsewhere) that runs a
// whole k range and stores each output once. The per-element order — k quads
// left to right, then the k tail, with a single row skipping zero
// multipliers on the tail exactly like the scalar kernel — is unchanged, so
// every dst element is bitwise identical to the scalar kernel's. mulDispatch
// routes here by default; SetKernel(KernelScalar) selects the reference.

// wideBlock computes dst[i0:i1, j0:j1] over the k range [k0, k1) with the
// given tile flags: rows go four at a time to tile4x8, a 2–3-row remainder
// to tile2x16 and a last single row to tile1x32, each call covering the
// block's columns.
func wideBlock(dst, a, b *Matrix, i0, i1, j0, j1, k0, k1 int, bias []float32, flags int) {
	sd, sa, sb := dst.stride(), a.stride(), b.stride()
	bd, k := b.Data[k0*sb:], k1-k0
	i := i0
	for ; i+4 <= i1; i += 4 {
		tile4x8(dst.Data[i*sd:], sd, a.Data[i*sa+k0:], sa, bd, sb, k, j0, j1, bias, flags)
	}
	if i+2 <= i1 {
		tile2x16(dst.Data[i*sd:], sd, a.Data[i*sa+k0:], sa, bd, sb, k, j0, j1, bias, flags)
		i += 2
	}
	if i < i1 {
		tile1x32(dst.Data[i*sd:], sd, a.Data[i*sa+k0:], sa, bd, sb, k, j0, j1, bias, flags)
	}
}

// matMulWideSmall is the streaming kernel for small operands, wide form.
// epi holds the tileBias and tileReLU flags the product ends with.
func matMulWideSmall(dst, a, b *Matrix, bias []float32, epi int) {
	n := a.Rows
	if planWorkers(n, 8) == 1 {
		matMulWideRange(dst, a, b, 0, n, bias, epi)
		return
	}
	parallelRows(n, 8, func(lo, hi int) {
		matMulWideRange(dst, a, b, lo, hi, bias, epi)
	})
}

// matMulWideRange computes dst rows [lo, hi) over the whole k range; an odd
// row count leaves the last row to the one-row tile, as matMulSmallRange
// leaves it to its single-row path.
func matMulWideRange(dst, a, b *Matrix, lo, hi int, bias []float32, epi int) {
	wideBlock(dst, a, b, lo, hi, 0, b.Cols, 0, a.Cols, bias, epi)
}

// matMulWideBlocked is matMulWideSmall with the blocked kernel's cache
// tiling; mulWide routes large products here.
func matMulWideBlocked(dst, a, b *Matrix, bias []float32, epi int) {
	n := a.Rows
	nTiles := (n + blockSize - 1) / blockSize
	if planWorkers(nTiles, 1) == 1 {
		matMulWideBlockedTiles(dst, a, b, 0, nTiles, bias, epi)
		return
	}
	parallelRows(nTiles, 1, func(tLo, tHi int) {
		matMulWideBlockedTiles(dst, a, b, tLo, tHi, bias, epi)
	})
}

// matMulWideBlockedTiles runs row tiles [tLo, tHi). The first k-block
// starts each output from +0, later ones load it, add their quads and store
// it again — the per-element sequence of one pass, since k-block edges are
// multiples of four — and the last adds the epi flags.
func matMulWideBlockedTiles(dst, a, b *Matrix, tLo, tHi int, bias []float32, epi int) {
	n, k, p := a.Rows, a.Cols, b.Cols
	for ti := tLo; ti < tHi; ti++ {
		i0 := ti * blockSize
		i1 := min(i0+blockSize, n)
		for k0 := 0; k0 < k; k0 += blockSize {
			k1 := min(k0+blockSize, k)
			flags := 0
			if k0 > 0 {
				flags |= tileLoad
			}
			if k1 == k {
				flags |= epi
			}
			for j0 := 0; j0 < p; j0 += blockSize {
				wideBlock(dst, a, b, i0, i1, j0, min(j0+blockSize, p), k0, k1, bias, flags)
			}
		}
	}
}
