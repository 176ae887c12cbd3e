package tensor

// The lane helpers are the innermost loops of the wide float32 kernel and of
// the attention kernels: three GEMM tiles (tile4x8, tile2x16, tile1x32: a
// run of register tiles, each a block of outputs over a whole k range), two
// axpy forms over one dst row (quadAxpy1, tailAxpy1), one row of dot
// products (scoreRow) and one weighted sum of rows (valueRow). Each has one
// Go body (this file; the tiles share tileGo) and one AVX2 body
// (lanes_amd64.s); lanes_amd64.go picks per call from useAVX2, every other
// build (other GOARCH, or the purego tag) forwards straight to the Go body.
//
// The contract both bodies keep, element by element:
//
//	quad:  t = ((a0·v0 + a1·v1) + a2·v2) + a3·v3;  d = d + t
//	tail:  d = d + a·v
//	tile:  d = +0 (or d's value under tileLoad), every k-quad, then every
//	       k-tail step — skipping a == 0 in a one-row tile only — then
//	       d = d + bias[j] (tileBias), then if d < 0 { d = 0 } (tileReLU,
//	       which keeps −0 and NaN)
//	score: s0..s3 accumulate q[j]·k[j] for j ≡ 0..3 (mod 4), the len(q)%4
//	       leftovers go to s0, result ((s0 + s1) + s2) + s3
//	value: d = +0, then per key in order d = d + (w·s)·v, nothing skipped
//
// with every multiply and every add rounded separately (never fused), which
// is the scalar kernel's order too — so wide ≡ scalar, asm ≡ Go, and a row
// computes to the same bits whatever GEMM height, worker chunk or row pairing
// it rode in. The only freedom is which NaN comes out when two meet.
// TestLaneBodiesBitwise and FuzzLaneBodies hold the two bodies together.

// Tile flags: what a GEMM tile does besides d = a·b over its k range.
const (
	tileLoad = 1 << iota // accumulate onto d instead of starting from +0
	tileBias             // after the last k step, d = d + bias[j]
	tileReLU             // then if d < 0 { d = 0 }
)

// tileGo is the Go body of the three GEMM tile helpers, and the columns past
// a helper's last full tile. It computes columns [j0, j1) of the rows-row
// block
//
//	d[r*sd+j] = (d or +0) + Σ_kk a[r*sa+kk]·b[kk*sb+j]   (r < rows, kk < k)
//
// in the contract's order, then the bias and ReLU steps flags ask for, two
// rows per pass so each b element is loaded once for both. Tiles are 4, 2 or
// 1 rows tall, so a row left over from the pairs is a one-row tile, and only
// it skips zero multipliers on the k tail, as the scalar kernel's single row
// does.
func tileGo(d []float32, sd int, a []float32, sa int, b []float32, sb, rows, k, j0, j1 int, bias []float32, flags int) {
	w := j1 - j0
	if w <= 0 {
		return
	}
	r := 0
	for ; r+2 <= rows; r += 2 {
		d0, d1 := d[r*sd+j0:][:w], d[(r+1)*sd+j0:][:w]
		ar0, ar1 := a[r*sa:][:k], a[(r+1)*sa:][:k]
		if flags&tileLoad == 0 {
			clear(d0)
			clear(d1)
		}
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			a00, a01, a02, a03 := ar0[kk], ar0[kk+1], ar0[kk+2], ar0[kk+3]
			a10, a11, a12, a13 := ar1[kk], ar1[kk+1], ar1[kk+2], ar1[kk+3]
			b0 := b[kk*sb+j0:][:w]
			b1 := b[(kk+1)*sb+j0:][:w]
			b2 := b[(kk+2)*sb+j0:][:w]
			b3 := b[(kk+3)*sb+j0:][:w]
			for j := 0; j < w; j++ {
				v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
				d0[j] += a00*v0 + a01*v1 + a02*v2 + a03*v3
				d1[j] += a10*v0 + a11*v1 + a12*v2 + a13*v3
			}
		}
		for ; kk < k; kk++ {
			av0, av1 := ar0[kk], ar1[kk]
			brow := b[kk*sb+j0:][:w]
			for j := 0; j < w; j++ {
				d0[j] += av0 * brow[j]
				d1[j] += av1 * brow[j]
			}
		}
		tileEpilogueGo(d0, bias, j0, flags)
		tileEpilogueGo(d1, bias, j0, flags)
	}
	if r == rows {
		return
	}
	dr, ar := d[r*sd+j0:][:w], a[r*sa:][:k]
	if flags&tileLoad == 0 {
		clear(dr)
	}
	kk := 0
	for ; kk+4 <= k; kk += 4 {
		a0, a1, a2, a3 := ar[kk], ar[kk+1], ar[kk+2], ar[kk+3]
		b0 := b[kk*sb+j0:][:w]
		b1 := b[(kk+1)*sb+j0:][:w]
		b2 := b[(kk+2)*sb+j0:][:w]
		b3 := b[(kk+3)*sb+j0:][:w]
		for j := 0; j < w; j++ {
			dr[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; kk < k; kk++ {
		av := ar[kk]
		if av == 0 {
			continue
		}
		brow := b[kk*sb+j0:][:w]
		for j := 0; j < w; j++ {
			dr[j] += av * brow[j]
		}
	}
	tileEpilogueGo(dr, bias, j0, flags)
}

// tileEpilogueGo applies a tile row's bias and ReLU steps; the row's first
// column is bias[j0].
func tileEpilogueGo(dr, bias []float32, j0, flags int) {
	if flags&tileBias != 0 {
		bias := bias[j0:][:len(dr)]
		for j := range dr {
			dr[j] += bias[j]
		}
	}
	if flags&tileReLU != 0 {
		for j, v := range dr {
			if v < 0 {
				dr[j] = 0
			}
		}
	}
}

// quadAxpy1Go adds four weighted rows to one dst row (four value rows of an
// attention output):
//
//	d[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
func quadAxpy1Go(d, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	n := len(d)
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	for j := range d {
		d[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// tailAxpy1Go adds one weighted row to one dst row:
//
//	d[j] += a*b[j]
func tailAxpy1Go(d, b []float32, a float32) {
	b = b[:len(d)]
	for j := range d {
		d[j] += a * b[j]
	}
}

// scoreRowGo writes dst[t] = q · k[t*stride : t*stride+len(q)] for every t:
// one query head against a run of keys laid out stride floats apart. k must
// reach the end of the last key.
func scoreRowGo(dst, q, k []float32, stride int) {
	for t := range dst {
		kr := k[t*stride : t*stride+len(q)]
		var s0, s1, s2, s3 float32
		j := 0
		for ; j+4 <= len(q); j += 4 {
			s0 += q[j] * kr[j]
			s1 += q[j+1] * kr[j+1]
			s2 += q[j+2] * kr[j+2]
			s3 += q[j+3] * kr[j+3]
		}
		for ; j < len(q); j++ {
			s0 += q[j] * kr[j]
		}
		dst[t] = s0 + s1 + s2 + s3
	}
}

// valueRowGo writes dst[j] = Σ_t (w[t]·s)·v[t*stride+j] for every j: one
// head's attention-weighted sum of a run of value rows laid out stride floats
// apart, accumulated from +0 in key order with no term skipped. v must reach
// the end of the last value row.
func valueRowGo(dst, w, v []float32, stride int, s float32) {
	clear(dst)
	for t, wt := range w {
		a := wt * s
		vr := v[t*stride:][:len(dst)]
		for j := range dst {
			dst[j] += a * vr[j]
		}
	}
}
