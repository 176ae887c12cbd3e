package tensor

import "math"

// The lane helpers are the innermost loops of the wide float32 kernel and of
// the attention kernels: three GEMM tiles (tile4x8, tile2x16, tile1x32: a
// run of register tiles, each a block of outputs over a whole k range), one
// row of dot products (scoreRow), one row of softmax exponentials (expRow)
// and one weighted sum of rows (valueRow). Each has one Go body (this file;
// the tiles share tileGo) and one AVX2 body (lanes_amd64.s); lanes_amd64.go
// picks per call from useAVX2, every other build (other GOARCH, or the
// purego tag) forwards straight to the Go body.
//
// The contract both bodies keep, element by element:
//
//	tile:  d = +0 (or d's value under tileLoad), every k-quad
//	       t = ((a0·v0 + a1·v1) + a2·v2) + a3·v3; d = d + t, then every
//	       k-tail step d = d + a·v — skipping a == 0 in a one-row tile only —
//	       then d = d + bias[j] (tileBias), then if d < 0 { d = 0 } (tileReLU,
//	       which keeps −0 and NaN)
//	score: s0..s3 accumulate q[j]·k[j] for j ≡ 0..3 (mod 4), the len(q)%4
//	       leftovers go to s0, result ((s0 + s1) + s2) + s3
//	exp:   x = scale·s; m = the largest non-NaN x (−Inf if none);
//	       e = exp32(x − m) written over s; Σe in eight lane accumulators
//	       (element t into lane t mod 8), returned as
//	       ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))
//	value: d = +0, then per key in order d = d + (w·s)·v, nothing skipped
//
// with every multiply and every add rounded separately (never fused), which
// is the scalar kernel's order too — so wide ≡ scalar, asm ≡ Go, and a row
// computes to the same bits whatever GEMM height, worker chunk or row pairing
// it rode in. The only freedom is which NaN comes out when two meet.
// TestLaneBodiesBitwise and FuzzLaneBodies hold the two bodies together.
//
// Never fused is not the Go compiler's default: it may fuse x*y + z into one
// multiply-add wherever the target has one (arm64 does), so every product
// that feeds an add in this package's Go code is rounded explicitly with a
// float32(…) (or float64(…)) conversion, which the language spec says
// prevents the fusion. CI checks the arm64 build of the package for fused
// instructions.

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
				d0[j] += float32(a00*v0) + float32(a01*v1) + float32(a02*v2) + float32(a03*v3)
				d1[j] += float32(a10*v0) + float32(a11*v1) + float32(a12*v2) + float32(a13*v3)
			}
		}
		for ; kk < k; kk++ {
			av0, av1 := ar0[kk], ar1[kk]
			brow := b[kk*sb+j0:][:w]
			for j := 0; j < w; j++ {
				d0[j] += float32(av0 * brow[j])
				d1[j] += float32(av1 * brow[j])
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
			dr[j] += float32(a0*b0[j]) + float32(a1*b1[j]) + float32(a2*b2[j]) + float32(a3*b3[j])
		}
	}
	for ; kk < k; kk++ {
		av := ar[kk]
		if av == 0 {
			continue
		}
		brow := b[kk*sb+j0:][:w]
		for j := 0; j < w; j++ {
			dr[j] += float32(av * brow[j])
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

// expRowGo is expRow's Go body: it overwrites x with the exponentials
// exp32(scale·x[t] − m), m the largest non-NaN scaled element, and returns
// their sum over the contract's eight lanes. An empty span sums to +0.
func expRowGo(x []float32, scale float32) float32 {
	m := float32(math.Inf(-1))
	for t, s := range x {
		v := scale * s
		x[t] = v
		if v > m {
			m = v
		}
	}
	var l [8]float32
	for t, v := range x {
		e := exp32(v - m)
		x[t] = e
		l[t&7] += e
	}
	return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

// exp32's constants (Cephes expf): log₂e, ln 2 split in two for the
// Cody–Waite reduction, the degree-5 polynomial for (eʳ − 1 − r)/r² on
// |r| ≤ ln2/2, and the underflow bound — just above ln 2⁻¹²⁶ ≈ −87.3365,
// so every result the exponent add builds is a normal float.
const (
	expLog2e = float32(1.44269504088896341)
	expC1    = float32(0.693359375)
	expC2    = float32(-2.12194440e-4)
	expP0    = float32(1.9875691500e-4)
	expP1    = float32(1.3981999507e-3)
	expP2    = float32(8.3334519073e-3)
	expP3    = float32(4.1665795894e-2)
	expP4    = float32(1.6666665459e-1)
	expP5    = float32(5.0000001201e-1)
	expLo    = float32(-87.33)
)

// exp32 is the pinned float32 exponential both expRow bodies compute, on
// the domain expRow gives it (x ≤ 0, or NaN):
//
//	x < expLo (−Inf and NegInf included)  →  +0
//	n = roundToEven(x·log₂e); r = (x − n·C1) − n·C2
//	y = ((((P0·r + P1)·r + P2)·r + P3)·r + P4)·r + P5
//	y = (y·r² + r) + 1;  result = y with n added to its exponent bits
//
// every operation rounded to float32 on its own. exp32(0) is exactly 1;
// TestExp32 bounds the error against math.Exp.
func exp32(x float32) float32 {
	if x < expLo {
		return 0
	}
	if x != x {
		return x
	}
	n := float32(math.RoundToEven(float64(float32(x * expLog2e))))
	r := x - float32(n*expC1)
	r -= float32(n * expC2)
	z := float32(r * r)
	y := float32(expP0*r) + expP1
	y = float32(y*r) + expP2
	y = float32(y*r) + expP3
	y = float32(y*r) + expP4
	y = float32(y*r) + expP5
	y = float32(y*z) + r + 1
	return math.Float32frombits(math.Float32bits(y) + uint32(int32(n))<<23)
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
			s0 += float32(q[j] * kr[j])
			s1 += float32(q[j+1] * kr[j+1])
			s2 += float32(q[j+2] * kr[j+2])
			s3 += float32(q[j+3] * kr[j+3])
		}
		for ; j < len(q); j++ {
			s0 += float32(q[j] * kr[j])
		}
		dst[t] = s0 + s1 + s2 + s3
	}
}

// valueRowGo writes dst[j] = Σ_t (w[t]·s)·v[t*stride+j] for every j: one
// head's attention-weighted sum of a run of value rows laid out stride floats
// apart, accumulated from +0 in key order with no term skipped. v must reach
// the end of the last value row. Like the AVX2 body it keeps a strip of dst
// (8 columns, then 4, then 1) in locals across the whole key loop, so each
// column is one accumulator chain stored once.
func valueRowGo(dst, w, v []float32, stride int, s float32) {
	j := 0
	for ; j+8 <= len(dst); j += 8 {
		var d0, d1, d2, d3, d4, d5, d6, d7 float32
		for t, wt := range w {
			a := wt * s
			vr := v[t*stride+j:][:8]
			d0 += float32(a * vr[0])
			d1 += float32(a * vr[1])
			d2 += float32(a * vr[2])
			d3 += float32(a * vr[3])
			d4 += float32(a * vr[4])
			d5 += float32(a * vr[5])
			d6 += float32(a * vr[6])
			d7 += float32(a * vr[7])
		}
		dj := dst[j : j+8]
		dj[0], dj[1], dj[2], dj[3], dj[4], dj[5], dj[6], dj[7] = d0, d1, d2, d3, d4, d5, d6, d7
	}
	for ; j+4 <= len(dst); j += 4 {
		var d0, d1, d2, d3 float32
		for t, wt := range w {
			a := wt * s
			vr := v[t*stride+j:][:4]
			d0 += float32(a * vr[0])
			d1 += float32(a * vr[1])
			d2 += float32(a * vr[2])
			d3 += float32(a * vr[3])
		}
		dj := dst[j : j+4]
		dj[0], dj[1], dj[2], dj[3] = d0, d1, d2, d3
	}
	for ; j < len(dst); j++ {
		var d float32
		for t, wt := range w {
			a := wt * s
			d += float32(a * v[t*stride+j])
		}
		dst[j] = d
	}
}
