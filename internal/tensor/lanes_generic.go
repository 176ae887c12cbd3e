package tensor

// The lane helpers are the innermost loops of the wide float32 kernel and of
// the attention kernels: four axpy forms over one dst row (or row pair) and
// one row-of-dot-products form. Each has one Go body (this file) and one
// AVX2 body (lanes_amd64.s); lanes_amd64.go picks per call from useAVX2,
// every other build (other GOARCH, or the purego tag) forwards straight to
// the Go body.
//
// The contract both bodies keep, element by element:
//
//	quad:  t = ((a0·v0 + a1·v1) + a2·v2) + a3·v3;  d = d + t
//	tail:  d = d + a·v
//	score: s0..s3 accumulate q[j]·k[j] for j ≡ 0..3 (mod 4), the len(q)%4
//	       leftovers go to s0, result ((s0 + s1) + s2) + s3
//
// with every multiply and every add rounded separately (never fused), which
// is the scalar kernel's order too — so wide ≡ scalar, asm ≡ Go, and a row
// computes to the same bits whatever GEMM height, worker chunk or row pairing
// it rode in. The only freedom is which NaN comes out when two meet.
// TestLaneBodiesBitwise and FuzzLaneBodies hold the two bodies together.

// quadAxpy2Go performs, for every j in [0, len(d0)):
//
//	d0[j] += a00*b0[j] + a01*b1[j] + a02*b2[j] + a03*b3[j]
//	d1[j] += a10*b0[j] + a11*b1[j] + a12*b2[j] + a13*b3[j]
//
// — one k-quad of the 2×4 register-blocked kernel across two dst rows.
// b0..b3 and d1 must be at least len(d0) long.
func quadAxpy2Go(d0, d1, b0, b1, b2, b3 []float32,
	a00, a01, a02, a03, a10, a11, a12, a13 float32) {
	n := len(d0)
	d1 = d1[:n]
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	for j := range d0 {
		v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
		d0[j] += a00*v0 + a01*v1 + a02*v2 + a03*v3
		d1[j] += a10*v0 + a11*v1 + a12*v2 + a13*v3
	}
}

// quadAxpy1Go is the one-row form of quadAxpy2Go (the odd-row remainder of
// a GEMM, and four value rows of an attention output):
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

// tailAxpy2Go is one scalar-tail k step across two dst rows:
//
//	d0[j] += a0*b[j]; d1[j] += a1*b[j]
//
// It never skips a0 == 0 — matching the paired scalar path, which always
// adds (the zero-skip short-circuit lives only on the single-row tails).
func tailAxpy2Go(d0, d1, b []float32, a0, a1 float32) {
	n := len(d0)
	d1 = d1[:n]
	b = b[:n]
	for j := range d0 {
		v := b[j]
		d0[j] += a0 * v
		d1[j] += a1 * v
	}
}

// tailAxpy1Go is one scalar-tail k step on a single dst row. Callers apply
// the single-row zero-skip (if a == 0, skip the call) exactly where the
// scalar kernel does.
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
