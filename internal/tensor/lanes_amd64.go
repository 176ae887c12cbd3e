//go:build amd64 && !purego

package tensor

// useAVX2 selects the assembly body of every lane helper. Set once at
// start-up from CPUID; tests flip it to run the same assertions against the
// Go body on an AVX2 host.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM state across context switches (OSXSAVE set, XCR0 bits 1 and 2).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func quadAxpy2AVX2(d0, d1, b0, b1, b2, b3 []float32,
	a00, a01, a02, a03, a10, a11, a12, a13 float32)

//go:noescape
func quadAxpy1AVX2(d, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)

//go:noescape
func tailAxpy2AVX2(d0, d1, b []float32, a0, a1 float32)

//go:noescape
func tailAxpy1AVX2(d, b []float32, a float32)

//go:noescape
func scoreRowAVX2(dst, q, k []float32, stride int)

// The assembly reads len(d0) (len(dst) for scoreRow) elements through every
// operand without checking; the reslices below are the bounds checks, and
// panic on the same short operands the Go bodies panic on.

func quadAxpy2(d0, d1, b0, b1, b2, b3 []float32,
	a00, a01, a02, a03, a10, a11, a12, a13 float32) {
	if !useAVX2 {
		quadAxpy2Go(d0, d1, b0, b1, b2, b3, a00, a01, a02, a03, a10, a11, a12, a13)
		return
	}
	n := len(d0)
	quadAxpy2AVX2(d0, d1[:n], b0[:n], b1[:n], b2[:n], b3[:n],
		a00, a01, a02, a03, a10, a11, a12, a13)
}

func quadAxpy1(d, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	if !useAVX2 {
		quadAxpy1Go(d, b0, b1, b2, b3, a0, a1, a2, a3)
		return
	}
	n := len(d)
	quadAxpy1AVX2(d, b0[:n], b1[:n], b2[:n], b3[:n], a0, a1, a2, a3)
}

func tailAxpy2(d0, d1, b []float32, a0, a1 float32) {
	if !useAVX2 {
		tailAxpy2Go(d0, d1, b, a0, a1)
		return
	}
	n := len(d0)
	tailAxpy2AVX2(d0, d1[:n], b[:n], a0, a1)
}

func tailAxpy1(d, b []float32, a float32) {
	if !useAVX2 {
		tailAxpy1Go(d, b, a)
		return
	}
	tailAxpy1AVX2(d, b[:len(d)], a)
}

func scoreRow(dst, q, k []float32, stride int) {
	if !useAVX2 || len(dst) == 0 {
		scoreRowGo(dst, q, k, stride)
		return
	}
	scoreRowAVX2(dst, q, k[:(len(dst)-1)*stride+len(q)], stride)
}
