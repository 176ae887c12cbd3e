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
func tile4x8AVX2(d []float32, sd int, a []float32, sa int, b []float32, sb, k, n int, bias []float32, flags int)

//go:noescape
func tile2x16AVX2(d []float32, sd int, a []float32, sa int, b []float32, sb, k, n int, bias []float32, flags int)

//go:noescape
func tile1x32AVX2(d []float32, sd int, a []float32, sa int, b []float32, sb, k, n int, bias []float32, flags int)

//go:noescape
func scoreRowAVX2(dst, q, k []float32, stride int)

//go:noescape
func expRowAVX2(x []float32, scale float32) float32

//go:noescape
func valueRowAVX2(dst, w, v []float32, stride int, s float32)

// The assembly reads and writes through every operand without checking; the
// reslices below are the bounds checks, and panic on the same short operands
// the Go bodies panic on.

func tile4x8(d []float32, sd int, a []float32, sa int, b []float32, sb, k, j0, j1 int, bias []float32, flags int) {
	tileRun(tile4x8AVX2, 4, 8, d, sd, a, sa, b, sb, k, j0, j1, bias, flags)
}

func tile2x16(d []float32, sd int, a []float32, sa int, b []float32, sb, k, j0, j1 int, bias []float32, flags int) {
	tileRun(tile2x16AVX2, 2, 16, d, sd, a, sa, b, sb, k, j0, j1, bias, flags)
}

func tile1x32(d []float32, sd int, a []float32, sa int, b []float32, sb, k, j0, j1 int, bias []float32, flags int) {
	tileRun(tile1x32AVX2, 1, 32, d, sd, a, sa, b, sb, k, j0, j1, bias, flags)
}

// tileRun runs an h×w tile helper's assembly body on the full w-column tiles
// of columns [j0, j1) and its Go body on the rest, cutting the operands to
// exactly the rows, columns and k steps the assembly touches.
func tileRun(asm func(d []float32, sd int, a []float32, sa int, b []float32, sb, k, n int, bias []float32, flags int),
	h, w int, d []float32, sd int, a []float32, sa int, b []float32, sb, k, j0, j1 int, bias []float32, flags int) {
	m := j0
	if useAVX2 && k > 0 {
		m += (j1 - j0) / w * w
	}
	if m > j0 {
		var bm []float32
		if flags&tileBias != 0 {
			bm = bias[j0:m]
		}
		asm(d[j0:(h-1)*sd+m], sd, a[:(h-1)*sa+k], sa, b[j0:(k-1)*sb+m], sb, k, m-j0, bm, flags)
	}
	tileGo(d, sd, a, sa, b, sb, h, k, m, j1, bias, flags)
}

func scoreRow(dst, q, k []float32, stride int) {
	if !useAVX2 || len(dst) == 0 {
		scoreRowGo(dst, q, k, stride)
		return
	}
	scoreRowAVX2(dst, q, k[:(len(dst)-1)*stride+len(q)], stride)
}

func expRow(x []float32, scale float32) float32 {
	if !useAVX2 || len(x) == 0 {
		return expRowGo(x, scale)
	}
	return expRowAVX2(x, scale)
}

func valueRow(dst, w, v []float32, stride int, s float32) {
	if !useAVX2 || len(w) == 0 {
		valueRowGo(dst, w, v, stride, s)
		return
	}
	valueRowAVX2(dst, w, v[:(len(w)-1)*stride+len(dst)], stride, s)
}
