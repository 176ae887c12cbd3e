//go:build !amd64 || purego

package tensor

// No assembly body on this build: every lane helper is its Go body.
// useAVX2 exists so dispatch.go and the tests read one name on every build.
var useAVX2 = false

func tile4x8(d []float32, sd int, a []float32, sa int, b []float32, sb, k, j0, j1 int, bias []float32, flags int) {
	tileGo(d, sd, a, sa, b, sb, 4, k, j0, j1, bias, flags)
}

func tile2x16(d []float32, sd int, a []float32, sa int, b []float32, sb, k, j0, j1 int, bias []float32, flags int) {
	tileGo(d, sd, a, sa, b, sb, 2, k, j0, j1, bias, flags)
}

func tile1x32(d []float32, sd int, a []float32, sa int, b []float32, sb, k, j0, j1 int, bias []float32, flags int) {
	tileGo(d, sd, a, sa, b, sb, 1, k, j0, j1, bias, flags)
}

func quadAxpy1(d, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	quadAxpy1Go(d, b0, b1, b2, b3, a0, a1, a2, a3)
}

func tailAxpy1(d, b []float32, a float32) { tailAxpy1Go(d, b, a) }

func scoreRow(dst, q, k []float32, stride int) { scoreRowGo(dst, q, k, stride) }

func valueRow(dst, w, v []float32, stride int, s float32) { valueRowGo(dst, w, v, stride, s) }
