//go:build !amd64 || purego

package tensor

// No assembly body on this build: every lane helper is its Go body.
// useAVX2 exists so dispatch.go and the tests read one name on every build.
var useAVX2 = false

func quadAxpy2(d0, d1, b0, b1, b2, b3 []float32,
	a00, a01, a02, a03, a10, a11, a12, a13 float32) {
	quadAxpy2Go(d0, d1, b0, b1, b2, b3, a00, a01, a02, a03, a10, a11, a12, a13)
}

func quadAxpy1(d, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	quadAxpy1Go(d, b0, b1, b2, b3, a0, a1, a2, a3)
}

func tailAxpy2(d0, d1, b []float32, a0, a1 float32) { tailAxpy2Go(d0, d1, b, a0, a1) }

func tailAxpy1(d, b []float32, a float32) { tailAxpy1Go(d, b, a) }

func scoreRow(dst, q, k []float32, stride int) { scoreRowGo(dst, q, k, stride) }
