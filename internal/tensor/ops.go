package tensor

import (
	"fmt"
	"math"
)

// Add returns a + b elementwise.
func Add(a, b *Matrix) *Matrix {
	out := a.Clone()
	AddInPlace(out, b)
	return out
}

// AddInPlace computes a += b elementwise.
func AddInPlace(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: Add shape %dx%d != %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j, v := range rb {
			ra[j] += v
		}
	}
}

// AddRowVector adds vec to every row of m in place. len(vec) must equal m.Cols.
func AddRowVector(m *Matrix, vec []float32) {
	if len(vec) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector len %d != cols %d", len(vec), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range vec {
			row[j] += v
		}
	}
}

// Scale multiplies every element of m by s in place.
func Scale(m *Matrix, s float32) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= s
		}
	}
}

// NegInf is the additive mask value that removes an entry from softmax.
// float32(-1e30) is large enough that exp underflows to exactly zero while
// staying finite under further addition.
const NegInf = float32(-1e30)

// SoftmaxRows applies a numerically stable softmax to each row of m in place.
// Rows that are entirely masked (all ≤ NegInf/2) become uniform zero rather
// than NaN so fully masked padding rows stay harmless.
func SoftmaxRows(m *Matrix) {
	if planWorkers(m.Rows, 16) == 1 {
		softmaxRowsRange(m, 0, m.Rows)
		return
	}
	parallelRows(m.Rows, 16, func(lo, hi int) {
		softmaxRowsRange(m, lo, hi)
	})
}

func softmaxRowsRange(m *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		softmaxRow(m.Row(i))
	}
}

// softmaxRow is the shared single-row softmax: stable, and all-zero for
// fully masked rows. It is the attention kernels' epilogue with a normalise
// in place of the value product: the visible span (masked ends trimmed)
// through expRow, then scaled by 1/Σ; masked entries come out exactly 0.
func softmaxRow(row []float32) {
	lo, hi := visibleSpan(row)
	clear(row[:lo])
	clear(row[hi:])
	if lo == hi {
		return
	}
	span := row[lo:hi]
	inv := 1 / expRow(span, 1)
	for j := range span {
		span[j] *= inv
	}
}

func scaleMaskSoftmaxRange(m *Matrix, scale float32, mask *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := m.Row(i)
		if mask != nil {
			mrow := mask.Row(i)
			for j, v := range row {
				row[j] = float32(v*scale) + mrow[j]
			}
		} else if scale != 1 {
			for j := range row {
				row[j] *= scale
			}
		}
		softmaxRow(row)
	}
}

// LayerNormRows normalizes each row of m in place to zero mean and unit
// variance, then applies elementwise gain and bias. len(gain) and len(bias)
// must equal m.Cols. eps stabilizes near-constant rows.
func LayerNormRows(m *Matrix, gain, bias []float32, eps float32) {
	if len(gain) != m.Cols || len(bias) != m.Cols {
		panic(fmt.Sprintf("tensor: LayerNorm gain/bias len %d/%d != cols %d", len(gain), len(bias), m.Cols))
	}
	if planWorkers(m.Rows, 16) == 1 {
		layerNormRange(m, gain, bias, eps, 0, m.Rows)
		return
	}
	parallelRows(m.Rows, 16, func(lo, hi int) {
		layerNormRange(m, gain, bias, eps, lo, hi)
	})
}

func layerNormRange(m *Matrix, gain, bias []float32, eps float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := m.Row(i)
		var mean float32
		for _, v := range row {
			mean += v
		}
		mean /= float32(len(row))
		var variance float32
		for _, v := range row {
			d := v - mean
			variance += float32(d * d)
		}
		variance /= float32(len(row))
		inv := 1 / float32(math.Sqrt(float64(variance+eps)))
		for j, v := range row {
			row[j] = float32((v-mean)*inv*gain[j]) + bias[j]
		}
	}
}

// ReLU applies max(0, x) elementwise in place.
func ReLU(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if v < 0 {
				row[j] = 0
			}
		}
	}
}

// ArgmaxRows returns, for each row, the column index of its maximum element.
func ArgmaxRows(m *Matrix) []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bestj := float32(math.Inf(-1)), 0
		for j, v := range row {
			if v > best {
				best, bestj = v, j
			}
		}
		out[i] = bestj
	}
	return out
}
