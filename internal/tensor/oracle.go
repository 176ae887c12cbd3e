package tensor

import (
	"fmt"
	"math"
)

// Oracles: the unfused, bounds-checked or plain-loop references the kernel
// tests compare the production kernels against, and the comparisons they
// compare with. No serving path calls them; DESIGN.md §18 keeps them here by
// name.

// ScaleMaskSoftmaxRows fuses the attention-score epilogue into one pass per
// row: m = softmax(m·scale + mask), with mask optional (nil means no mask).
// Equivalent to Scale + AddInPlace + SoftmaxRows but without the two extra
// full-matrix memory passes. Fully masked rows become all-zero, matching
// SoftmaxRows.
func ScaleMaskSoftmaxRows(m *Matrix, scale float32, mask *Matrix) {
	if mask != nil && (mask.Rows != m.Rows || mask.Cols != m.Cols) {
		panic(fmt.Sprintf("tensor: mask %dx%d vs scores %dx%d",
			mask.Rows, mask.Cols, m.Rows, m.Cols))
	}
	if planWorkers(m.Rows, 16) == 1 {
		scaleMaskSoftmaxRange(m, scale, mask, 0, m.Rows)
		return
	}
	parallelRows(m.Rows, 16, func(lo, hi int) {
		scaleMaskSoftmaxRange(m, scale, mask, lo, hi)
	})
}

// AttendCachedRow is the bounds-checked form of attendCachedRow, the one-row
// incremental-decode kernel AttendCachedRows shards across the pool.
func AttendCachedRow(dst, qrow []float32, keys, vals *Matrix, heads, dh int, scale float32, scores []float32) {
	if len(dst) != heads*dh || len(qrow) != heads*dh {
		panic(fmt.Sprintf("tensor: cached attend dst/q len %d/%d != %d", len(dst), len(qrow), heads*dh))
	}
	if keys.Rows != vals.Rows || keys.Cols != heads*dh || vals.Cols != heads*dh {
		panic(fmt.Sprintf("tensor: cached attend keys %dx%d vals %dx%d", keys.Rows, keys.Cols, vals.Rows, vals.Cols))
	}
	if len(scores) < keys.Rows {
		panic(fmt.Sprintf("tensor: cached attend scores len %d < %d", len(scores), keys.Rows))
	}
	attendCachedRow(dst, qrow, keys, vals, heads, dh, scale, scores)
}

// FromSlice wraps data as a rows×cols matrix without copying.
// It panics if len(data) != rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Equal reports whether m and other have the same shape and elements.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		a, b := m.Row(i), other.Row(i)
		for j, v := range a {
			if v != b[j] {
				return false
			}
		}
	}
	return true
}

// AllClose reports whether m and other have the same shape and every pair of
// elements differs by at most tol (absolute) or tol (relative to magnitude).
func (m *Matrix) AllClose(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		ra, rb := m.Row(i), other.Row(i)
		for j, v := range ra {
			a, b := float64(v), float64(rb[j])
			diff := math.Abs(a - b)
			if diff > tol && diff > tol*math.Max(math.Abs(a), math.Abs(b)) {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference between m
// and other. Shapes must match.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var worst float64
	for i := 0; i < m.Rows; i++ {
		ra, rb := m.Row(i), other.Row(i)
		for j, v := range ra {
			d := math.Abs(float64(v) - float64(rb[j]))
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Dequantize expands the quantized weights back to float32 — the reference
// the bounded-error tests compare against; not used on the hot path.
func (q *QuantizedMatrix) Dequantize() *Matrix {
	m := New(q.Rows, q.Cols)
	for i := 0; i < q.Rows; i++ {
		src := q.Row(i)
		dst := m.Row(i)
		for j, v := range src {
			dst[j] = float32(v) * q.Scales[j]
		}
	}
	return m
}
