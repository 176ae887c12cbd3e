// Package tensor provides the dense float32 math substrate used by the TCB
// transformer engine: row-major matrices, parallel blocked matrix
// multiplication, softmax, layer normalization and elementwise activations.
//
// The package is deliberately small and allocation-conscious: every routine
// that produces a matrix has an "into" variant so hot loops in the inference
// engine can reuse buffers, and Workspace provides size-bucketed pooled
// buffers for fully allocation-free steady-state inference. Parallel kernels
// shard rows across a bounded worker pool sized by GOMAXPROCS; on a single
// hardware thread every kernel runs inline with no goroutines.
package tensor

import (
	"fmt"
)

// Matrix is a dense row-major float32 matrix, optionally strided.
//
// The zero value is an empty 0×0 matrix. Element (i, j) lives at
// Data[i*stride+j] where stride is Stride when non-zero and Cols otherwise.
// A Stride of 0 (the common case) means rows are packed back to back;
// Stride > Cols describes a column range of a wider matrix; every routine
// honours it, and View keeps it.
type Matrix struct {
	Rows, Cols int
	// Stride is the row stride in elements; 0 means Cols (contiguous).
	Stride int
	Data   []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// stride returns the effective row stride.
func (m *Matrix) stride() int {
	if m.Stride != 0 {
		return m.Stride
	}
	return m.Cols
}

// Contiguous reports whether the matrix rows are packed back to back, i.e.
// Data[:Rows*Cols] holds every element in row-major order.
func (m *Matrix) Contiguous() bool {
	return m.Stride == 0 || m.Stride == m.Cols || m.Rows <= 1
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 {
	m.check(i, j)
	return m.Data[i*m.stride()+j]
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range %d", i, m.Rows))
	}
	s := m.stride()
	return m.Data[i*s : i*s+m.Cols]
}

// Clone returns a deep (contiguous) copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	out.CopyFrom(m)
	return out
}

// CopyFrom copies src into m. Shapes must match; strides may differ.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape %dx%d != %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	if m.Contiguous() && src.Contiguous() {
		copy(m.Data[:m.Rows*m.Cols], src.Data[:src.Rows*src.Cols])
		return
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	if m.Contiguous() {
		data := m.Data[:m.Rows*m.Cols]
		for i := range data {
			data[i] = 0
		}
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float32) {
	if m.Contiguous() {
		data := m.Data[:m.Rows*m.Cols]
		for i := range data {
			data[i] = v
		}
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// Slice returns a view-free copy of rows [r0, r1).
func (m *Matrix) Slice(r0, r1 int) *Matrix {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic(fmt.Sprintf("tensor: Slice [%d,%d) out of range %d", r0, r1, m.Rows))
	}
	out := New(r1-r0, m.Cols)
	for i := r0; i < r1; i++ {
		copy(out.Row(i-r0), m.Row(i))
	}
	return out
}

// View returns a sub-matrix sharing storage with m covering rows [r0, r1).
// Mutations through the view are visible in m.
func (m *Matrix) View(r0, r1 int) *Matrix {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic(fmt.Sprintf("tensor: View [%d,%d) out of range %d", r0, r1, m.Rows))
	}
	s := m.stride()
	if r0 == r1 {
		return &Matrix{Rows: 0, Cols: m.Cols, Stride: m.Stride}
	}
	return &Matrix{Rows: r1 - r0, Cols: m.Cols, Stride: m.Stride,
		Data: m.Data[r0*s : (r1-1)*s+m.Cols]}
}

// Resize reshapes m in place to rows×cols, reusing its backing storage.
// The contents become unspecified. It panics if the backing array is too
// small; grow-capable callers should use AppendRow or allocate anew.
func (m *Matrix) Resize(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	if rows*cols > cap(m.Data) {
		panic(fmt.Sprintf("tensor: Resize %dx%d exceeds capacity %d", rows, cols, cap(m.Data)))
	}
	m.Rows, m.Cols, m.Stride = rows, cols, 0
	m.Data = m.Data[:rows*cols]
}

// AppendRow appends one row (len must equal Cols) to a contiguous matrix,
// growing the backing array geometrically when needed. With pre-reserved
// capacity the append performs no allocation — the KV-cache hot path.
func (m *Matrix) AppendRow(row []float32) {
	if len(row) != m.Cols {
		panic(fmt.Sprintf("tensor: AppendRow len %d != cols %d", len(row), m.Cols))
	}
	if !m.Contiguous() {
		panic("tensor: AppendRow on strided view")
	}
	n := m.Rows * m.Cols
	if n+m.Cols > cap(m.Data) {
		grown := make([]float32, n, growCap(n+m.Cols, 2*cap(m.Data)))
		copy(grown, m.Data[:n])
		m.Data = grown
	}
	m.Data = m.Data[:n+m.Cols]
	copy(m.Data[n:], row)
	m.Rows++
	m.Stride = 0
}

func growCap(need, doubled int) int {
	if doubled > need {
		return doubled
	}
	return need
}

// String renders small matrices for debugging; large matrices are summarized.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.3g", m.At(i, j))
		}
	}
	return s + "]"
}
