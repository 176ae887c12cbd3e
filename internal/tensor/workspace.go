package tensor

import (
	"math/bits"
	"sync"
)

// Workspace bucket geometry: buffers are rounded up to powers of two between
// 2^minBucketBits and 2^maxBucketBits floats. Requests above the ceiling are
// allocated directly and never pooled (they would pin too much memory).
const (
	minBucketBits = 6  // 64 floats (256 B) — below this, rounding waste is noise
	maxBucketBits = 26 // 64M floats (256 MB) ceiling per pooled buffer
)

// Workspace is a checkout/release arena of size-bucketed float32 matrices
// for the inference hot path. Get returns a matrix backed by a pooled
// power-of-two buffer; Put returns it for reuse. A warm workspace (every
// bucket it needs already populated) serves Get/Put with zero heap
// allocations, which is what makes steady-state decoding allocation-free.
//
// A Workspace is NOT safe for concurrent use: it is meant to be owned by one
// goroutine (one batch row of the engine). Workspaces themselves are
// recycled through a package-level sync.Pool, so buffers survive across
// batches: obtain one with NewWorkspace and return it with Close.
type Workspace struct {
	free   [maxBucketBits + 1][]*Matrix
	freeI8 [maxBucketBits + 1][]*I8Matrix
	blocks []AttendBlock
}

var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// NewWorkspace checks a workspace out of the process-wide pool. The caller
// must Close it when done so its buffers can serve the next batch.
func NewWorkspace() *Workspace {
	return wsPool.Get().(*Workspace)
}

// Close returns the workspace (and every buffer that has been Put back) to
// the process-wide pool. The caller must not use the workspace, or any
// matrix still checked out of it, after Close. Close on nil is a no-op.
func (w *Workspace) Close() {
	if w == nil {
		return
	}
	wsPool.Put(w)
}

// bucketFor returns the bucket index whose buffers hold ≥ n floats.
func bucketFor(n int) int {
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b < minBucketBits {
		b = minBucketBits
	}
	return b
}

// Get checks out a rows×cols matrix. Contents are unspecified (callers
// overwrite). A nil workspace degrades to a plain allocation, so workspace-threaded code paths
// also work without one.
func (w *Workspace) Get(rows, cols int) *Matrix {
	if w == nil {
		return New(rows, cols)
	}
	n := rows * cols
	if n == 0 {
		return &Matrix{Rows: rows, Cols: cols}
	}
	b := bucketFor(n)
	if b <= maxBucketBits {
		if fl := w.free[b]; len(fl) > 0 {
			m := fl[len(fl)-1]
			fl[len(fl)-1] = nil
			w.free[b] = fl[:len(fl)-1]
			m.Rows, m.Cols, m.Stride = rows, cols, 0
			m.Data = m.Data[:cap(m.Data)][:n]
			return m
		}
		return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, 1<<b)[:n]}
	}
	return New(rows, cols)
}

// Put releases a matrix previously returned by Get for reuse. Only matrices
// whose backing buffer is a full power-of-two block are pooled (views into
// other matrices are silently dropped). Put on a nil workspace or nil matrix
// is a no-op. The caller must not use m after Put.
func (w *Workspace) Put(m *Matrix) {
	if w == nil || m == nil {
		return
	}
	c := cap(m.Data)
	if c == 0 {
		return
	}
	b := bits.Len(uint(c)) - 1 // floor(log2 c)
	if 1<<b != c || b < minBucketBits || b > maxBucketBits {
		return // not a pooled power-of-two buffer — let GC have it
	}
	m.Stride = 0
	m.Data = m.Data[:c]
	w.free[b] = append(w.free[b], m)
}

// Blocks returns an n-entry attention block list backed by the workspace's
// one reusable array: contents are unspecified, and the list is valid until
// the next Blocks call on this workspace (one encoder forward holds one list
// across its layers). A nil workspace degrades to a plain allocation.
func (w *Workspace) Blocks(n int) []AttendBlock {
	if w == nil {
		return make([]AttendBlock, n)
	}
	if cap(w.blocks) < n {
		w.blocks = make([]AttendBlock, n)
	}
	return w.blocks[:n]
}

// GetI8 checks out a rows×cols int8 matrix from the workspace's int8 buckets
// (the quantized GEMM's per-call activation scratch). Contents are
// unspecified. A nil workspace degrades to a plain allocation. Like the rest
// of int8.go it has no serving caller; it stays for the benchmark's probe.
func (w *Workspace) GetI8(rows, cols int) *I8Matrix {
	n := rows * cols
	if w == nil {
		return &I8Matrix{Rows: rows, Cols: cols, Data: make([]int8, n)}
	}
	if n == 0 {
		return &I8Matrix{Rows: rows, Cols: cols}
	}
	b := bucketFor(n)
	if b <= maxBucketBits {
		if fl := w.freeI8[b]; len(fl) > 0 {
			m := fl[len(fl)-1]
			fl[len(fl)-1] = nil
			w.freeI8[b] = fl[:len(fl)-1]
			m.Rows, m.Cols = rows, cols
			m.Data = m.Data[:cap(m.Data)][:n]
			return m
		}
		return &I8Matrix{Rows: rows, Cols: cols, Data: make([]int8, 1<<b)[:n]}
	}
	return &I8Matrix{Rows: rows, Cols: cols, Data: make([]int8, n)}
}

// PutI8 releases an int8 matrix previously returned by GetI8. Same pooling
// rules as Put: only full power-of-two buffers are kept.
func (w *Workspace) PutI8(m *I8Matrix) {
	if w == nil || m == nil {
		return
	}
	c := cap(m.Data)
	if c == 0 {
		return
	}
	b := bits.Len(uint(c)) - 1
	if 1<<b != c || b < minBucketBits || b > maxBucketBits {
		return
	}
	m.Data = m.Data[:c]
	w.freeI8[b] = append(w.freeI8[b], m)
}
