package tensor

import (
	"fmt"
	"sync/atomic"
)

// Kernel selects which float32 GEMM micro-kernel mulDispatch routes MatMul
// through. Both kernels share the pinned per-row accumulation-order contract
// (k-quads then a scalar tail, independent of GEMM height, worker chunking
// and row pairing), so switching kernels never changes a single output bit —
// the wide kernel is the default and the scalar kernel remains as the
// reference the equality tests and A/B benchmarks compare against.
type Kernel int32

const (
	// KernelWide is the register-tiled 8-lane kernel: every output is
	// computed by a GEMM tile helper of lanes_generic.go — AVX2 assembly on
	// amd64 CPUs that have it, plain Go elsewhere — keeping each element's
	// k-accumulation order bitwise identical to the scalar kernel's.
	KernelWide Kernel = iota
	// KernelScalar is the PR 2 reference: 2×4 register blocking with plain
	// slice indexing. Reference and measurement code only: the equality
	// tests and the benchmark's GEMM probe select it, no serving path does.
	KernelScalar
)

func (k Kernel) String() string {
	switch k {
	case KernelWide:
		return "wide"
	case KernelScalar:
		return "scalar"
	default:
		return fmt.Sprintf("Kernel(%d)", int32(k))
	}
}

// ParseKernel converts a kernel name to a Kernel. No serving binary selects
// a kernel any more; the frozen benchmark module (bench/) still calls it.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "wide":
		return KernelWide, nil
	case "scalar":
		return KernelScalar, nil
	default:
		return 0, fmt.Errorf("tensor: unknown kernel %q (want scalar or wide)", s)
	}
}

// activeKernel is the process-wide float32 kernel selection. Reads are a
// single atomic load on the GEMM dispatch path.
var activeKernel atomic.Int32 // KernelWide (zero value) by default

// SetKernel selects the float32 GEMM kernel for every subsequent MatMul
// dispatch, process-wide. Outputs are bitwise identical either way; the
// switch exists for tests and the benchmark's per-kernel GEMM probe, and
// nothing that serves traffic calls it.
func SetKernel(k Kernel) { activeKernel.Store(int32(k)) }

// ActiveKernel returns the current float32 kernel selection.
func ActiveKernel() Kernel { return Kernel(activeKernel.Load()) }

// Per-path dispatch counters: which GEMM kernel actually served traffic.
// Incremented once per MatMul/MatMulT dispatch (not per tile or worker
// chunk); the serve layer snapshots them into Stats so deployed replicas
// report the paths their FLOPs flowed through. Serving only ever takes the
// wide kernel; Scalar and Int8 move only under tests and the benchmark's
// probes, which still read them.
var (
	scalarCalls atomic.Uint64
	wideCalls   atomic.Uint64
	int8Calls   atomic.Uint64
)

// KernelCounts is a point-in-time snapshot of GEMM dispatches per kernel
// path since process start.
type KernelCounts struct {
	Scalar uint64 `json:"scalar"` // 2×4 register-blocked float32 dispatches
	Wide   uint64 `json:"wide"`   // 8-lane float32 dispatches
	Int8   uint64 `json:"int8"`   // per-channel quantized int8 GEMMs
	// ISA names the body serving the wide kernel's and the attention
	// kernels' lane helpers: "avx2" (assembly) or "go".
	ISA string `json:"isa"`
}

// KernelCounters returns the process-wide kernel dispatch counters.
func KernelCounters() KernelCounts {
	return KernelCounts{
		Scalar: scalarCalls.Load(),
		Wide:   wideCalls.Load(),
		Int8:   int8Calls.Load(),
		ISA:    laneISA(),
	}
}

func laneISA() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// mulDispatch picks the float32 kernel by the size of b and the process-wide
// kernel selection. Every path computes each dst row with the identical
// per-row accumulation order, so the choice is invisible in the output.
func mulDispatch(dst, a, b *Matrix) {
	if ActiveKernel() == KernelWide {
		mulWide(dst, a, b, nil, 0)
		return
	}
	scalarCalls.Add(1)
	if b.Rows*b.Cols >= matMulThreshold {
		MatMulBlocked(dst, a, b)
		return
	}
	matMulSmall(dst, a, b)
}

// mulWide runs the wide kernel, ending each output with the tileBias and
// tileReLU steps epi asks for: one dispatch, one count.
func mulWide(dst, a, b *Matrix, bias []float32, epi int) {
	wideCalls.Add(1)
	if b.Rows*b.Cols >= matMulThreshold {
		matMulWideBlocked(dst, a, b, bias, epi)
		return
	}
	matMulWideSmall(dst, a, b, bias, epi)
}
