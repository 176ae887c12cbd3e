package model

import (
	"runtime"
	"testing"

	"tcb/internal/rng"
	"tcb/internal/tensor"
	"tcb/internal/vocab"
)

// serialKernels pins GOMAXPROCS to 1 so every tensor kernel takes its inline
// serial path — the only configuration where the steady-state hot path is
// guaranteed allocation-free (parallel fan-out allocates goroutine closures
// by design).
func serialKernels(t *testing.T) {
	t.Helper()
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// A warm multi-head attention call — workspace buckets populated, weights
// resident — must not touch the heap at all.
func TestWarmMultiHeadAttentionZeroAllocs(t *testing.T) {
	serialKernels(t)
	m := testModel(t)
	w := m.P.Encoder[0].SelfAttn
	src := rng.New(7)
	x := tensor.New(24, m.Cfg.DModel)
	for i := range x.Data {
		x.Data[i] = float32(src.Normal(0, 0.3))
	}
	layout := RowLayout{Segments: []Segment{{Start: 0, Len: 10}, {Start: 10, Len: 14}}, Total: 24}
	mask := layout.BuildMask()
	dst := tensor.New(24, m.Cfg.DModel)
	ws := tensor.NewWorkspace()
	defer ws.Close()
	MultiHeadAttentionInto(dst, w, m.Cfg.NumHeads, x, x, mask, ws) // warm the buckets
	allocs := testing.AllocsPerRun(20, func() {
		MultiHeadAttentionInto(dst, w, m.Cfg.NumHeads, x, x, mask, ws)
	})
	if allocs != 0 {
		t.Fatalf("warm MultiHeadAttentionInto allocated %g times per run", allocs)
	}
}

// The block-sparse slotted path must be allocation-free too once warm.
func TestWarmBlockAttentionZeroAllocs(t *testing.T) {
	serialKernels(t)
	m := testModel(t)
	w := m.P.Encoder[0].SelfAttn
	layout := RowLayout{Segments: []Segment{{Start: 0, Len: 10}, {Start: 10, Len: 14}}, Total: 24}
	blocks := SlotBlocks([]Slot{{Start: 0, Len: 24}})
	seg := layout.SegIDs()
	src := rng.New(8)
	x := tensor.New(24, m.Cfg.DModel)
	for i := range x.Data {
		x.Data[i] = float32(src.Normal(0, 0.3))
	}
	dst := tensor.New(24, m.Cfg.DModel)
	ws := tensor.NewWorkspace()
	defer ws.Close()
	MultiHeadAttentionBlocksInto(dst, w, m.Cfg.NumHeads, x, x, blocks, seg, seg, false, ws)
	allocs := testing.AllocsPerRun(20, func() {
		MultiHeadAttentionBlocksInto(dst, w, m.Cfg.NumHeads, x, x, blocks, seg, seg, false, ws)
	})
	if allocs != 0 {
		t.Fatalf("warm MultiHeadAttentionBlocksInto allocated %g times per run", allocs)
	}
}

// A cached decode step in steady state — KV caches reserved, buffers sized —
// must be allocation-free: this is the per-token serving cost.
func TestCachedDecodeStepZeroAllocs(t *testing.T) {
	serialKernels(t)
	m := testModel(t)
	src := rng.New(9)
	requests := [][]int{randTokens(src, 5), randTokens(src, 8), randTokens(src, 3)}
	row, layout := buildConcatRow(requests, 20)
	encOut := m.EncodeRow(row, layout, nil, AttDense, true)
	st := m.NewBatchDecodeState([]BatchDecodeRow{{EncOut: encOut, Layout: layout}})
	next := []int{vocab.BosID, vocab.BosID, vocab.BosID}
	for warm := 0; warm < 3; warm++ { // BOS + two steady-state steps
		if _, err := st.Step(next); err != nil {
			t.Fatal(err)
		}
		for i := range next {
			next[i] = vocab.FirstWordID
		}
	}
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		_, err = st.Step(next)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("warm cached decode Step allocated %g times per run", allocs)
	}
}

// The whole slotted encoder forward must stay allocation-free once the
// workspace is warm (embedRow's output matrix is the one permitted
// allocation, so the layer stack is exercised via EncodeRowWS reuse of ws).
func TestWarmEncodeLayerStackAllocs(t *testing.T) {
	serialKernels(t)
	m := testModel(t)
	src := rng.New(10)
	requests := [][]int{randTokens(src, 6), randTokens(src, 7)}
	row, layout := buildConcatRow(requests, 16)
	slots := layout.WholeRowSlot()
	ws := tensor.NewWorkspace()
	defer ws.Close()
	m.EncodeRowWS(row, layout, slots, AttSlotted, true, ws) // warm
	allocs := testing.AllocsPerRun(10, func() {
		m.EncodeRowWS(row, layout, slots, AttSlotted, true, ws)
	})
	// embedRow allocates the activation matrix plus per-call layout slices;
	// the bound asserts the layer stack itself stays on the workspace.
	if allocs > 8 {
		t.Fatalf("warm EncodeRowWS allocated %g times per run, want ≤ 8 (embed + layout only)", allocs)
	}
}
