package model

import (
	"math"

	"tcb/internal/tensor"
)

// attnScale returns the 1/√d_h score scaling for a head width.
func attnScale(dh int) float32 {
	return float32(1 / math.Sqrt(float64(dh)))
}

// MultiHeadAttentionInto is the workspace-threaded form of
// MultiHeadAttention: every intermediate (projections, per-row scores, head
// concatenation) is checked out of ws and released before returning, so a
// warm workspace makes the whole call allocation-free. dst must be
// xq.Rows × dModel; ws may be nil (plain allocations).
func MultiHeadAttentionInto(dst *tensor.Matrix, w *AttentionWeights, numHeads int, xq, xkv *tensor.Matrix, mask *tensor.Matrix, ws *tensor.Workspace) {
	dModel := w.WQ.W.Cols
	if dModel%numHeads != 0 {
		panic("model: heads must divide dModel")
	}
	q := ws.Get(xq.Rows, dModel)
	k := ws.Get(xkv.Rows, dModel)
	v := ws.Get(xkv.Rows, dModel)
	w.WQ.ApplyInto(q, xq)
	w.WK.ApplyInto(k, xkv)
	w.WV.ApplyInto(v, xkv)
	concat := ws.Get(xq.Rows, dModel)
	scores := ws.Get(xq.Rows, xkv.Rows)
	tensor.MultiHeadAttendInto(concat, q, k, v, numHeads, attnScale(dModel/numHeads), mask, scores)
	w.WO.ApplyInto(dst, concat)
	ws.Put(scores)
	ws.Put(concat)
	ws.Put(v)
	ws.Put(k)
	ws.Put(q)
}

// MultiHeadAttentionBlocksInto runs block-sparse multi-head attention:
// scores are computed only inside the given Q×K blocks, with the optional
// per-row segment ids applying the concat-isolation mask inline and causal
// hiding future keys (self-attention only). Query rows outside every block
// produce the same output as fully masked rows of the dense path. This is
// the kernel behind both slotted self-attention (blocks = slots) and
// slotted cross-attention (blocks = segment pairs) — no dense mask is ever
// materialized.
func MultiHeadAttentionBlocksInto(dst *tensor.Matrix, w *AttentionWeights, numHeads int, xq, xkv *tensor.Matrix,
	blocks []tensor.AttendBlock, qSeg, kSeg []int, causal bool, ws *tensor.Workspace) {
	dModel := w.WQ.W.Cols
	if dModel%numHeads != 0 {
		panic("model: heads must divide dModel")
	}
	q := ws.Get(xq.Rows, dModel)
	k := ws.Get(xkv.Rows, dModel)
	v := ws.Get(xkv.Rows, dModel)
	w.WQ.ApplyInto(q, xq)
	w.WK.ApplyInto(k, xkv)
	w.WV.ApplyInto(v, xkv)
	concat := ws.Get(xq.Rows, dModel)
	maxK := 0
	for _, b := range blocks {
		if n := b.K.Len(); n > maxK {
			maxK = n
		}
	}
	scores := ws.Get(xq.Rows, maxK)
	tensor.BlockAttendInto(concat, q, k, v, numHeads, attnScale(dModel/numHeads), blocks, qSeg, kSeg, causal, scores)
	w.WO.ApplyInto(dst, concat)
	ws.Put(scores)
	ws.Put(concat)
	ws.Put(v)
	ws.Put(k)
	ws.Put(q)
}

// ScoreArea returns the number of attention-score entries a scheme computes
// for one row: the quantity slotting reduces. Dense (pure ConcatBatching or
// padding schemes) computes used² per row; slotted computes Σ slotLen².
func ScoreArea(slots []Slot) int {
	area := 0
	for _, s := range slots {
		area += s.Len * s.Len
	}
	return area
}
