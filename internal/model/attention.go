package model

import (
	"math"

	"tcb/internal/tensor"
)

// attnScale returns the 1/√d_h score scaling for a head width.
func attnScale(dh int) float32 {
	return float32(1 / math.Sqrt(float64(dh)))
}

// MultiHeadAttention runs multi-head attention with queries from xq and
// keys/values from xkv, applying the optional additive mask to every head's
// score matrix (Eq. 5: Att_CB when mask is a block-diagonal RowLayout mask,
// plain Eq. 4 when mask is nil). It returns the WO-projected result.
func MultiHeadAttention(w *AttentionWeights, numHeads int, xq, xkv *tensor.Matrix, mask *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(xq.Rows, w.WQ.W.Cols)
	MultiHeadAttentionInto(out, w, numHeads, xq, xkv, mask, nil)
	return out
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

// MultiHeadAttentionSlotted runs the slotted self-attention Att_CB_S
// (Eq. 8): attention is computed independently per slot, so the score
// matrices are slot-local (Σ zᵢ² entries instead of n², Fig. 7) and the
// off-slot redundancy the dense mask merely neutralized is never computed.
//
// layout supplies the segment boundaries; keys from a different segment of
// the same slot are masked inline exactly as the dense block-diagonal mask
// would, so results match MultiHeadAttention with layout.BuildMask() bit
// for bit. Rows outside every slot (padding) produce zero output.
func MultiHeadAttentionSlotted(w *AttentionWeights, numHeads int, x *tensor.Matrix, slots []Slot, layout RowLayout) *tensor.Matrix {
	out := tensor.New(x.Rows, w.WQ.W.Cols)
	seg := layout.SegIDs()
	MultiHeadAttentionBlocksInto(out, w, numHeads, x, x, SlotBlocks(slots), seg, seg, false, nil)
	return out
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
