package tensor

import "fmt"

// This file holds the attention kernels: the dense fused multi-head kernel
// (scores, scale+mask+softmax and the value product in one pass over pooled
// buffers), the block-sparse kernel that realizes §4.2's score-area
// elimination — only intra-block Q·Kᵀ entries are ever computed, and a
// query's own segment's keys are found from per-row segment ids instead of
// an L×L additive mask — and the cached-row decode kernel. All three run
// one epilogue per query head, attendHead.

// Span is a half-open row interval [Start, End).
type Span struct{ Start, End int }

// Len returns the number of rows in the span.
func (s Span) Len() int { return s.End - s.Start }

// AttendBlock pairs a span of query rows with the span of key/value rows
// they may attend to. For slotted self-attention Q == K (the slot); for
// cross-attention Q is a decoder segment and K its encoder segment.
type AttendBlock struct{ Q, K Span }

// MultiHeadAttendInto computes, for every head h of width q.Cols/heads,
//
//	out[:, h·dh:(h+1)·dh] = softmax(scale·q_h·k_hᵀ + mask) · v_h
//
// in one fused pass: per query row the head's scores are produced, masked,
// softmaxed and contracted against v without materializing per-head operand
// copies. q is nq×d; k and v are nk×d; out is nq×d; mask (optional) is
// nq×nk and shared by all heads. scores is caller-provided scratch of at
// least nq rows × nk cols — pass a workspace buffer to keep the call
// allocation-free.
func MultiHeadAttendInto(out, q, k, v *Matrix, heads int, scale float32, mask, scores *Matrix) {
	d := q.Cols
	nq, nk := q.Rows, k.Rows
	if heads <= 0 || d%heads != 0 {
		panic(fmt.Sprintf("tensor: %d heads must divide width %d", heads, d))
	}
	if k.Cols != d || v.Cols != d || v.Rows != nk {
		panic(fmt.Sprintf("tensor: attend k %dx%d v %dx%d vs q %dx%d",
			k.Rows, k.Cols, v.Rows, v.Cols, nq, d))
	}
	if out.Rows != nq || out.Cols != d {
		panic(fmt.Sprintf("tensor: attend out %dx%d, want %dx%d", out.Rows, out.Cols, nq, d))
	}
	if mask != nil && (mask.Rows != nq || mask.Cols != nk) {
		panic(fmt.Sprintf("tensor: attend mask %dx%d, want %dx%d", mask.Rows, mask.Cols, nq, nk))
	}
	if scores.Rows < nq || scores.Cols < nk {
		panic(fmt.Sprintf("tensor: attend scores %dx%d too small for %dx%d",
			scores.Rows, scores.Cols, nq, nk))
	}
	dh := d / heads
	if planWorkers(nq, 8) == 1 {
		attendRange(out, q, k, v, heads, dh, scale, mask, scores, 0, nq)
		return
	}
	parallelRows(nq, 8, func(lo, hi int) {
		attendRange(out, q, k, v, heads, dh, scale, mask, scores, lo, hi)
	})
}

// attendRange runs every head for query rows [lo, hi). Workers own disjoint
// query rows, so the shared scores scratch is written without overlap. Every
// row scores all keys; its softmax runs over its visible key span — the mask
// row with its fully masked ends (≤ NegInf/2) trimmed, every key without a
// mask — so its lanes start at the first visible key, as the block route's
// do. A row with no visible key is all zero.
func attendRange(out, q, k, v *Matrix, heads, dh int, scale float32, mask, scores *Matrix, lo, hi int) {
	nk := k.Rows
	for i := lo; i < hi; i++ {
		a, b := 0, nk
		var mrow []float32
		if mask != nil {
			mrow = mask.Row(i)[:nk]
			a, b = visibleSpan(mrow)
		}
		orow := out.Row(i)[:heads*dh]
		srow := scores.Row(i)[:nk]
		for c0 := 0; c0 < len(orow); c0 += dh {
			attendHead(orow[c0:c0+dh], q.Row(i)[c0:c0+dh], k, v, 0, c0, scale, mrow, srow, a, b)
		}
	}
}

// visibleSpan returns the span [lo, hi) of row left after trimming the
// entries ≤ NegInf/2 (masked) at either end; lo == hi when all are.
func visibleSpan(row []float32) (lo, hi int) {
	lo, hi = 0, len(row)
	for lo < hi && row[lo] <= NegInf/2 {
		lo++
	}
	for hi > lo && row[hi-1] <= NegInf/2 {
		hi--
	}
	return lo, hi
}

// attendHead is the one attention epilogue every kernel runs per query head.
// It scores qh against the len(srow) key rows of k from row first on (one
// scoreRow call), adding mrow, an additive mask over those keys, when not
// nil. The softmax exponentials and their sum (expRow) and the value product
// scaled by 1/Σ (valueRow) then run over the visible keys srow[a:b] alone,
// into dst; dst is zero when a == b. The scores outside [a, b) are computed
// and dropped: they are the score area a masked row pays (§4.2, Eq. 8).
// Each score is one key's own dot product, so the visible ones — and the
// output — have the same bits as scoring [a, b) alone. With a mask the
// scores are scaled here and expRow runs at scale 1, which gives the same
// bits as expRow scaling them itself wherever the mask is zero.
func attendHead(dst, qh []float32, k, v *Matrix, first, c0 int, scale float32, mrow, srow []float32, a, b int) {
	ks, vs := k.stride(), v.stride()
	if len(srow) > 0 {
		scoreRow(srow, qh, k.Data[first*ks+c0:], ks)
	}
	if a == b {
		clear(dst)
		return
	}
	if mrow != nil {
		for t, dot := range srow {
			srow[t] = float32(dot*scale) + mrow[t]
		}
		scale = 1
	}
	w := srow[a:b]
	sum := expRow(w, scale)
	valueRow(dst, w, v.Data[(first+a)*vs+c0:], vs, 1/sum)
}

// BlockAttendInto is the block-sparse attention kernel: attention is
// computed only inside the given blocks, so the score area is Σ|Q_b|·|K_b|
// (Eq. 8's Σ zᵢ² for slotted self-attention) instead of nq·nk, and no dense
// mask matrix is ever built.
//
// qSeg/kSeg (optional, per-row segment ids with -1 for padding) apply the
// concat-isolation mask: a query attends only to the block's keys of its own
// segment, which must form one contiguous run in the block (a row's
// segments do; BlockAttendInto panics otherwise). causal additionally hides
// keys with global row index greater than the query's (self-attention only:
// q and k must share a row space). Each query row scores every key of its
// block (up to itself under causal) — the §4.2 score area Σ|Q_b|·|K_b| is
// paid in full — and exponentiates and sums over exactly its visible run,
// so results are bitwise identical to the dense masked path restricted to
// the block, and to the segment alone in its own block.
//
// Query rows not covered by any block, and rows with no visible key,
// produce zero output, matching the fully masked rows of the dense path.
// Blocks must not overlap in Q. scores is caller scratch with at least
// q.Rows rows × max block K-width cols.
func BlockAttendInto(out, q, k, v *Matrix, heads int, scale float32,
	blocks []AttendBlock, qSeg, kSeg []int, causal bool, scores *Matrix) {
	d := q.Cols
	nq, nk := q.Rows, k.Rows
	if heads <= 0 || d%heads != 0 {
		panic(fmt.Sprintf("tensor: %d heads must divide width %d", heads, d))
	}
	if k.Cols != d || v.Cols != d || v.Rows != nk {
		panic(fmt.Sprintf("tensor: attend k %dx%d v %dx%d vs q %dx%d",
			k.Rows, k.Cols, v.Rows, v.Cols, nq, d))
	}
	if out.Rows != nq || out.Cols != d {
		panic(fmt.Sprintf("tensor: attend out %dx%d, want %dx%d", out.Rows, out.Cols, nq, d))
	}
	if qSeg != nil && len(qSeg) != nq {
		panic(fmt.Sprintf("tensor: qSeg len %d != %d query rows", len(qSeg), nq))
	}
	if kSeg != nil && len(kSeg) != nk {
		panic(fmt.Sprintf("tensor: kSeg len %d != %d key rows", len(kSeg), nk))
	}
	maxK, nRows := 0, 0
	for _, b := range blocks {
		if b.Q.Start < 0 || b.Q.End > nq || b.K.Start < 0 || b.K.End > nk ||
			b.Q.Start > b.Q.End || b.K.Start > b.K.End {
			panic(fmt.Sprintf("tensor: block %+v out of range %dx%d", b, nq, nk))
		}
		if w := b.K.Len(); w > maxK {
			maxK = w
		}
		nRows += b.Q.Len()
	}
	if len(blocks) > 0 && (scores.Rows < nq || scores.Cols < maxK) {
		panic(fmt.Sprintf("tensor: attend scores %dx%d too small for %d rows × %d block width",
			scores.Rows, scores.Cols, nq, maxK))
	}
	out.Zero()
	dh := d / heads
	// The unit of sharding is the query row, not the block: blocks own
	// disjoint rows, and a row of one long request (one block) must spread
	// over the workers as evenly as a row of many short ones. Small jobs and
	// single-thread machines stay inline and allocation-free.
	if planWorkers(nRows, 8) == 1 {
		blockAttendRange(out, q, k, v, heads, dh, scale, blocks, qSeg, kSeg, causal, scores, 0, nRows)
		return
	}
	parallelRows(nRows, 8, func(lo, hi int) {
		blockAttendRange(out, q, k, v, heads, dh, scale, blocks, qSeg, kSeg, causal, scores, lo, hi)
	})
}

// blockAttendRange runs query rows [lo, hi) of the blocks' concatenated
// query rows (block order). out is already zero.
func blockAttendRange(out, q, k, v *Matrix, heads, dh int, scale float32,
	blocks []AttendBlock, qSeg, kSeg []int, causal bool, scores *Matrix, lo, hi int) {
	off := 0
	for _, b := range blocks {
		qLo, qHi := b.Q.Start+lo-off, b.Q.Start+hi-off
		off += b.Q.Len()
		if qLo < b.Q.Start {
			qLo = b.Q.Start
		}
		if qHi > b.Q.End {
			qHi = b.Q.End
		}
		k0 := b.K.Start
		for i := qLo; i < qHi; i++ {
			// The scored keys: the block's, up to the query row under
			// causal. The visible keys: the run of the query's own segment
			// among them.
			kEnd := b.K.End
			if causal {
				kEnd = max(k0, min(kEnd, i+1))
			}
			ka, kb := k0, kEnd
			if kSeg != nil {
				si := -1
				if qSeg != nil {
					si = qSeg[i]
				}
				ka, kb = segmentRun(kSeg, si, k0, kEnd)
			}
			orow := out.Row(i)[:heads*dh]
			srow := scores.Row(i)[:kEnd-k0]
			for c0 := 0; c0 < len(orow); c0 += dh {
				attendHead(orow[c0:c0+dh], q.Row(i)[c0:c0+dh], k, v, k0, c0, scale, nil, srow, ka-k0, kb-k0)
			}
		}
	}
}

// segmentRun returns the run [a, b) of keys in [lo, hi) whose segment id is
// seg, empty if none is. It panics if seg's keys there are not contiguous.
func segmentRun(kSeg []int, seg, lo, hi int) (a, b int) {
	a = lo
	for a < hi && kSeg[a] != seg {
		a++
	}
	b = a
	for b < hi && kSeg[b] == seg {
		b++
	}
	for t := b; t < hi; t++ {
		if kSeg[t] == seg {
			panic(fmt.Sprintf("tensor: segment %d's keys in [%d,%d) are not contiguous", seg, lo, hi))
		}
	}
	return a, b
}

// attendCachedRow computes one query row's multi-head attention over cached
// key/value matrices (the incremental-decode hot path): dst and qrow are
// d-wide, keys/vals hold the cached rows. scores is scratch of at least
// keys.Rows entries. Zero allocations. Every cached key is visible, so each
// head is one attendHead over all of them (none: dst is zero).
func attendCachedRow(dst, qrow []float32, keys, vals *Matrix, heads, dh int, scale float32, scores []float32) {
	n := keys.Rows
	srow := scores[:n]
	for c0 := 0; c0 < heads*dh; c0 += dh {
		attendHead(dst[c0:c0+dh], qrow[c0:c0+dh], keys, vals, 0, c0, scale, nil, srow, 0, n)
	}
}
