package tensor

import (
	"fmt"
	"math"
)

// This file holds the attention kernels: the dense fused multi-head kernel
// (scores, scale+mask+softmax and the value product in one pass over pooled
// buffers) and the block-sparse kernel that realizes §4.2's score-area
// elimination — only intra-block Q·Kᵀ entries are ever computed, and the
// segment mask is applied inline instead of being materialized as an L×L
// additive matrix.

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
// query rows, so the shared scores scratch is written without overlap.
func attendRange(out, q, k, v *Matrix, heads, dh int, scale float32, mask, scores *Matrix, lo, hi int) {
	nk := k.Rows
	for h := 0; h < heads; h++ {
		c0 := h * dh
		for i := lo; i < hi; i++ {
			qr := q.Row(i)[c0 : c0+dh]
			srow := scores.Row(i)[:nk]
			var mrow []float32
			if mask != nil {
				mrow = mask.Row(i)
			}
			scoreKeys(srow, qr, k, 0, c0)
			for t, dot := range srow {
				sum := dot * scale
				if mrow != nil {
					sum += mrow[t]
				}
				srow[t] = sum
			}
			softmaxRow(srow)
			weighedSumRows(out.Row(i)[c0:c0+dh], srow, v, 0, c0, dh)
		}
	}
}

// scoreKeys writes srow[t] = qr · k.Row(first+t)[c0 : c0+len(qr)]: one query
// head against a run of consecutive key rows, in one scoreRow call so the
// (non-inlinable) lane helper is paid per query row, not per key.
func scoreKeys(srow, qr []float32, k *Matrix, first, c0 int) {
	if len(srow) == 0 {
		return
	}
	ks := k.stride()
	scoreRow(srow, qr, k.Data[first*ks+c0:], ks)
}

// weighedSumRows computes dst = Σ_t w[t] · v[kOff+t][c0:c0+dh], four value
// rows per accumulator pass. Weights that are exactly zero at either end are
// masked keys (another segment's, or padding) and are trimmed before the quads
// are formed, so the grouping is anchored at the query's first visible key:
// a segment accumulates in the same order — to the same bits — alone in its
// own block, in the middle of a shared slot, or behind a dense mask at any
// row offset. Interior all-zero quads are skipped outright.
func weighedSumRows(dst, w []float32, v *Matrix, kOff, c0, dh int) {
	for j := range dst {
		dst[j] = 0
	}
	t, end := 0, len(w)
	for t < end && w[t] == 0 {
		t++
	}
	for end > t && w[end-1] == 0 {
		end--
	}
	for ; t+4 <= end; t += 4 {
		w0, w1, w2, w3 := w[t], w[t+1], w[t+2], w[t+3]
		if w0 == 0 && w1 == 0 && w2 == 0 && w3 == 0 {
			continue
		}
		quadAxpy1(dst,
			v.Row(kOff + t)[c0:c0+dh],
			v.Row(kOff + t + 1)[c0:c0+dh],
			v.Row(kOff + t + 2)[c0:c0+dh],
			v.Row(kOff + t + 3)[c0:c0+dh],
			w0, w1, w2, w3)
	}
	for ; t < end; t++ {
		a := w[t]
		if a == 0 {
			continue
		}
		tailAxpy1(dst, v.Row(kOff + t)[c0:c0+dh], a)
	}
}

// BlockAttendInto is the block-sparse attention kernel: attention is
// computed only inside the given blocks, so the score area is Σ|Q_b|·|K_b|
// (Eq. 8's Σ zᵢ² for slotted self-attention) instead of nq·nk, and no dense
// mask matrix is ever built.
//
// qSeg/kSeg (optional, per-row segment ids with -1 for padding) apply the
// concat-isolation mask inline: a key whose segment differs from the query's
// contributes exactly like a NegInf-masked dense entry, so results are
// bitwise identical to the dense masked path restricted to the block.
// causal additionally hides keys with global row index greater than the
// query's (self-attention only: q and k must share a row space).
//
// Query rows not covered by any block produce zero output, matching the
// fully masked rows of the dense path. Blocks must not overlap in Q.
// scores is caller scratch with at least q.Rows rows × max block K-width
// cols.
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
// query rows (block order).
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
		if qLo >= qHi {
			continue
		}
		k0, kw := b.K.Start, b.K.Len()
		for h := 0; h < heads; h++ {
			c0 := h * dh
			for i := qLo; i < qHi; i++ {
				qr := q.Row(i)[c0 : c0+dh]
				srow := scores.Row(i)[:kw]
				si := -1
				if qSeg != nil {
					si = qSeg[i]
				}
				kEnd := kw
				if causal && i+1-k0 < kEnd {
					// Keys strictly after the query row are never visible;
					// skip them entirely (the dense path masks them to an
					// exact zero, so dropping the terms changes nothing).
					kEnd = i + 1 - k0
					if kEnd < 0 {
						kEnd = 0
					}
				}
				srow = srow[:kEnd]
				scoreKeys(srow, qr, k, k0, c0)
				for t, dot := range srow {
					sum := dot * scale
					if kSeg != nil && kSeg[k0+t] != si {
						// Inline concat-isolation mask: same additive NegInf
						// the dense mask would have applied.
						sum += NegInf
					}
					srow[t] = sum
				}
				softmaxRow(srow)
				weighedSumRows(out.Row(i)[c0:c0+dh], srow, v, k0, c0, dh)
			}
		}
	}
}

// attendCachedRow computes one query row's multi-head attention over cached
// key/value matrices (the incremental-decode hot path): dst and qrow are
// d-wide, keys/vals hold the cached rows. scores is scratch of at least
// keys.Rows entries. Zero allocations. Per head, one scoreRow call makes the
// scores and one valueRow call the value product.
func attendCachedRow(dst, qrow []float32, keys, vals *Matrix, heads, dh int, scale float32, scores []float32) {
	n := keys.Rows
	if n == 0 {
		clear(dst)
		return
	}
	srow := scores[:n]
	for h := 0; h < heads; h++ {
		c0 := h * dh
		maxv := float32(math.Inf(-1))
		scoreKeys(srow, qrow[c0:c0+dh], keys, 0, c0)
		for t, dot := range srow {
			sum := dot * scale
			srow[t] = sum
			if sum > maxv {
				maxv = sum
			}
		}
		var norm float32
		for t := 0; t < n; t++ {
			e := float32(math.Exp(float64(srow[t] - maxv)))
			srow[t] = e
			norm += e
		}
		valueRow(dst[c0:c0+dh], srow, vals.Data[c0:], vals.stride(), 1/norm)
	}
}
