package model

import (
	"fmt"

	"tcb/internal/tensor"
)

// This file adds mid-flight segment turnover to BatchDecodeState — the
// model-layer half of continuous batching. RemoveSegment retires a finished
// segment between Step calls and recycles its cache buffers; InsertSegment
// admits a freshly encoded request into the running state. Both keep the
// surviving segments' relative order, so the batch-wide GEMMs see the same
// rows in the same order as a state that was never touched — and because
// the matmul kernels keep per-row accumulation order independent of GEMM
// height, a state that sees no removals or insertions stays bitwise
// identical to the plain construction-time path.

// pool returns the state's buffer-recycling workspace, creating it on first
// use. RemoveSegment Puts the retired caches here and construction and
// InsertSegment Get theirs back out, so a warm remove/insert cycle allocates
// nothing (pinned by an AllocsPerRun regression test).
func (s *BatchDecodeState) pool() *tensor.Workspace {
	if s.ws == nil {
		s.ws = tensor.NewWorkspace()
	}
	return s.ws
}

// emptySelfCache checks out a self-attention cache holding no rows with room
// for reserve of them. Every segment's caches come from here — seated at
// construction or inserted later — because only a pooled buffer survives
// RemoveSegment's Put to serve the next segment.
func (s *BatchDecodeState) emptySelfCache() *tensor.Matrix {
	d := s.m.Cfg.DModel
	m := s.pool().Get(s.reserve, d)
	m.Resize(0, d)
	return m
}

// Close returns the state's recycling workspace — and with it the caches of
// every segment removed so far — to the package pool, where the next state's
// construction finds them. Safe on states that hold no workspace and on nil.
func (s *BatchDecodeState) Close() {
	if s == nil || s.ws == nil {
		return
	}
	s.ws.Close()
	s.ws = nil
}

// RemoveSegment deletes flat segment i from the state between Step calls:
// every per-segment table is compacted and the segment's self- and
// cross-attention cache buffers are recycled through the workspace pool.
// Surviving segments keep their relative order — and therefore their gather
// order inside every batch-wide GEMM — so their subsequent logits are
// bitwise identical to a state that never removed anything. The segment's
// batch row keeps an empty span, so RowSpan stays consistent for callers
// still holding row indices.
func (s *BatchDecodeState) RemoveSegment(i int) {
	if i < 0 || i >= s.nSeg {
		panic(fmt.Sprintf("model: RemoveSegment %d of %d segments", i, s.nSeg))
	}
	ws := s.pool()
	for _, lc := range s.layers {
		ws.Put(lc.selfK[i])
		ws.Put(lc.selfV[i])
		ws.Put(lc.crossK[i])
		ws.Put(lc.crossV[i])
		lc.selfK = deleteSeg(lc.selfK, i)
		lc.selfV = deleteSeg(lc.selfV, i)
		lc.crossK = deleteSeg(lc.crossK, i)
		lc.crossV = deleteSeg(lc.crossV, i)
	}
	s.prefixLen = append(s.prefixLen[:i], s.prefixLen[i+1:]...)
	s.finished = append(s.finished[:i], s.finished[i+1:]...)
	s.out = append(s.out[:i], s.out[i+1:]...)
	for r := 1; r < len(s.rowStart); r++ {
		if s.rowStart[r] > i {
			s.rowStart[r]--
		}
	}
	s.nSeg--
}

// deleteSeg removes index i from a per-segment matrix table, dropping the
// trailing pointer so the backing array does not pin the removed cache.
func deleteSeg(ms []*tensor.Matrix, i int) []*tensor.Matrix {
	copy(ms[i:], ms[i+1:])
	ms[len(ms)-1] = nil
	return ms[:len(ms)-1]
}

// InsertSegment appends a freshly encoded request to the state as a new
// single-segment row and returns its flat segment index. encOut must be the
// request's own encoder output — its rows are the segment, with no padding
// and no row neighbours, exactly what EncodeRow produces for a
// SingleSegment layout. The segment starts at decode position 0 and expects
// vocab.BosID on the next Step. Cache buffers come from the recycling pool;
// with a prior RemoveSegment of like-sized buffers the insertion allocates
// nothing.
func (s *BatchDecodeState) InsertSegment(encOut *tensor.Matrix) (int, error) {
	n := encOut.Rows
	d := s.m.Cfg.DModel
	switch {
	case n <= 0:
		return 0, fmt.Errorf("model: InsertSegment with empty encoder output")
	case encOut.Cols != d:
		return 0, fmt.Errorf("model: InsertSegment encoder width %d != d_model %d", encOut.Cols, d)
	case n > s.m.P.PosEnc.Rows:
		return 0, fmt.Errorf("model: InsertSegment length %d beyond MaxLen %d", n, s.m.P.PosEnc.Rows)
	}
	s.ensureSegCap(s.nSeg + 1)
	ws := s.pool()
	i := s.nSeg
	for li, layer := range s.m.P.Decoder {
		lc := s.layers[li]
		ck := ws.Get(n, d)
		layer.CrossAttn.WK.ApplyInto(ck, encOut)
		cv := ws.Get(n, d)
		layer.CrossAttn.WV.ApplyInto(cv, encOut)
		lc.selfK = append(lc.selfK, s.emptySelfCache())
		lc.selfV = append(lc.selfV, s.emptySelfCache())
		lc.crossK = append(lc.crossK, ck)
		lc.crossV = append(lc.crossV, cv)
	}
	s.prefixLen = append(s.prefixLen, 0)
	s.finished = append(s.finished, false)
	s.out = append(s.out, nil)
	s.rowStart = append(s.rowStart, s.nSeg+1)
	s.nSeg++
	return i, nil
}

// ensureSegCap grows the shared step buffers to hold at least n segments.
// Growth allocates; insertions that never push the segment count past its
// high-water mark reuse the existing buffers.
func (s *BatchDecodeState) ensureSegCap(n int) {
	if n <= s.segCap {
		return
	}
	newCap := 2 * s.segCap
	if newCap < n {
		newCap = n
	}
	d := s.m.Cfg.DModel
	s.x = tensor.New(newCap, d)
	s.q = tensor.New(newCap, d)
	s.attn = tensor.New(newCap, d)
	s.proj = tensor.New(newCap, d)
	s.ff = tensor.New(newCap, s.m.Cfg.DFF)
	s.logits = tensor.New(newCap, s.m.Cfg.VocabSize)
	// The attention scratch must span the longest cache any segment can
	// reach: MaxLen bounds both decode prefixes and inserted segments.
	cols := s.scores.Cols
	if cols < s.m.P.PosEnc.Rows {
		cols = s.m.P.PosEnc.Rows
	}
	s.scores = tensor.New(newCap, cols)
	for _, lc := range s.layers {
		lc.k = tensor.New(newCap, d)
		lc.v = tensor.New(newCap, d)
	}
	s.segCap = newCap
}
