package model

import (
	"fmt"
	"math"

	"tcb/internal/tensor"
	"tcb/internal/vocab"
)

// BatchDecodeRow pairs one batch row's encoder output with its layout — the
// unit the fused batch decoder consumes.
type BatchDecodeRow struct {
	EncOut *tensor.Matrix
	Layout RowLayout
	// Prefixes, when non-nil, attaches an inherited prefix to each segment
	// (indexed like Layout.Segments; nil entries mean no prefix): the
	// segment's cross-attention cache becomes the frozen prefix K/V rows
	// followed by its own encoder rows, so the decoder sees the full
	// prefix+suffix request while only the suffix occupied the encode row.
	Prefixes []*PrefixKV
}

// BatchDecodeState is the batch-wide fused form of the KV-cached incremental
// decoder: it owns every segment of every batch row at once. Per decode step
// it gathers all live segments — across all rows — into one totalLive×d
// hidden-state matrix and runs the WQ/WK/WV/WO projections, the FFN and the
// output logits as single batch-wide GEMMs per layer, recovering the GEMM
// shapes a real B×L device launch would see instead of B independent
// small-GEMM streams. Only the attention itself stays ragged: each segment's
// KV cache has its own length, so self- and cross-attention run through the
// segment-bounded strided-batch kernel (tensor.AttendCachedRows), which
// shards the independent rows across the worker pool.
//
// Row boundaries carry no mathematical meaning here — a segment's keys,
// values and positions are all its own, exactly the isolation ConcatBatching
// established — so fusing rows changes GEMM height only and results are
// token-identical to per-row decoding (tested to exact equality; the matmul
// kernels keep per-row accumulation order independent of GEMM height to make
// the match bitwise).
//
// All step buffers and KV caches are allocated at construction, so a warm
// state performs zero heap allocations per Step, pinned by the AllocsPerRun
// regression tests.
type BatchDecodeState struct {
	m    *Model
	nSeg int
	// rowStart[r] is the flat index of row r's first segment; the last entry
	// is nSeg. Flat segment order is row-major: row 0's segments, row 1's, …
	rowStart []int

	layers []*batchLayerCache

	prefixLen []int  // tokens decoded so far per flat segment (BOS included)
	finished  []bool // segment has emitted EOS or hit its cap

	// Preallocated step buffers, resized (never reallocated) to the number
	// of live segments each Step.
	x      *tensor.Matrix // live × dModel hidden states
	q      *tensor.Matrix // live × dModel projection scratch
	attn   *tensor.Matrix // live × dModel attention output
	proj   *tensor.Matrix // live × dModel WO projection / FFN output
	ff     *tensor.Matrix // live × dFF FFN hidden
	logits *tensor.Matrix // live × vocab output logits

	scores *tensor.Matrix // per-live-row attention scratch
	live   []int          // live flat segment indices, rebuilt each Step
	embIdx []int          // live row's token id (embedding gather index)
	posIdx []int          // live row's decode position (PosEnc gather index)
	out    [][]float32

	// Continuous-batching support (refill.go): reserve is the KV rows
	// reserved per segment (inserted segments get the same), segCap the row
	// capacity of the shared step buffers, and ws the recycling pool that
	// removed segments' cache buffers pass through on their way to the next
	// InsertSegment.
	reserve int
	segCap  int
	ws      *tensor.Workspace
}

// batchLayerCache holds one decoder layer's attention caches across every
// flat segment of the batch.
type batchLayerCache struct {
	// selfK[i] / selfV[i]: cached projected key/value rows (d wide) of flat
	// segment i, one row per decoded position, capacity reserved up front.
	selfK, selfV []*tensor.Matrix
	// crossK[i] / crossV[i]: fixed projected encoder keys/values of flat
	// segment i.
	crossK, crossV []*tensor.Matrix
	// k, v hold the step's batch-wide key/value projections before they are
	// scattered into the per-segment caches.
	k, v *tensor.Matrix
}

// NewBatchDecodeStateReserve is NewBatchDecodeState with an explicit KV-cache
// reservation per segment (clamped to [1, MaxLen]). Callers driving the state
// step by step — the engine's refill loop — pass their generation bound so
// every segment, including ones admitted later through InsertSegment, decodes
// without growing its cache.
func (m *Model) NewBatchDecodeStateReserve(rows []BatchDecodeRow, reserve int) *BatchDecodeState {
	return m.NewBatchDecodeStateCap(rows, reserve, 0)
}

// NewBatchDecodeStateCap is NewBatchDecodeStateReserve with room for extra
// more segments: the first extra InsertSegment calls reuse the step buffers
// and per-segment tables sized here instead of growing them. The engine seats
// a Concat launch's items into an empty state sized this way. Stepping past
// the KV reservation stays correct — AppendRow grows — but allocates;
// generation loops pass their exact step bound to keep the warm path
// allocation-free without reserving MaxLen rows per segment per layer.
func (m *Model) NewBatchDecodeStateCap(rows []BatchDecodeRow, reserve, extra int) *BatchDecodeState {
	maxLen := m.P.PosEnc.Rows // Step rejects positions beyond this bound
	if reserve > maxLen {
		reserve = maxLen
	}
	if reserve < 1 {
		reserve = 1
	}
	d := m.Cfg.DModel
	rowStart := make([]int, len(rows)+1, len(rows)+1+extra)
	nSeg := 0
	for r, row := range rows {
		rowStart[r] = nSeg
		nSeg += len(row.Layout.Segments)
	}
	rowStart[len(rows)] = nSeg
	segCap := nSeg + extra
	s := &BatchDecodeState{
		m:         m,
		nSeg:      nSeg,
		reserve:   reserve,
		segCap:    segCap,
		rowStart:  rowStart,
		prefixLen: make([]int, nSeg, segCap),
		finished:  make([]bool, nSeg, segCap),
		x:         tensor.New(segCap, d),
		q:         tensor.New(segCap, d),
		attn:      tensor.New(segCap, d),
		proj:      tensor.New(segCap, d),
		ff:        tensor.New(segCap, m.Cfg.DFF),
		logits:    tensor.New(segCap, m.Cfg.VocabSize),
		live:      make([]int, 0, segCap),
		embIdx:    make([]int, 0, segCap),
		posIdx:    make([]int, 0, segCap),
		out:       make([][]float32, nSeg, segCap),
	}
	scoreLen := maxLen
	for _, row := range rows {
		for si, seg := range row.Layout.Segments {
			ln := seg.Len
			if pk := row.prefixAt(si); pk != nil {
				ln += pk.Len // the cross cache spans prefix + suffix rows
			}
			if ln > scoreLen {
				scoreLen = ln
			}
		}
	}
	if segCap > 0 {
		s.scores = tensor.New(segCap, scoreLen)
	} else {
		s.scores = tensor.New(1, 1)
	}
	for range m.P.Decoder {
		lc := &batchLayerCache{
			selfK:  make([]*tensor.Matrix, nSeg, segCap),
			selfV:  make([]*tensor.Matrix, nSeg, segCap),
			crossK: make([]*tensor.Matrix, nSeg, segCap),
			crossV: make([]*tensor.Matrix, nSeg, segCap),
			k:      tensor.New(segCap, d),
			v:      tensor.New(segCap, d),
		}
		for i := 0; i < nSeg; i++ {
			lc.selfK[i] = s.emptySelfCache()
			lc.selfV[i] = s.emptySelfCache()
		}
		s.layers = append(s.layers, lc)
	}
	// Cross caches: project each row once, then give every segment its own
	// pooled copy of its span (so RemoveSegment can recycle it, exactly like
	// a cache InsertSegment built).
	ws := s.pool()
	for li, layer := range m.P.Decoder {
		lc := s.layers[li]
		for r, row := range rows {
			if len(row.Layout.Segments) == 0 {
				continue
			}
			k := ws.Get(row.EncOut.Rows, d)
			layer.CrossAttn.WK.ApplyInto(k, row.EncOut)
			v := ws.Get(row.EncOut.Rows, d)
			layer.CrossAttn.WV.ApplyInto(v, row.EncOut)
			base := rowStart[r]
			for si, seg := range row.Layout.Segments {
				if pk := row.prefixAt(si); pk != nil {
					// Inherited prefix: frozen prefix rows, own rows after.
					ck := ws.Get(pk.Len+seg.Len, d)
					cv := ws.Get(pk.Len+seg.Len, d)
					inheritCross(ck, pk.Layers[li].K, k, seg)
					inheritCross(cv, pk.Layers[li].V, v, seg)
					lc.crossK[base+si] = ck
					lc.crossV[base+si] = cv
					continue
				}
				ck := ws.Get(seg.Len, d)
				cv := ws.Get(seg.Len, d)
				copy(ck.Data, k.Data[seg.Start*d:seg.End()*d])
				copy(cv.Data, v.Data[seg.Start*d:seg.End()*d])
				lc.crossK[base+si] = ck
				lc.crossV[base+si] = cv
			}
			ws.Put(k)
			ws.Put(v)
		}
	}
	return s
}

// Segments returns the total number of flat segments across all rows.
func (s *BatchDecodeState) Segments() int { return s.nSeg }

// RowSpan returns the half-open flat segment range [lo, hi) of batch row r.
func (s *BatchDecodeState) RowSpan(r int) (lo, hi int) {
	return s.rowStart[r], s.rowStart[r+1]
}

// Finished reports whether flat segment i has stopped decoding.
func (s *BatchDecodeState) Finished(i int) bool { return s.finished[i] }

// MarkFinished stops flat segment i (cap reached or EOS seen by the caller).
func (s *BatchDecodeState) MarkFinished(i int) { s.finished[i] = true }

// AllFinished reports whether every segment has stopped.
func (s *BatchDecodeState) AllFinished() bool {
	for _, f := range s.finished {
		if !f {
			return false
		}
	}
	return true
}

// Step feeds one token per flat segment (tokens[i] is ignored for finished
// segments) and returns the vocabulary logits for each live segment (nil
// rows for finished ones). The first call must pass vocab.BosID for every
// segment. The returned slices alias the state's internal logits buffer and
// are valid only until the next Step call; callers that need them longer
// must copy.
func (s *BatchDecodeState) Step(tokens []int) ([][]float32, error) {
	if len(tokens) != s.nSeg {
		return nil, fmt.Errorf("model: Step got %d tokens for %d segments", len(tokens), s.nSeg)
	}
	// Gather the live segments, validating before any state mutation.
	s.live = s.live[:0]
	for i := 0; i < s.nSeg; i++ {
		if s.finished[i] {
			continue
		}
		if tokens[i] < 0 || tokens[i] >= s.m.Cfg.VocabSize {
			return nil, fmt.Errorf("model: token %d out of vocabulary", tokens[i])
		}
		if s.prefixLen[i] >= s.m.P.PosEnc.Rows {
			return nil, fmt.Errorf("model: segment %d position %d beyond MaxLen", i, s.prefixLen[i])
		}
		s.live = append(s.live, i)
	}
	live := s.live
	for i := range s.out {
		s.out[i] = nil
	}
	if len(live) == 0 {
		return s.out, nil
	}
	// Gather every live segment's token embedding and positional encoding
	// into one batch-wide hidden-state matrix — separate positional encoding
	// per segment, by construction.
	d := s.m.Cfg.DModel
	n := len(live)
	s.embIdx = s.embIdx[:0]
	s.posIdx = s.posIdx[:0]
	for _, i := range live {
		s.embIdx = append(s.embIdx, tokens[i])
		s.posIdx = append(s.posIdx, s.prefixLen[i])
		s.prefixLen[i]++
	}
	x := s.x
	x.Resize(n, d)
	tensor.GatherRowsInto(x, s.m.P.Embedding, s.embIdx)
	tensor.GatherAddRowsInto(x, s.m.P.PosEnc, s.posIdx)

	heads := s.m.Cfg.NumHeads
	dh := s.m.Cfg.HeadDim()
	scale := attnScale(dh)
	q, attn, proj := s.q, s.attn, s.proj
	q.Resize(n, d)
	attn.Resize(n, d)
	proj.Resize(n, d)
	for li, layer := range s.m.P.Decoder {
		cache := s.layers[li]
		// Self-attention: batch-wide Q/K/V projections, ragged per-segment
		// caches (causal by construction: a cache only holds the past).
		k, v := cache.k, cache.v
		k.Resize(n, d)
		v.Resize(n, d)
		layer.SelfAttn.WQ.ApplyInto(q, x)
		layer.SelfAttn.WK.ApplyInto(k, x)
		layer.SelfAttn.WV.ApplyInto(v, x)
		tensor.ScatterAppendRows(cache.selfK, k, live)
		tensor.ScatterAppendRows(cache.selfV, v, live)
		tensor.AttendCachedRows(attn, q, cache.selfK, cache.selfV, live, heads, dh, scale, s.scores)
		layer.SelfAttn.WO.ApplyInto(proj, attn)
		tensor.AddInPlace(x, proj)
		layer.Norm1.Apply(x)

		// Cross-attention against the fixed encoder cache of the own
		// segment only.
		layer.CrossAttn.WQ.ApplyInto(q, x)
		tensor.AttendCachedRows(attn, q, cache.crossK, cache.crossV, live, heads, dh, scale, s.scores)
		layer.CrossAttn.WO.ApplyInto(proj, attn)
		tensor.AddInPlace(x, proj)
		layer.Norm2.Apply(x)

		ff := s.ff
		ff.Resize(n, s.m.Cfg.DFF)
		layer.FFN.In.applyReLUInto(ff, x)
		layer.FFN.Out.ApplyInto(proj, ff)
		tensor.AddInPlace(x, proj)
		layer.Norm3.Apply(x)
	}

	s.logits.Resize(n, s.m.Cfg.VocabSize)
	s.m.P.OutProj.ApplyInto(s.logits, x)
	for r, i := range live {
		s.out[i] = s.logits.Row(r)
	}
	return s.out, nil
}

// greedyDecode runs the shared greedy decoding loop over a (batch or
// single-row) decode state: one token per unfinished segment per step,
// argmax selection, EOS or the per-segment cap stopping each segment.
func greedyDecode(st *BatchDecodeState, caps []int, maxNew int) ([]GenerateResult, error) {
	nSeg := st.Segments()
	if len(caps) != nSeg {
		return nil, fmt.Errorf("model: %d caps for %d segments", len(caps), nSeg)
	}
	results := make([]GenerateResult, nSeg)
	next := make([]int, nSeg)
	for i := range next {
		next[i] = vocab.BosID
		if caps[i] <= 0 {
			st.MarkFinished(i)
		}
	}
	for step := 0; step < maxNew && !st.AllFinished(); step++ {
		logits, err := st.Step(next)
		if err != nil {
			return nil, err
		}
		for i := 0; i < nSeg; i++ {
			if st.Finished(i) || logits[i] == nil {
				continue
			}
			best, bestj := float32(math.Inf(-1)), 0
			for j, v := range logits[i] {
				if v > best {
					best, bestj = v, j
				}
			}
			results[i].Steps = step + 1
			if bestj == vocab.EosID {
				st.MarkFinished(i)
				continue
			}
			results[i].Tokens = append(results[i].Tokens, bestj)
			next[i] = bestj
			if len(results[i].Tokens) >= caps[i] {
				st.MarkFinished(i)
			}
		}
	}
	return results, nil
}
