package model

import (
	"fmt"

	"tcb/internal/tensor"
	"tcb/internal/vocab"
)

// Oracles: the reference implementations the equality tests compare the
// production paths against (dense masked attention, mask-based re-run
// decoding, per-row cached decoding, a request encoded alone). No serving
// path calls them; DESIGN.md §18 keeps them here by name.

// MultiHeadAttention runs multi-head attention with queries from xq and
// keys/values from xkv, applying the optional additive mask to every head's
// score matrix (Eq. 5: Att_CB when mask is a block-diagonal RowLayout mask,
// plain Eq. 4 when mask is nil). It returns the WO-projected result.
func MultiHeadAttention(w *AttentionWeights, numHeads int, xq, xkv *tensor.Matrix, mask *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(xq.Rows, w.WQ.W.Cols)
	MultiHeadAttentionInto(out, w, numHeads, xq, xkv, mask, nil)
	return out
}

// BuildMask materializes the paper's mask matrix M (Eq. 6) for this row:
// a Total×Total additive mask that is 0 on each Q_i·K_iᵀ diagonal block and
// −∞ (tensor.NegInf) everywhere else, padding included.
func (r RowLayout) BuildMask() *tensor.Matrix {
	m := tensor.New(r.Total, r.Total)
	r.fillMask(m)
	return m
}

// EncodeSingle is a convenience wrapper: run one request alone (no
// concatenation, no padding) through the encoder. This is the reference
// the ConcatBatching equivalence tests compare against.
func (m *Model) EncodeSingle(tokens []int) *tensor.Matrix {
	layout := SingleSegment(len(tokens), len(tokens))
	return m.EncodeRow(tokens, layout, layout.WholeRowSlot(), AttDense, true)
}

// GenerateRow greedily decodes every segment of a row in lockstep: one new
// token per unfinished segment per step, exactly the auto-regressive batch
// decode the paper's early-memory-cleaning observation (§4.2.2) relies on —
// segments finish at different steps.
//
// encOut and encLayout come from EncodeRow. encSlots is the slot partition
// used for slotted self-attention inside the decoder (ignored for AttDense).
// maxNew bounds generation length per segment.
func (m *Model) GenerateRow(encOut *tensor.Matrix, encLayout RowLayout, encSlots []Slot,
	maxNew int, mode AttentionMode) []GenerateResult {
	caps := make([]int, len(encLayout.Segments))
	for i := range caps {
		caps[i] = maxNew
	}
	return m.GenerateRowCapped(encOut, encLayout, encSlots, caps, mode)
}

// GenerateRowCapped is GenerateRow with a per-segment generation cap —
// the natural setting for seq2seq serving, where output length tracks
// input length and requests in one batch therefore finish at different
// decoder steps (the premise of §4.2.2's early memory cleaning).
// len(caps) must equal the number of segments.
func (m *Model) GenerateRowCapped(encOut *tensor.Matrix, encLayout RowLayout, encSlots []Slot,
	caps []int, mode AttentionMode) []GenerateResult {
	nSeg := len(encLayout.Segments)
	if len(caps) != nSeg {
		panic(fmt.Sprintf("model: %d caps for %d segments", len(caps), nSeg))
	}
	maxNew := 0
	for _, c := range caps {
		if c > maxNew {
			maxNew = c
		}
	}
	ws := tensor.NewWorkspace()
	defer ws.Close()
	results := make([]GenerateResult, nSeg)
	prefixes := make([][]int, nSeg)
	finished := make([]bool, nSeg)
	for i := range prefixes {
		prefixes[i] = []int{vocab.BosID}
		if caps[i] <= 0 {
			finished[i] = true
		}
	}
	for step := 0; step < maxNew; step++ {
		allDone := true
		for _, f := range finished {
			if !f {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		// Build the concatenated decoder row from current prefixes.
		lengths := make([]int, nSeg)
		total := 0
		for i, p := range prefixes {
			lengths[i] = len(p)
			total += len(p)
		}
		decLayout := ConcatLayout(lengths, total)
		decTokens := make([]int, 0, total)
		for _, p := range prefixes {
			decTokens = append(decTokens, p...)
		}
		var decSlots []Slot
		if mode == AttSlotted {
			decSlots = regroupSlots(encSlots, decLayout)
		}
		hidden := m.decodeStep(decTokens, decLayout, decSlots, encOut, encLayout, mode, ws)
		// Read the logits at each segment's last position.
		for i, seg := range decLayout.Segments {
			if finished[i] {
				continue
			}
			last := hidden.View(seg.End()-1, seg.End())
			logits := m.Logits(last)
			next := tensor.ArgmaxRows(logits)[0]
			results[i].Steps = step + 1
			if next == vocab.EosID {
				finished[i] = true
				continue
			}
			prefixes[i] = append(prefixes[i], next)
			results[i].Tokens = append(results[i].Tokens, next)
			if len(results[i].Tokens) >= caps[i] {
				finished[i] = true
			}
		}
	}
	return results
}

// GenerateRowCached mirrors GenerateRowCapped using the KV-cached
// incremental decoder: same greedy decoding, same outputs, O(T) token
// passes per segment instead of O(T²). It is the per-row counterpart of
// GenerateBatchCached (one decode state per row instead of one fused state
// per batch), kept as the reference the engine's fused loop is tested against.
func (m *Model) GenerateRowCached(encOut *tensor.Matrix, encLayout RowLayout, caps []int) ([]GenerateResult, error) {
	nSeg := len(encLayout.Segments)
	if len(caps) != nSeg {
		return nil, fmt.Errorf("model: %d caps for %d segments", len(caps), nSeg)
	}
	maxNew := 0
	for _, c := range caps {
		if c > maxNew {
			maxNew = c
		}
	}
	st := m.NewBatchDecodeStateReserve([]BatchDecodeRow{{EncOut: encOut, Layout: encLayout}}, maxNew)
	defer st.Close()
	return greedyDecode(st, caps, maxNew)
}

// GenerateBatchCached greedily decodes every row of a batch through one
// fused BatchDecodeState: per decode step, all rows' live segments advance
// together through batch-wide GEMMs. caps[r][i] bounds generation for row
// r's segment i. Results mirror the input shape and are token-identical to
// running GenerateRowCached on each row independently.
func (m *Model) GenerateBatchCached(rows []BatchDecodeRow, caps [][]int) ([][]GenerateResult, error) {
	if len(caps) != len(rows) {
		return nil, fmt.Errorf("model: %d cap rows for %d batch rows", len(caps), len(rows))
	}
	flatCaps := make([]int, 0, len(rows))
	maxNew := 0
	for r, row := range rows {
		if len(caps[r]) != len(row.Layout.Segments) {
			return nil, fmt.Errorf("model: row %d has %d caps for %d segments",
				r, len(caps[r]), len(row.Layout.Segments))
		}
		for _, c := range caps[r] {
			flatCaps = append(flatCaps, c)
			if c > maxNew {
				maxNew = c
			}
		}
	}
	st := m.NewBatchDecodeStateReserve(rows, maxNew)
	defer st.Close()
	flat, err := greedyDecode(st, flatCaps, maxNew)
	if err != nil {
		return nil, err
	}
	out := make([][]GenerateResult, len(rows))
	for r := range rows {
		lo, hi := st.RowSpan(r)
		out[r] = flat[lo:hi:hi]
	}
	return out, nil
}
