package model

import (
	"fmt"

	"tcb/internal/tensor"
)

// DecodeState is the KV-cached incremental decoder for one (possibly
// concatenated) row: instead of re-running the decoder stack over the full
// prefix at every step (O(T²) token passes, what GenerateRow does), it
// caches each layer's self-attention keys/values per segment and the
// cross-attention keys/values once, advancing every live segment by one
// token per Step.
//
// Correctness relies on the same isolation ConcatBatching establishes for
// the batch case: a segment's cached keys/values are exactly the rows the
// block-diagonal mask would have exposed, so cached decoding produces the
// same tokens as mask-based decoding (tested to exact token equality).
//
// Since that isolation is per segment, nothing distinguishes "the segments
// of one row" from "the segments of many rows": DecodeState is simply the
// one-row view of BatchDecodeState, which fuses every row of a batch into
// batch-wide GEMMs per step. All step buffers and KV caches are allocated
// once at construction, sized by the model's MaxLen bound on decode
// positions, so a warm state performs zero heap allocations per Step — the
// property the alloc regression tests pin down.
type DecodeState struct {
	b *BatchDecodeState
}

// NewDecodeState precomputes the cross-attention caches from the encoder
// output, reserves every per-step buffer, and returns a state ready for
// Step.
func (m *Model) NewDecodeState(encOut *tensor.Matrix, encLayout RowLayout) *DecodeState {
	return &DecodeState{
		b: m.newBatchDecodeState([]BatchDecodeRow{{EncOut: encOut, Layout: encLayout}}, m.P.PosEnc.Rows),
	}
}

// Finished reports whether segment i has stopped decoding.
func (s *DecodeState) Finished(i int) bool { return s.b.Finished(i) }

// MarkFinished stops segment i (cap reached or EOS seen by the caller).
func (s *DecodeState) MarkFinished(i int) { s.b.MarkFinished(i) }

// AllFinished reports whether every segment has stopped.
func (s *DecodeState) AllFinished() bool { return s.b.AllFinished() }

// Step feeds one token per segment (tokens[i] is ignored for finished
// segments) and returns the vocabulary logits for each live segment
// (nil rows for finished ones). The first call must pass vocab.BosID for
// every segment. The returned slices alias the state's internal logits
// buffer and are valid only until the next Step call; callers that need
// them longer must copy.
func (s *DecodeState) Step(tokens []int) ([][]float32, error) {
	return s.b.Step(tokens)
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
	st := m.newBatchDecodeState([]BatchDecodeRow{{EncOut: encOut, Layout: encLayout}}, maxNew)
	defer st.Close()
	return greedyDecode(st, caps, maxNew)
}
