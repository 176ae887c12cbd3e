package model

import (
	"fmt"

	"tcb/internal/tensor"
)

// AttentionMode selects how self-attention handles a concatenated row.
type AttentionMode int

const (
	// AttDense computes the full row×row score matrix and neutralizes
	// inter-request entries with the mask M — pure ConcatBatching as the
	// paper writes it (§4.1), kept as the reference the block path is
	// tested against.
	AttDense AttentionMode = iota
	// AttSlotted computes attention per block — per slot (Att_CB_S, §4.2.1)
	// or, without slots, per segment — skipping the off-block score entries
	// entirely. Every engine encode takes this route.
	AttSlotted
)

func (m AttentionMode) String() string {
	switch m {
	case AttDense:
		return "dense"
	case AttSlotted:
		return "slotted"
	default:
		return fmt.Sprintf("AttentionMode(%d)", int(m))
	}
}

// Model is a Seq2Seq transformer with ConcatBatching-aware inference.
type Model struct {
	Cfg Config
	P   *Params
}

// New builds a model with deterministic random weights.
func New(cfg Config, seed uint64) *Model {
	return &Model{Cfg: cfg, P: NewParams(cfg, seed)}
}

// embedRow embeds one row of token ids and applies positional encoding.
// separatePE selects TCB's per-segment encoding (Fig. 5b) versus the
// traditional whole-row encoding (Fig. 5a).
func (m *Model) embedRow(tokens []int, layout RowLayout, separatePE bool) *tensor.Matrix {
	if len(tokens) != layout.Total {
		panic(fmt.Sprintf("model: %d tokens vs layout total %d", len(tokens), layout.Total))
	}
	x := m.P.Embed(tokens)
	if separatePE {
		AddPositionalSeparate(x, m.P.PosEnc, layout)
	} else {
		AddPositionalTraditional(x, m.P.PosEnc)
	}
	return x
}

// attnCtx carries one row's per-mode attention inputs through the layer
// stack so they are built once per row, not once per layer: the dense mask
// for AttDense, the slot blocks and per-token segment ids for AttSlotted.
type attnCtx struct {
	mode   AttentionMode
	mask   *tensor.Matrix // dense additive mask (AttDense only)
	blocks []tensor.AttendBlock
	segIDs []int
	ws     *tensor.Workspace
}

// selfAttnInto dispatches one self-attention according to the row context.
func (m *Model) selfAttnInto(dst *tensor.Matrix, w *AttentionWeights, x *tensor.Matrix, rc *attnCtx, causal bool) {
	if rc.mode == AttSlotted {
		MultiHeadAttentionBlocksInto(dst, w, m.Cfg.NumHeads, x, x, rc.blocks, rc.segIDs, rc.segIDs, causal, rc.ws)
		return
	}
	MultiHeadAttentionInto(dst, w, m.Cfg.NumHeads, x, x, rc.mask, rc.ws)
}

// EncodeRow runs the encoder stack over one (possibly concatenated) row.
//
// tokens must have length layout.Total with padding positions set to
// vocab.PadID. AttSlotted is the production path: attention runs per block,
// one block per slot (slots must partition the segments) or, with no slots,
// one per segment — a request then encodes to the same bits alone or at any
// offset of any row. AttDense is the reference: the full Total×Total score
// matrix under the mask M; slots is ignored. separatePE must be true whenever the row holds more than one
// segment, or results are wrong — EncodeRow enforces this.
func (m *Model) EncodeRow(tokens []int, layout RowLayout, slots []Slot, mode AttentionMode, separatePE bool) *tensor.Matrix {
	return m.EncodeRowWS(tokens, layout, slots, mode, separatePE, nil)
}

// EncodeRowWS is EncodeRow with an explicit workspace for all layer
// intermediates; the engine passes one workspace per batch row so repeated
// rows reuse the same buffers. ws may be nil. The returned matrix is
// independently allocated (it outlives the workspace).
func (m *Model) EncodeRowWS(tokens []int, layout RowLayout, slots []Slot, mode AttentionMode, separatePE bool, ws *tensor.Workspace) *tensor.Matrix {
	if err := layout.Validate(); err != nil {
		panic(err)
	}
	if len(layout.Segments) > 1 && !separatePE {
		panic("model: concatenated rows require separate positional encoding")
	}
	x := m.embedRow(tokens, layout, separatePE)
	rc := attnCtx{mode: mode, ws: ws}
	if mode == AttSlotted {
		// Block rows never materialize the Total×Total mask: the block list
		// (plus segment ids where a block mixes segments) carries the same
		// structure to the kernel.
		var masked bool
		if rc.blocks, masked = layout.selfBlocks(slots, ws); masked {
			rc.segIDs = layout.SegIDs()
		}
	} else {
		// The Total×Total mask is as large as the row's hidden states and
		// dead once the row is encoded: a workspace buffer, not garbage.
		rc.mask = ws.Get(layout.Total, layout.Total)
		layout.fillMask(rc.mask)
		defer ws.Put(rc.mask)
	}
	d := m.Cfg.DModel
	for _, layer := range m.P.Encoder {
		attn := ws.Get(x.Rows, d)
		m.selfAttnInto(attn, layer.SelfAttn, x, &rc, false)
		tensor.AddInPlace(x, attn)
		layer.Norm1.Apply(x)
		layer.FFN.ApplyInto(attn, x, ws)
		tensor.AddInPlace(x, attn)
		layer.Norm2.Apply(x)
		ws.Put(attn)
	}
	return x
}

// decodeStep runs the decoder stack over the current concatenated decoder
// prefixes and returns the hidden states.
func (m *Model) decodeStep(decTokens []int, decLayout RowLayout, decSlots []Slot,
	encOut *tensor.Matrix, encLayout RowLayout, mode AttentionMode, ws *tensor.Workspace) *tensor.Matrix {
	x := m.embedRow(decTokens, decLayout, true)
	rc := attnCtx{mode: mode, ws: ws}
	var crossMask *tensor.Matrix
	var crossBlocks []tensor.AttendBlock
	if mode == AttSlotted {
		rc.blocks = SlotBlocks(decSlots)
		rc.segIDs = decLayout.SegIDs()
		crossBlocks = CrossBlocks(decLayout, encLayout)
	} else {
		rc.mask = decLayout.BuildCausalMask()
		crossMask = decLayout.BuildCrossMask(encLayout)
	}
	d := m.Cfg.DModel
	for _, layer := range m.P.Decoder {
		attn := ws.Get(x.Rows, d)
		m.selfAttnInto(attn, layer.SelfAttn, x, &rc, true)
		tensor.AddInPlace(x, attn)
		layer.Norm1.Apply(x)
		if mode == AttSlotted {
			MultiHeadAttentionBlocksInto(attn, layer.CrossAttn, m.Cfg.NumHeads, x, encOut, crossBlocks, nil, nil, false, ws)
		} else {
			MultiHeadAttentionInto(attn, layer.CrossAttn, m.Cfg.NumHeads, x, encOut, crossMask, ws)
		}
		tensor.AddInPlace(x, attn)
		layer.Norm2.Apply(x)
		layer.FFN.ApplyInto(attn, x, ws)
		tensor.AddInPlace(x, attn)
		layer.Norm3.Apply(x)
		ws.Put(attn)
	}
	return x
}

// Logits projects hidden states to vocabulary logits.
func (m *Model) Logits(hidden *tensor.Matrix) *tensor.Matrix {
	return m.P.OutProj.Apply(hidden)
}

// regroupSlots maps an encoder slot partition onto a decoder layout: slot k
// of the result contains the same segment indices as encSlots[k], with
// offsets recomputed from decLayout. Empty groups are dropped.
func regroupSlots(encSlots []Slot, decLayout RowLayout) []Slot {
	out := make([]Slot, 0, len(encSlots))
	for _, s := range encSlots {
		var ns Slot
		first := true
		for _, si := range s.SegIdx {
			seg := decLayout.Segments[si]
			if first {
				ns.Start = seg.Start
				first = false
			}
			ns.SegIdx = append(ns.SegIdx, si)
			ns.Len = seg.End() - ns.Start
		}
		if !first {
			out = append(out, ns)
		}
	}
	return out
}

// GenerateResult is the decoded output for one segment of a row.
type GenerateResult struct {
	Tokens []int // generated ids, EOS excluded
	Steps  int   // decode steps consumed (≥1 unless maxNew == 0)
}
