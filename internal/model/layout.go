package model

import (
	"fmt"

	"tcb/internal/tensor"
)

// Segment is one request's span inside a concatenated batch row.
type Segment struct {
	Start int // first token offset within the row
	Len   int // number of tokens
}

// End returns the exclusive end offset of the segment.
func (s Segment) End() int { return s.Start + s.Len }

// RowLayout describes how requests are concatenated in one batch row:
// a list of contiguous, non-overlapping segments followed (optionally) by
// padding up to the row capacity.
type RowLayout struct {
	Segments []Segment
	Total    int // row length in tokens, padding included
}

// SingleSegment returns the layout of a traditional (non-concatenated) row:
// one request of length n padded to total.
func SingleSegment(n, total int) RowLayout {
	return RowLayout{Segments: []Segment{{Start: 0, Len: n}}, Total: total}
}

// ConcatLayout lays out requests of the given lengths back to back and pads
// the remainder up to total. It panics if the lengths overflow total.
func ConcatLayout(lengths []int, total int) RowLayout {
	layout := RowLayout{Segments: make([]Segment, 0, len(lengths)), Total: total}
	off := 0
	for _, l := range lengths {
		if l <= 0 {
			panic(fmt.Sprintf("model: non-positive segment length %d", l))
		}
		layout.Segments = append(layout.Segments, Segment{Start: off, Len: l})
		off += l
	}
	if off > total {
		panic(fmt.Sprintf("model: segments total %d exceed row capacity %d", off, total))
	}
	return layout
}

// Used returns the number of non-padding tokens in the row.
func (r RowLayout) Used() int {
	n := 0
	for _, s := range r.Segments {
		n += s.Len
	}
	return n
}

// Validate checks that segments are contiguous from offset 0, non-empty and
// fit within Total. The TCB engine requires this canonical form.
func (r RowLayout) Validate() error {
	off := 0
	for i, s := range r.Segments {
		if s.Len <= 0 {
			return fmt.Errorf("model: segment %d has length %d", i, s.Len)
		}
		if s.Start != off {
			return fmt.Errorf("model: segment %d starts at %d, want %d", i, s.Start, off)
		}
		off = s.End()
	}
	if off > r.Total {
		return fmt.Errorf("model: segments use %d tokens, row capacity %d", off, r.Total)
	}
	return nil
}

// SegIDs returns the per-token segment index of the row (-1 for padding
// positions). The block-sparse attention kernel consumes this vector
// directly instead of a materialized Total×Total mask.
func (r RowLayout) SegIDs() []int {
	ids := make([]int, r.Total)
	for i := range ids {
		ids[i] = -1
	}
	for si, s := range r.Segments {
		for i := s.Start; i < s.End(); i++ {
			ids[i] = si
		}
	}
	return ids
}

// SlotBlocks converts a slot partition into self-attention blocks for the
// block-sparse kernel: each slot attends within itself (Q and K spans
// coincide), so the kernel's score area is exactly Σ zᵢ² (Eq. 8).
func SlotBlocks(slots []Slot) []tensor.AttendBlock {
	blocks := make([]tensor.AttendBlock, len(slots))
	for i, s := range slots {
		blocks[i] = selfBlock(s.Start, s.Len)
	}
	return blocks
}

func selfBlock(start, n int) tensor.AttendBlock {
	sp := tensor.Span{Start: start, End: start + n}
	return tensor.AttendBlock{Q: sp, K: sp}
}

// selfBlocks lists the row's encoder self-attention blocks in ws-owned
// scratch: one per slot, or — no slots, the finest partition — one per
// segment (pure ConcatBatching is the slotted scheme with slot = request).
// masked reports whether some block holds anything but exactly one segment
// (a shared slot, or a padded baseline row) and so needs the inline segment
// mask; when none does, the kernel runs without segment ids at all.
func (r RowLayout) selfBlocks(slots []Slot, ws *tensor.Workspace) (blocks []tensor.AttendBlock, masked bool) {
	if len(slots) == 0 {
		blocks = ws.Blocks(len(r.Segments))
		for i, s := range r.Segments {
			blocks[i] = selfBlock(s.Start, s.Len)
		}
		return blocks, false
	}
	blocks = ws.Blocks(len(slots))
	for i, s := range slots {
		blocks[i] = selfBlock(s.Start, s.Len)
		if len(s.SegIdx) != 1 || r.Segments[s.SegIdx[0]].Len != s.Len {
			masked = true
		}
	}
	return blocks, masked
}

// CrossBlocks pairs each decoder segment with its encoder segment for
// block-sparse cross-attention: decoder tokens of segment i attend only to
// encoder tokens of segment i, the same structure BuildCrossMask encodes
// densely. The layouts must have the same number of segments.
func CrossBlocks(dec, enc RowLayout) []tensor.AttendBlock {
	if len(dec.Segments) != len(enc.Segments) {
		panic(fmt.Sprintf("model: cross blocks with %d decoder vs %d encoder segments",
			len(dec.Segments), len(enc.Segments)))
	}
	blocks := make([]tensor.AttendBlock, len(dec.Segments))
	for i, d := range dec.Segments {
		e := enc.Segments[i]
		blocks[i] = tensor.AttendBlock{
			Q: tensor.Span{Start: d.Start, End: d.End()},
			K: tensor.Span{Start: e.Start, End: e.End()},
		}
	}
	return blocks
}

// fillMask writes BuildMask's matrix into m, which must be Total×Total.
func (r RowLayout) fillMask(m *tensor.Matrix) {
	m.Fill(tensor.NegInf)
	for _, s := range r.Segments {
		for i := s.Start; i < s.End(); i++ {
			row := m.Row(i)
			for j := s.Start; j < s.End(); j++ {
				row[j] = 0
			}
		}
	}
}

// BuildCausalMask is BuildMask restricted additionally to causal order:
// token i may attend to token j only if they share a segment and j ≤ i.
// The decoder's self-attention uses this.
func (r RowLayout) BuildCausalMask() *tensor.Matrix {
	m := tensor.New(r.Total, r.Total)
	m.Fill(tensor.NegInf)
	for _, s := range r.Segments {
		for i := s.Start; i < s.End(); i++ {
			row := m.Row(i)
			for j := s.Start; j <= i; j++ {
				row[j] = 0
			}
		}
	}
	return m
}

// BuildCrossMask returns the additive mask for decoder→encoder cross
// attention: decoder token in segment i (layout r) may attend only to
// encoder tokens of segment i (layout enc). The two layouts must have the
// same number of segments.
func (r RowLayout) BuildCrossMask(enc RowLayout) *tensor.Matrix {
	if len(r.Segments) != len(enc.Segments) {
		panic(fmt.Sprintf("model: cross mask with %d decoder vs %d encoder segments",
			len(r.Segments), len(enc.Segments)))
	}
	m := tensor.New(r.Total, enc.Total)
	m.Fill(tensor.NegInf)
	for si, s := range r.Segments {
		es := enc.Segments[si]
		for i := s.Start; i < s.End(); i++ {
			row := m.Row(i)
			for j := es.Start; j < es.End(); j++ {
				row[j] = 0
			}
		}
	}
	return m
}

// Slot groups one or more whole segments for slotted ConcatBatching (§4.2).
// A slot spans token offsets [Start, Start+Len) of the row.
type Slot struct {
	Start int
	Len   int
	// SegIdx lists the indices (into RowLayout.Segments) of the segments
	// the slot contains.
	SegIdx []int
}

// WholeRowSlot returns the single slot covering every segment — pure
// ConcatBatching is the slotted scheme with one slot (§5.3).
func (r RowLayout) WholeRowSlot() []Slot {
	idx := make([]int, len(r.Segments))
	for i := range idx {
		idx[i] = i
	}
	used := r.Used()
	if used == 0 {
		return nil
	}
	return []Slot{{Start: 0, Len: used, SegIdx: idx}}
}
