package model

import (
	"fmt"
	"testing"
	"testing/quick"

	"tcb/internal/tensor"
)

func TestConcatLayoutOffsets(t *testing.T) {
	l := ConcatLayout([]int{3, 5, 2}, 12)
	want := []Segment{{0, 3}, {3, 5}, {8, 2}}
	if len(l.Segments) != 3 {
		t.Fatalf("segments = %d, want 3", len(l.Segments))
	}
	for i, s := range want {
		if l.Segments[i] != s {
			t.Fatalf("segment %d = %+v, want %+v", i, l.Segments[i], s)
		}
	}
	if l.Used() != 10 || l.PaddedTokens() != 2 {
		t.Fatalf("used/padded = %d/%d, want 10/2", l.Used(), l.PaddedTokens())
	}
}

func TestConcatLayoutOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflow")
		}
	}()
	ConcatLayout([]int{5, 6}, 10)
}

func TestConcatLayoutZeroLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero-length segment")
		}
	}()
	ConcatLayout([]int{3, 0}, 10)
}

func TestSingleSegment(t *testing.T) {
	l := SingleSegment(4, 10)
	if l.Used() != 4 || l.PaddedTokens() != 6 || len(l.Segments) != 1 {
		t.Fatalf("unexpected layout %+v", l)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsNonContiguous(t *testing.T) {
	l := RowLayout{Segments: []Segment{{0, 3}, {4, 2}}, Total: 10}
	if l.Validate() == nil {
		t.Fatal("gap between segments should fail validation")
	}
	l = RowLayout{Segments: []Segment{{0, 3}, {2, 2}}, Total: 10}
	if l.Validate() == nil {
		t.Fatal("overlapping segments should fail validation")
	}
	l = RowLayout{Segments: []Segment{{0, 11}}, Total: 10}
	if l.Validate() == nil {
		t.Fatal("overflowing segment should fail validation")
	}
}

func TestSegmentOf(t *testing.T) {
	l := ConcatLayout([]int{2, 3}, 8)
	cases := map[int]int{0: 0, 1: 0, 2: 1, 4: 1, 5: -1, 7: -1}
	for pos, want := range cases {
		if got := l.SegmentOf(pos); got != want {
			t.Fatalf("SegmentOf(%d) = %d, want %d", pos, got, want)
		}
	}
}

func TestBuildMaskBlockDiagonal(t *testing.T) {
	l := ConcatLayout([]int{2, 2}, 5)
	m := l.BuildMask()
	if m.Rows != 5 || m.Cols != 5 {
		t.Fatalf("mask shape %dx%d", m.Rows, m.Cols)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			si, sj := l.SegmentOf(i), l.SegmentOf(j)
			wantOpen := si >= 0 && si == sj
			isOpen := m.At(i, j) == 0
			if isOpen != wantOpen {
				t.Fatalf("mask[%d][%d] open=%v, want %v", i, j, isOpen, wantOpen)
			}
			if !isOpen && m.At(i, j) != tensor.NegInf {
				t.Fatalf("closed entry should be NegInf, got %v", m.At(i, j))
			}
		}
	}
}

func TestBuildCausalMask(t *testing.T) {
	l := ConcatLayout([]int{3, 2}, 5)
	m := l.BuildCausalMask()
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			si, sj := l.SegmentOf(i), l.SegmentOf(j)
			wantOpen := si >= 0 && si == sj && j <= i
			if (m.At(i, j) == 0) != wantOpen {
				t.Fatalf("causal mask[%d][%d] wrong", i, j)
			}
		}
	}
}

func TestBuildCrossMask(t *testing.T) {
	dec := ConcatLayout([]int{2, 2}, 4)
	enc := ConcatLayout([]int{3, 4}, 8)
	m := dec.BuildCrossMask(enc)
	if m.Rows != 4 || m.Cols != 8 {
		t.Fatalf("cross mask shape %dx%d", m.Rows, m.Cols)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			wantOpen := dec.SegmentOf(i) >= 0 && dec.SegmentOf(i) == enc.SegmentOf(j)
			if (m.At(i, j) == 0) != wantOpen {
				t.Fatalf("cross mask[%d][%d] wrong", i, j)
			}
		}
	}
}

func TestBuildCrossMaskSegmentCountMismatchPanics(t *testing.T) {
	dec := ConcatLayout([]int{2}, 2)
	enc := ConcatLayout([]int{2, 2}, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on segment count mismatch")
		}
	}()
	dec.BuildCrossMask(enc)
}

func TestSlotsOfSizeBasic(t *testing.T) {
	l := ConcatLayout([]int{3, 4, 2, 5}, 20)
	slots, err := l.SlotsOfSize(7)
	if err != nil {
		t.Fatal(err)
	}
	// 3+4=7 fits slot 1; 2+5=7 fits slot 2.
	if len(slots) != 2 {
		t.Fatalf("slots = %d, want 2: %+v", len(slots), slots)
	}
	if slots[0].Start != 0 || slots[0].Len != 7 || len(slots[0].SegIdx) != 2 {
		t.Fatalf("slot0 = %+v", slots[0])
	}
	if slots[1].Start != 7 || slots[1].Len != 7 {
		t.Fatalf("slot1 = %+v", slots[1])
	}
}

func TestSlotsOfSizeNeverSplitsSegments(t *testing.T) {
	l := ConcatLayout([]int{4, 4, 4}, 12)
	slots, err := l.SlotsOfSize(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 3 {
		t.Fatalf("each 4-token segment needs its own 6-slot, got %+v", slots)
	}
}

func TestSlotsOfSizeRejectsOversizedSegment(t *testing.T) {
	l := ConcatLayout([]int{10}, 10)
	if _, err := l.SlotsOfSize(5); err == nil {
		t.Fatal("expected error for segment longer than slot")
	}
	if _, err := l.SlotsOfSize(0); err == nil {
		t.Fatal("expected error for non-positive slot size")
	}
}

func TestWholeRowSlot(t *testing.T) {
	l := ConcatLayout([]int{3, 2}, 10)
	slots := l.WholeRowSlot()
	if len(slots) != 1 || slots[0].Start != 0 || slots[0].Len != 5 || len(slots[0].SegIdx) != 2 {
		t.Fatalf("WholeRowSlot = %+v", slots)
	}
	empty := RowLayout{Total: 5}
	if empty.WholeRowSlot() != nil {
		t.Fatal("empty layout should yield no slots")
	}
}

func TestScoreAreaShrinksWithSlots(t *testing.T) {
	l := ConcatLayout([]int{4, 4, 4, 4}, 16)
	whole := ScoreArea(l.WholeRowSlot())
	slots, err := l.SlotsOfSize(4)
	if err != nil {
		t.Fatal(err)
	}
	slotted := ScoreArea(slots)
	if whole != 256 || slotted != 64 {
		t.Fatalf("areas = %d/%d, want 256/64", whole, slotted)
	}
}

// Property: any slot partition covers every segment exactly once, keeps
// slots within the size bound, and never reduces below the per-segment area.
func TestSlotsPartitionProperty(t *testing.T) {
	f := func(raw []uint8, sizeRaw uint8) bool {
		var lengths []int
		total := 0
		for _, r := range raw {
			l := int(r%9) + 1 // lengths 1..9
			if total+l > 200 {
				break
			}
			lengths = append(lengths, l)
			total += l
		}
		if len(lengths) == 0 {
			return true
		}
		size := int(sizeRaw%20) + 9 // ≥ max possible segment length
		layout := ConcatLayout(lengths, total)
		slots, err := layout.SlotsOfSize(size)
		if err != nil {
			return false
		}
		covered := make(map[int]bool)
		for _, s := range slots {
			if s.Len > size || s.Len <= 0 {
				return false
			}
			for _, si := range s.SegIdx {
				if covered[si] {
					return false // segment in two slots
				}
				covered[si] = true
			}
			// Slot must exactly span its segments.
			first := layout.Segments[s.SegIdx[0]]
			last := layout.Segments[s.SegIdx[len(s.SegIdx)-1]]
			if s.Start != first.Start || s.Start+s.Len != last.End() {
				return false
			}
		}
		if len(covered) != len(lengths) {
			return false
		}
		// Slotting can only shrink the score area vs the whole row.
		return ScoreArea(slots) <= ScoreArea(layout.WholeRowSlot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// SegmentOf returns the index of the segment containing token offset pos,
// or -1 if pos falls in padding.
func (r RowLayout) SegmentOf(pos int) int {
	for i, s := range r.Segments {
		if pos >= s.Start && pos < s.End() {
			return i
		}
	}
	return -1
}

// SlotsOfSize partitions the row into slots of at most size tokens, never
// splitting a segment across slots. It returns an error if any segment is
// longer than size (such requests cannot be served at this slot size —
// exactly the constraint §4.2.1 discusses).
func (r RowLayout) SlotsOfSize(size int) ([]Slot, error) {
	if size <= 0 {
		return nil, fmt.Errorf("model: slot size %d must be positive", size)
	}
	var slots []Slot
	cur := Slot{}
	flush := func() {
		if len(cur.SegIdx) > 0 {
			slots = append(slots, cur)
		}
	}
	for i, s := range r.Segments {
		if s.Len > size {
			return nil, fmt.Errorf("model: segment %d length %d exceeds slot size %d", i, s.Len, size)
		}
		if len(cur.SegIdx) > 0 && (s.End()-cur.Start) > size {
			flush()
			cur = Slot{}
		}
		if len(cur.SegIdx) == 0 {
			cur.Start = s.Start
		}
		cur.SegIdx = append(cur.SegIdx, i)
		cur.Len = s.End() - cur.Start
	}
	flush()
	return slots, nil
}

// PaddedTokens returns the number of padding tokens in the row.
func (r RowLayout) PaddedTokens() int { return r.Total - r.Used() }
