package gpu

import (
	"testing"
	"testing/quick"

	"tcb/internal/batch"
)

func TestMemoryManagerBasics(t *testing.T) {
	m := NewMemoryManager(100)
	if err := m.Alloc("a", 40); err != nil {
		t.Fatal(err)
	}
	if err := m.Alloc("b", 50); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 90 || m.Peak() != 90 || m.Outstanding() != 2 {
		t.Fatalf("used/peak/outstanding = %d/%d/%d", m.Used(), m.Peak(), m.Outstanding())
	}
	if err := m.Alloc("c", 20); err == nil {
		t.Fatal("expected OOM")
	}
	if err := m.Free("a"); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 50 || m.Peak() != 90 {
		t.Fatalf("after free: used/peak = %d/%d", m.Used(), m.Peak())
	}
	if err := m.Alloc("c", 20); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestMemoryManagerErrors(t *testing.T) {
	m := NewMemoryManager(0) // unlimited
	if err := m.Alloc("x", 0); err == nil {
		t.Fatal("zero-byte alloc should fail")
	}
	if err := m.Alloc("x", 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Alloc("x", 10); err == nil {
		t.Fatal("duplicate tag should fail")
	}
	if err := m.Free("missing"); err == nil {
		t.Fatal("free of unknown tag should fail")
	}
	if err := m.Free("x"); err != nil {
		t.Fatal(err)
	}
	if err := m.Free("x"); err == nil {
		t.Fatal("double free should fail")
	}
}

func TestMemoryManagerUnlimited(t *testing.T) {
	m := NewMemoryManager(0)
	if err := m.Alloc("big", 1<<50); err != nil {
		t.Fatalf("unlimited manager rejected alloc: %v", err)
	}
}

// Property: allocations and frees always balance Used back to zero.
func TestMemoryBalanceProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		m := NewMemoryManager(0)
		var tags []string
		for i, s := range sizes {
			if s == 0 {
				continue
			}
			tag := string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('A'+i/260%26))
			if err := m.Alloc(tag, int64(s)); err != nil {
				return false
			}
			tags = append(tags, tag)
		}
		for _, tag := range tags {
			if err := m.Free(tag); err != nil {
				return false
			}
		}
		return m.Used() == 0 && m.Outstanding() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// slottedBatch builds a 1-row slotted batch with the given item lengths and
// slot size, packed sequentially.
func slottedBatch(slotSize, rowLen int, lens ...int) *batch.Batch {
	items := make([]batch.Item, len(lens))
	for i, l := range lens {
		items[i] = batch.Item{ID: int64(i + 1), Len: l}
	}
	b, rest := batch.PackSlotted(items, 1, rowLen, slotSize)
	if len(rest) != 0 {
		panic("test batch did not fit")
	}
	return b
}

func TestWholeBatchCleaning(t *testing.T) {
	b := slottedBatch(5, 10, 3, 4)
	finish := map[int64]int{1: 2, 2: 7}
	rep, err := SimulateWholeBatchCleaning(b, finish, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalStep != 7 {
		t.Fatalf("final step = %d, want 7", rep.FinalStep)
	}
	if rep.TotalBytes != int64(b.TotalTokens())*4 {
		t.Fatalf("total bytes = %d", rep.TotalBytes)
	}
	if rep.ByteSteps != rep.TotalBytes*7 {
		t.Fatalf("byte-steps = %d", rep.ByteSteps)
	}
	if rep.EarliestFree != 7 {
		t.Fatalf("whole-batch policy frees only at the end, got %d", rep.EarliestFree)
	}
}

func TestEarlyCleaningFreesSlotsIndependently(t *testing.T) {
	// Two slots of size 5: slot 1 holds item 1 (finishes step 2),
	// slot 2 holds item 2 (finishes step 7).
	b := slottedBatch(5, 10, 3, 4)
	finish := map[int64]int{1: 2, 2: 7}
	early, err := SimulateEarlyCleaning(b, finish, 4)
	if err != nil {
		t.Fatal(err)
	}
	if early.EarliestFree != 2 {
		t.Fatalf("earliest free = %d, want 2", early.EarliestFree)
	}
	if early.FinalStep != 7 {
		t.Fatalf("final step = %d", early.FinalStep)
	}
	// slot bytes = 5·4 = 20; byte-steps = 20·2 + 20·7 = 180.
	if early.ByteSteps != 180 {
		t.Fatalf("byte-steps = %d, want 180", early.ByteSteps)
	}
	whole, err := SimulateWholeBatchCleaning(b, finish, 4)
	if err != nil {
		t.Fatal(err)
	}
	if early.ByteSteps >= whole.ByteSteps {
		t.Fatal("early cleaning should save byte-steps when finish times differ")
	}
	if early.FinalStep-early.EarliestFree != 5 {
		t.Fatalf("overlap = %d, want 5", early.FinalStep-early.EarliestFree)
	}
	if whole.FinalStep-whole.EarliestFree != 0 {
		t.Fatal("whole-batch cleaning offers no overlap")
	}
}

func TestEarlyCleaningSharedSlot(t *testing.T) {
	// Both items share one slot → the slot frees at the later finish.
	b := slottedBatch(10, 10, 3, 4)
	finish := map[int64]int{1: 2, 2: 7}
	rep, err := SimulateEarlyCleaning(b, finish, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EarliestFree != 7 {
		t.Fatalf("shared slot must wait for both: earliest = %d", rep.EarliestFree)
	}
}

func TestEarlyCleaningRejectsDense(t *testing.T) {
	items := []batch.Item{{ID: 1, Len: 5}}
	b, _ := batch.PackConcat(items, 1, 10)
	if _, err := SimulateEarlyCleaning(b, map[int64]int{1: 3}, 4); err == nil {
		t.Fatal("early cleaning must require slotted batches")
	}
}

func TestCleaningMissingFinish(t *testing.T) {
	b := slottedBatch(5, 10, 3)
	if _, err := SimulateWholeBatchCleaning(b, map[int64]int{}, 4); err == nil {
		t.Fatal("missing finish step should error")
	}
	if _, err := SimulateEarlyCleaning(b, map[int64]int{1: -1}, 4); err == nil {
		t.Fatal("negative finish step should error")
	}
	if _, err := SimulateWholeBatchCleaning(b, map[int64]int{1: 1}, 0); err == nil {
		t.Fatal("non-positive bytesPerToken should error")
	}
}

// Property: early cleaning never uses more byte-steps than whole-batch
// cleaning of the same slotted layout (invariant 7 of DESIGN.md), provided
// the whole-batch baseline is charged the same slotted footprint.
func TestEarlyNeverWorseProperty(t *testing.T) {
	f := func(lensRaw []uint8, finRaw []uint8) bool {
		var lens []int
		for i, r := range lensRaw {
			if i >= 8 {
				break
			}
			lens = append(lens, int(r%5)+1)
		}
		if len(lens) == 0 {
			return true
		}
		items := make([]batch.Item, len(lens))
		finish := make(map[int64]int)
		for i, l := range lens {
			items[i] = batch.Item{ID: int64(i + 1), Len: l}
			f := 1
			if i < len(finRaw) {
				f = int(finRaw[i]%10) + 1
			}
			finish[int64(i+1)] = f
		}
		b, rest := batch.PackSlotted(items, 4, 10, 5)
		if len(rest) != 0 {
			return true
		}
		early, err := SimulateEarlyCleaning(b, finish, 4)
		if err != nil {
			return false
		}
		// Whole-batch baseline on the same footprint: everything resident
		// until the final step.
		wholeByteSteps := early.TotalBytes * int64(early.FinalStep)
		return early.ByteSteps <= wholeByteSteps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResizeGrowsAndShrinks(t *testing.T) {
	m := NewMemoryManager(100)
	if err := m.Alloc("batch", 40); err != nil {
		t.Fatal(err)
	}
	if err := m.Resize("batch", 30); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 70 || m.Peak() != 70 {
		t.Fatalf("after grow: used/peak = %d/%d, want 70/70", m.Used(), m.Peak())
	}
	if err := m.Resize("batch", -50); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 20 || m.Peak() != 70 {
		t.Fatalf("after shrink: used/peak = %d/%d, want 20/70", m.Used(), m.Peak())
	}
	// The shrink returned capacity a new allocation can take.
	if err := m.Alloc("next", 80); err != nil {
		t.Fatalf("alloc into freed capacity: %v", err)
	}
}

func TestResizeClampsAtZero(t *testing.T) {
	m := NewMemoryManager(0)
	if err := m.Alloc("batch", 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Resize("batch", -25); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 0 || m.Outstanding() != 1 {
		t.Fatalf("after over-shrink: used/outstanding = %d/%d, want 0/1", m.Used(), m.Outstanding())
	}
	// A zero-byte reservation still grows and frees like any other.
	if err := m.Resize("batch", 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Free("batch"); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 0 || m.Outstanding() != 0 {
		t.Fatalf("after free: used/outstanding = %d/%d", m.Used(), m.Outstanding())
	}
}

func TestResizeErrors(t *testing.T) {
	m := NewMemoryManager(50)
	if err := m.Resize("missing", 1); err == nil {
		t.Fatal("resize of unknown tag should fail")
	}
	if err := m.Alloc("a", 30); err != nil {
		t.Fatal(err)
	}
	if err := m.Resize("a", 21); err == nil {
		t.Fatal("growing past capacity should fail")
	}
	if m.Used() != 30 || m.Peak() != 30 {
		t.Fatalf("failed grow changed state: used/peak = %d/%d", m.Used(), m.Peak())
	}
	if err := m.Resize("a", 20); err != nil {
		t.Fatalf("growing to exactly capacity: %v", err)
	}
}
