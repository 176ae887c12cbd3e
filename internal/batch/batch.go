// Package batch implements the three request-batching schemes the paper
// compares (Fig. 1) plus the slotted refinement (§4.2):
//
//   - Naive (TNB): one request per row, rows padded to the longest request
//     in the batch — PyTorch's default collation.
//   - Turbo (TTB): requests sorted by length and split into contiguous
//     groups by dynamic programming so that padding cost is minimal — the
//     scheme of TurboTransformers [14].
//   - Concat (TCB pure): multiple requests concatenated per row, rows
//     padded to the fixed row capacity L.
//   - SlottedConcat (TCB slotted): rows divided into fixed-size slots;
//     requests are concatenated within slots.
//
// The package is purely about *layout*: deciding which tokens land where
// and accounting for the padding and attention-score redundancy each scheme
// implies. Executing a layout on the model is the engine's job; charging it
// simulated time is the cost package's job.
package batch

import "fmt"

// Scheme identifies a batching scheme.
type Scheme int

const (
	Naive Scheme = iota
	Turbo
	Concat
	SlottedConcat
)

func (s Scheme) String() string {
	switch s {
	case Naive:
		return "naive"
	case Turbo:
		return "turbo"
	case Concat:
		return "concat"
	case SlottedConcat:
		return "slotted-concat"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Item is one request as the batcher sees it. Len counts the tokens the
// item occupies in its row — for a prefix-cache hit that is the uncached
// suffix only, so packing, padding accounting and memory reservations all
// see the work the engine will actually do.
type Item struct {
	ID  int64
	Len int // resident length in tokens (suffix only on a prefix-cache hit)
	// PrefixLen is the declared shared-prefix boundary: the item's first
	// PrefixLen tokens encode as their own attention segment (separate PE
	// restart + isolation) while the request decodes as one unit. 0 means
	// no declared prefix — the layout is bitwise identical to one that
	// predates prefix sharing.
	PrefixLen int
	// CachedLen is the number of leading tokens served from the prefix
	// cache instead of the row: 0 (cold; the full request is resident, Len
	// includes the prefix) or PrefixLen (hit; only the suffix is resident
	// and Len excludes the prefix).
	CachedLen int
}

// Row is one assembled batch row: items concatenated left to right, then
// padded to PadTo tokens.
type Row struct {
	Items []Item
	PadTo int
}

// Used returns the number of non-padding tokens in the row.
func (r Row) Used() int {
	n := 0
	for _, it := range r.Items {
		n += it.Len
	}
	return n
}

// Batch is the unit of work submitted to the inference engine.
type Batch struct {
	Scheme   Scheme
	Rows     []Row
	SlotSize int // slot length for SlottedConcat; ignored otherwise
}

// Items returns every item in the batch in row order.
func (b *Batch) Items() []Item {
	var out []Item
	for _, r := range b.Rows {
		out = append(out, r.Items...)
	}
	return out
}

// NumItems returns the number of requests in the batch.
func (b *Batch) NumItems() int {
	n := 0
	for _, r := range b.Rows {
		n += len(r.Items)
	}
	return n
}

// TotalTokens returns the number of token positions the engine processes,
// padding included. Every one of these costs full FFN/projection compute.
func (b *Batch) TotalTokens() int {
	n := 0
	for _, r := range b.Rows {
		n += r.PadTo
	}
	return n
}

// UsedTokens returns the number of real (non-padding) tokens.
func (b *Batch) UsedTokens() int {
	n := 0
	for _, r := range b.Rows {
		n += r.Used()
	}
	return n
}

// PaddedTokens returns TotalTokens − UsedTokens: the computational
// redundancy the paper's Fig. 1 is about.
func (b *Batch) PaddedTokens() int { return b.TotalTokens() - b.UsedTokens() }

// Utilization returns UsedTokens / TotalTokens in [0, 1]; 1 for an empty
// batch (no waste).
func (b *Batch) Utilization() float64 {
	total := b.TotalTokens()
	if total == 0 {
		return 1
	}
	return float64(b.UsedTokens()) / float64(total)
}

// ScoreArea returns the number of attention-score entries the scheme
// computes for this batch — the quantity slotting reduces (§4.2, Fig. 7).
// Dense schemes (Naive, Turbo, pure Concat) compute PadTo² per row;
// SlottedConcat computes SlotSize² per occupied slot.
func (b *Batch) ScoreArea() int {
	area := 0
	switch b.Scheme {
	case SlottedConcat:
		z := b.SlotSize
		for _, r := range b.Rows {
			area += b.occupiedSlots(r) * z * z
		}
	default:
		for _, r := range b.Rows {
			area += r.PadTo * r.PadTo
		}
	}
	return area
}

// SlottedTokens returns the token positions processed under the slotted
// layout: occupied slots × slot size. Unoccupied trailing slots are freed
// tensors and cost nothing.
func (b *Batch) SlottedTokens() int {
	if b.Scheme != SlottedConcat {
		return b.TotalTokens()
	}
	n := 0
	for _, r := range b.Rows {
		n += b.occupiedSlots(r) * b.SlotSize
	}
	return n
}

// SlotGroups reconstructs which items share each occupied slot of row r,
// assuming items are ordered slot-sequentially (as PackSlotted guarantees:
// a new slot starts whenever the next item would cross a boundary). For
// non-slotted schemes it returns all items as one group.
func (b *Batch) SlotGroups(r Row) [][]Item {
	if b.Scheme != SlottedConcat || b.SlotSize <= 0 {
		if len(r.Items) == 0 {
			return nil
		}
		return [][]Item{r.Items}
	}
	var groups [][]Item
	used := 0
	for _, it := range r.Items {
		if len(groups) == 0 || used+it.Len > b.SlotSize {
			groups = append(groups, nil)
			used = 0
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], it)
		used += it.Len
	}
	return groups
}

// occupiedSlots counts the SlotSize-sized slots of row r holding at least
// one item.
func (b *Batch) occupiedSlots(r Row) int {
	if b.SlotSize <= 0 {
		return 0
	}
	return len(b.SlotGroups(r))
}

// Validate checks structural invariants: positive item lengths, rows not
// overflowing PadTo, no duplicate item IDs, and (for SlottedConcat) items
// not exceeding the slot size.
func (b *Batch) Validate() error {
	seen := make(map[int64]bool)
	for ri, r := range b.Rows {
		if r.Used() > r.PadTo {
			return fmt.Errorf("batch: row %d holds %d tokens, capacity %d", ri, r.Used(), r.PadTo)
		}
		for _, it := range r.Items {
			if it.Len <= 0 {
				return fmt.Errorf("batch: item %d has length %d", it.ID, it.Len)
			}
			if it.PrefixLen < 0 || it.CachedLen < 0 {
				return fmt.Errorf("batch: item %d has negative prefix lengths (%d, %d)", it.ID, it.PrefixLen, it.CachedLen)
			}
			if it.CachedLen != 0 && it.CachedLen != it.PrefixLen {
				return fmt.Errorf("batch: item %d caches %d of a %d-token prefix (must be all or none)", it.ID, it.CachedLen, it.PrefixLen)
			}
			if it.CachedLen == 0 && it.PrefixLen >= it.Len {
				return fmt.Errorf("batch: item %d declares a %d-token prefix of a %d-token request (suffix must be non-empty)", it.ID, it.PrefixLen, it.Len)
			}
			if seen[it.ID] {
				return fmt.Errorf("batch: item %d appears twice", it.ID)
			}
			seen[it.ID] = true
			if b.Scheme == SlottedConcat && it.Len > b.SlotSize {
				return fmt.Errorf("batch: item %d length %d exceeds slot size %d", it.ID, it.Len, b.SlotSize)
			}
		}
		if b.Scheme == SlottedConcat {
			if max := r.PadTo / b.SlotSize; b.occupiedSlots(r) > max {
				return fmt.Errorf("batch: row %d needs %d slots, capacity %d", ri, b.occupiedSlots(r), max)
			}
		}
	}
	return nil
}
