package batch

import "sort"

// PackConcat builds a pure ConcatBatching (TCB) batch: items are placed in
// the given priority order into maxRows rows of capacity rowLen, each row
// filled by concatenation (Fig. 1c). An item opens a new row when it does
// not fit the current one; once all rows are open, remaining space is
// filled first-fit across rows so that a short request can still slip into
// an earlier row's tail. Items longer than rowLen are rejected.
//
// It returns the batch and the items that did not fit, preserving order.
func PackConcat(items []Item, maxRows, rowLen int) (*Batch, []Item) {
	b := &Batch{Scheme: Concat}
	var rest []Item
	used := make([]int, 0, maxRows)
	for _, it := range items {
		if it.Len > rowLen {
			rest = append(rest, it)
			continue
		}
		placed := false
		for ri := range b.Rows {
			if used[ri]+it.Len <= rowLen {
				b.Rows[ri].Items = append(b.Rows[ri].Items, it)
				used[ri] += it.Len
				placed = true
				break
			}
		}
		if !placed && len(b.Rows) < maxRows {
			b.Rows = append(b.Rows, Row{Items: []Item{it}, PadTo: rowLen})
			used = append(used, it.Len)
			placed = true
		}
		if !placed {
			rest = append(rest, it)
		}
	}
	return b, rest
}

// PackConcatFFD is PackConcat with items pre-sorted by decreasing length
// (first-fit decreasing): the classic bin-packing heuristic. This is the
// packing-order ablation's alternative; the paper's DAS feeds utility order
// (shortest first) instead.
func PackConcatFFD(items []Item, maxRows, rowLen int) (*Batch, []Item) {
	sorted := append([]Item(nil), items...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Len > sorted[b].Len })
	return PackConcat(sorted, maxRows, rowLen)
}

// PackSlotted builds a slotted ConcatBatching batch: every row of capacity
// rowLen is divided into ⌊rowLen/slotSize⌋ slots of slotSize tokens, and
// items are concatenated within slots (never across a slot boundary,
// Fig. 4 right). Items longer than slotSize are rejected — the slot-size
// constraint §4.2.1 discusses. Placement is first-fit over all open slots
// in row-major order.
//
// It returns the batch and the unplaced items, preserving order.
func PackSlotted(items []Item, maxRows, rowLen, slotSize int) (*Batch, []Item) {
	if slotSize <= 0 || slotSize > rowLen {
		slotSize = rowLen
	}
	slotsPerRow := rowLen / slotSize
	b := &Batch{Scheme: SlottedConcat, SlotSize: slotSize}
	var rest []Item
	// slots[r][s] holds the items of slot s in row r; free tracks capacity.
	var slots [][][]Item
	var free [][]int
	openRow := func() bool {
		if len(slots) >= maxRows {
			return false
		}
		slots = append(slots, make([][]Item, slotsPerRow))
		row := make([]int, slotsPerRow)
		for i := range row {
			row[i] = slotSize
		}
		free = append(free, row)
		return true
	}
	place := func(it Item) bool {
		for ri := range free {
			for si := range free[ri] {
				if free[ri][si] >= it.Len {
					free[ri][si] -= it.Len
					slots[ri][si] = append(slots[ri][si], it)
					return true
				}
			}
		}
		return false
	}
	for _, it := range items {
		if it.Len > slotSize {
			rest = append(rest, it)
			continue
		}
		if place(it) {
			continue
		}
		if openRow() && place(it) {
			continue
		}
		rest = append(rest, it)
	}
	// Flatten rows in slot order so the row's concatenation order matches
	// the physical slot layout (Batch.occupiedSlots relies on this).
	for _, rowSlots := range slots {
		row := Row{PadTo: rowLen}
		for _, s := range rowSlots {
			row.Items = append(row.Items, s...)
		}
		b.Rows = append(b.Rows, row)
	}
	return b, rest
}
