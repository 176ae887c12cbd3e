package batch

import (
	"testing"
	"testing/quick"

	"tcb/internal/rng"
)

func items(lens ...int) []Item {
	out := make([]Item, len(lens))
	for i, l := range lens {
		out[i] = Item{ID: int64(i + 1), Len: l}
	}
	return out
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		Naive: "naive", Turbo: "turbo", Concat: "concat", SlottedConcat: "slotted-concat",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if Scheme(42).String() == "" {
		t.Fatal("unknown scheme should render")
	}
}

func TestRowAccounting(t *testing.T) {
	r := Row{Items: items(3, 5), PadTo: 10}
	if r.Used() != 8 || r.PadTo-r.Used() != 2 {
		t.Fatalf("used/padding = %d/%d", r.Used(), r.PadTo-r.Used())
	}
}

func TestBatchAccounting(t *testing.T) {
	b := &Batch{Scheme: Concat, Rows: []Row{
		{Items: items(3, 5), PadTo: 10},
		{Items: []Item{{ID: 9, Len: 10}}, PadTo: 10},
	}}
	if b.NumItems() != 3 || b.TotalTokens() != 20 || b.UsedTokens() != 18 || b.PaddedTokens() != 2 {
		t.Fatalf("accounting wrong: %d %d %d %d",
			b.NumItems(), b.TotalTokens(), b.UsedTokens(), b.PaddedTokens())
	}
	if u := b.Utilization(); u != 0.9 {
		t.Fatalf("utilization = %v, want 0.9", u)
	}
	if got := len(b.Items()); got != 3 {
		t.Fatalf("Items() = %d entries", got)
	}
}

func TestEmptyBatchUtilization(t *testing.T) {
	b := &Batch{}
	if b.Utilization() != 1 {
		t.Fatal("empty batch utilization should be 1")
	}
}

func TestScoreAreaDense(t *testing.T) {
	b := &Batch{Scheme: Naive, Rows: []Row{{Items: items(3), PadTo: 5}, {Items: items(5), PadTo: 5}}}
	if a := b.ScoreArea(); a != 50 {
		t.Fatalf("ScoreArea = %d, want 50", a)
	}
}

func TestScoreAreaSlotted(t *testing.T) {
	// Row with items 4,3 in slot size 4 → items land in separate slots.
	b, rest := PackSlotted(items(4, 3), 1, 8, 4)
	if len(rest) != 0 {
		t.Fatalf("rest = %v", rest)
	}
	if a := b.ScoreArea(); a != 32 { // 2 slots × 16
		t.Fatalf("ScoreArea = %d, want 32", a)
	}
	if tok := b.SlottedTokens(); tok != 8 {
		t.Fatalf("SlottedTokens = %d, want 8", tok)
	}
}

func TestValidateCatchesOverflowAndDuplicates(t *testing.T) {
	over := &Batch{Scheme: Concat, Rows: []Row{{Items: items(6, 5), PadTo: 10}}}
	if over.Validate() == nil {
		t.Fatal("overflowing row should fail validation")
	}
	dup := &Batch{Scheme: Concat, Rows: []Row{
		{Items: []Item{{ID: 1, Len: 2}}, PadTo: 5},
		{Items: []Item{{ID: 1, Len: 2}}, PadTo: 5},
	}}
	if dup.Validate() == nil {
		t.Fatal("duplicate ID should fail validation")
	}
	zero := &Batch{Scheme: Concat, Rows: []Row{{Items: []Item{{ID: 1, Len: 0}}, PadTo: 5}}}
	if zero.Validate() == nil {
		t.Fatal("zero-length item should fail validation")
	}
}

func TestPackNaiveBasics(t *testing.T) {
	b, rest := PackNaive(items(5, 3, 9, 2), 3, 100)
	if len(b.Rows) != 3 || len(rest) != 1 || rest[0].Len != 2 {
		t.Fatalf("rows=%d rest=%v", len(b.Rows), rest)
	}
	for _, r := range b.Rows {
		if r.PadTo != 9 {
			t.Fatalf("rows must pad to longest (9), got %d", r.PadTo)
		}
		if len(r.Items) != 1 {
			t.Fatal("naive rows hold exactly one item")
		}
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPackNaiveSkipsOversized(t *testing.T) {
	b, rest := PackNaive(items(5, 200, 3), 10, 100)
	if len(b.Rows) != 2 || len(rest) != 1 || rest[0].Len != 200 {
		t.Fatalf("rows=%d rest=%v", len(b.Rows), rest)
	}
}

func TestPackNaiveEmpty(t *testing.T) {
	b, rest := PackNaive(nil, 4, 100)
	if len(b.Rows) != 0 || len(rest) != 0 {
		t.Fatal("empty input should give empty batch")
	}
}

func TestTurboSplitGroupsSimilarLengths(t *testing.T) {
	// Two obvious clusters: {3,4,5} and {50,51}.
	lengths := []int{50, 3, 51, 4, 5}
	groups, order := TurboSplit(lengths, TurboParams{MaxRows: 64, MaxLen: 100, Overhead: 10})
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want 2 clusters", groups)
	}
	if groups[0][1]-groups[0][0] != 3 || groups[1][1]-groups[1][0] != 2 {
		t.Fatalf("group sizes wrong: %v", groups)
	}
	// order must sort the lengths.
	prev := -1
	for _, idx := range order {
		if lengths[idx] < prev {
			t.Fatal("order does not sort lengths")
		}
		prev = lengths[idx]
	}
}

func TestTurboSplitRespectsMaxRows(t *testing.T) {
	lengths := []int{5, 5, 5, 5, 5}
	groups, _ := TurboSplit(lengths, TurboParams{MaxRows: 2, MaxLen: 100, Overhead: 0})
	for _, g := range groups {
		if g[1]-g[0] > 2 {
			t.Fatalf("group %v exceeds MaxRows", g)
		}
	}
}

func TestTurboSplitEmpty(t *testing.T) {
	groups, order := TurboSplit(nil, TurboParams{MaxRows: 4, MaxLen: 10})
	if groups != nil || len(order) != 0 {
		t.Fatal("empty input should give no groups")
	}
}

// DP optimality: compare against brute-force enumeration of all contiguous
// partitions for small n.
func TestTurboSplitOptimal(t *testing.T) {
	p := TurboParams{MaxRows: 3, MaxLen: 100, Overhead: 7}
	bruteBest := func(sorted []int) float64 {
		n := len(sorted)
		best := 1e18
		// Enumerate partitions via bitmask of cut positions.
		for mask := 0; mask < 1<<(n-1); mask++ {
			cost := 0.0
			start := 0
			feasible := true
			for i := 0; i < n; i++ {
				end := i == n-1 || mask&(1<<i) != 0
				if end {
					if i-start+1 > p.MaxRows {
						feasible = false
						break
					}
					cost += p.Overhead + float64((i-start+1)*sorted[i])
					start = i + 1
				}
			}
			if feasible && cost < best {
				best = cost
			}
		}
		return best
	}
	src := rng.New(42)
	for trial := 0; trial < 200; trial++ {
		n := src.IntRange(1, 8)
		lengths := make([]int, n)
		for i := range lengths {
			lengths[i] = src.IntRange(1, 30)
		}
		plan, rest := PackTurbo(items(lengths...), p)
		if len(rest) != 0 {
			t.Fatalf("unexpected rest: %v", rest)
		}
		got := TurboPlanCost(plan, p)
		sorted := make([]int, n)
		for i := range sorted {
			sorted[i] = lengths[i]
		}
		// brute force needs sorted order
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if sorted[j] < sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		want := bruteBest(sorted)
		if got != want {
			t.Fatalf("trial %d: DP cost %v != brute force %v (lengths %v)", trial, got, want, lengths)
		}
	}
}

func TestPackTurboRejectsOversized(t *testing.T) {
	plan, rest := PackTurbo(items(5, 300), TurboParams{MaxRows: 4, MaxLen: 100, Overhead: 1})
	if len(rest) != 1 || rest[0].Len != 300 {
		t.Fatalf("rest = %v", rest)
	}
	total := 0
	for _, b := range plan {
		total += b.NumItems()
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if total != 1 {
		t.Fatalf("plan holds %d items, want 1", total)
	}
}

func TestPackConcatFillsRows(t *testing.T) {
	b, rest := PackConcat(items(4, 4, 4, 4, 4), 2, 10)
	if len(rest) != 1 {
		t.Fatalf("rest = %v, want one leftover", rest)
	}
	if len(b.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(b.Rows))
	}
	if b.UsedTokens() != 16 {
		t.Fatalf("used = %d, want 16", b.UsedTokens())
	}
	for _, r := range b.Rows {
		if r.PadTo != 10 {
			t.Fatalf("concat rows pad to capacity, got %d", r.PadTo)
		}
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPackConcatFirstFitBackfills(t *testing.T) {
	// 7 opens row1, 6 opens row2, 3 backfills row1 (7+3=10).
	b, rest := PackConcat(items(7, 6, 3), 2, 10)
	if len(rest) != 0 {
		t.Fatalf("rest = %v", rest)
	}
	if len(b.Rows[0].Items) != 2 || b.Rows[0].Used() != 10 {
		t.Fatalf("row0 = %+v, want 7+3", b.Rows[0])
	}
}

func TestPackConcatRejectsOverlong(t *testing.T) {
	b, rest := PackConcat(items(11, 5), 2, 10)
	if len(rest) != 1 || rest[0].Len != 11 {
		t.Fatalf("rest = %v", rest)
	}
	if b.NumItems() != 1 {
		t.Fatalf("batch items = %d", b.NumItems())
	}
}

func TestPackConcatFFDBeatsNaiveOrderSometimes(t *testing.T) {
	// Classic bin-packing adversary: FFD packs {6,5,4,3,2} into fewer rows.
	its := items(2, 6, 3, 5, 4)
	ffd, restFFD := PackConcatFFD(its, 2, 10)
	if len(restFFD) != 0 {
		t.Fatalf("FFD rest = %v", restFFD)
	}
	if ffd.UsedTokens() != 20 {
		t.Fatalf("FFD should pack all 20 tokens, got %d", ffd.UsedTokens())
	}
}

func TestPackSlottedBoundaries(t *testing.T) {
	// slotSize 5, rowLen 10 → 2 slots per row. Items 3,3 share slot 1;
	// 4 goes to slot 2; 5 opens row 2.
	b, rest := PackSlotted(items(3, 3, 4, 5), 2, 10, 5)
	if len(rest) != 0 {
		t.Fatalf("rest = %v", rest)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(b.Rows))
	}
	if got := b.occupiedSlots(b.Rows[0]); got != 2 {
		t.Fatalf("row0 slots = %d, want 2", got)
	}
}

func TestPackSlottedRejectsOversizedForSlot(t *testing.T) {
	b, rest := PackSlotted(items(6, 3), 4, 10, 5)
	if len(rest) != 1 || rest[0].Len != 6 {
		t.Fatalf("rest = %v", rest)
	}
	if b.NumItems() != 1 {
		t.Fatalf("items = %d", b.NumItems())
	}
}

func TestPackSlottedDegenerateSlotSize(t *testing.T) {
	// slotSize <= 0 or > rowLen degrades to whole-row slots (pure concat).
	for _, z := range []int{0, -3, 50} {
		b, rest := PackSlotted(items(4, 4), 1, 10, z)
		if len(rest) != 0 || b.SlotSize != 10 {
			t.Fatalf("z=%d: slotSize=%d rest=%v", z, b.SlotSize, rest)
		}
	}
}

// Property: for any items and parameters, every packer produces a valid
// batch, conserves items (batched + rest == input), and never exceeds
// capacities.
func TestPackersConserveItems(t *testing.T) {
	f := func(raw []uint8, rowsRaw, lenRaw, slotRaw uint8) bool {
		maxRows := int(rowsRaw%8) + 1
		rowLen := int(lenRaw%50) + 10
		slotSize := int(slotRaw%20) + 1
		var its []Item
		for i, r := range raw {
			if i >= 40 {
				break
			}
			its = append(its, Item{ID: int64(i + 1), Len: int(r%60) + 1})
		}
		check := func(batched []*Batch, rest []Item) bool {
			count := len(rest)
			seen := make(map[int64]bool)
			for _, b := range batched {
				if b.Validate() != nil {
					return false
				}
				for _, it := range b.Items() {
					if seen[it.ID] {
						return false
					}
					seen[it.ID] = true
					count++
				}
			}
			for _, it := range rest {
				if seen[it.ID] {
					return false
				}
			}
			return count == len(its)
		}
		nb, nrest := PackNaive(its, maxRows, rowLen)
		if !check([]*Batch{nb}, nrest) {
			return false
		}
		plan, trest := PackTurbo(its, TurboParams{MaxRows: maxRows, MaxLen: rowLen, Overhead: 5})
		if !check(plan, trest) {
			return false
		}
		cb, crest := PackConcat(its, maxRows, rowLen)
		if !check([]*Batch{cb}, crest) {
			return false
		}
		sb, srest := PackSlotted(its, maxRows, rowLen, slotSize)
		return check([]*Batch{sb}, srest)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: concat packing wastes no more tokens than naive packing for the
// same admitted set would at equal capacity — utilization of a full concat
// batch is at least the fraction any single row achieves.
func TestConcatUtilizationBound(t *testing.T) {
	f := func(raw []uint8) bool {
		var its []Item
		for i, r := range raw {
			if i >= 30 {
				break
			}
			its = append(its, Item{ID: int64(i + 1), Len: int(r%20) + 1})
		}
		if len(its) == 0 {
			return true
		}
		b, _ := PackConcat(its, 4, 40)
		if len(b.Rows) == 0 {
			return true
		}
		// Each row except possibly the last-opened ones is at least half
		// full is NOT guaranteed by first-fit in general; but total used
		// must be > 0 and utilization within (0, 1].
		u := b.Utilization()
		return u > 0 && u <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTurboSplitUnboundedRows(t *testing.T) {
	// MaxRows 0 = unbounded: a fixed cost far above any padding saved
	// merges everything into one group.
	groups, _ := TurboSplit([]int{3, 9, 4, 7}, TurboParams{MaxLen: 10, Overhead: 100})
	if len(groups) != 1 {
		t.Fatalf("expected one merged group, got %v", groups)
	}
}

// With no per-group overhead, splitting never costs more than merging, so
// the DP degenerates to one group per distinct length.
func TestTurboSplitZeroOverheadGroupsByLength(t *testing.T) {
	lengths := []int{4, 2, 4, 9, 2, 2}
	groups, order := TurboSplit(lengths, TurboParams{MaxLen: 10})
	if len(groups) != 3 {
		t.Fatalf("groups = %v, want one per distinct length (3)", groups)
	}
	for _, g := range groups {
		for k := g[0]; k < g[1]; k++ {
			if lengths[order[k]] != lengths[order[g[0]]] {
				t.Fatalf("group %v mixes lengths", g)
			}
		}
	}
}

// TurboPlanCost returns the DP objective value of a plan: padded tokens per
// group plus overhead per group. Exposed for the optimality tests.
func TurboPlanCost(plan []*Batch, p TurboParams) float64 {
	var cost float64
	for _, b := range plan {
		cost += p.Overhead + float64(b.TotalTokens())
	}
	return cost
}
