package batch

import "sort"

// TurboParams configures the TurboTransformers dynamic-programming batch
// split (Fig. 1b; [14] §"batch scheduler").
type TurboParams struct {
	MaxRows int // maximum requests per sub-batch (GPU batch dimension)
	MaxLen  int // maximum request length the model supports
	// Overhead is the fixed per-sub-batch cost in token-equivalents
	// (kernel launch, weight reload). A larger overhead makes the DP
	// prefer fewer, more padded groups; 0 degenerates to one group per
	// distinct length.
	Overhead float64
}

// TurboSplit partitions the given request lengths (any order) into
// contiguous groups of the sorted sequence so that the total padded-token
// cost plus per-group overhead is minimal, subject to MaxRows per group
// (0 = no bound). A group of count requests costs Overhead + count·maxLen:
// everyone pads to the group maximum. It returns group boundaries as index
// ranges over the *sorted* order and the permutation that sorts the input.
func TurboSplit(lengths []int, p TurboParams) (groups [][2]int, order []int) {
	n := len(lengths)
	order = make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return lengths[order[a]] < lengths[order[b]] })
	sorted := make([]int, n)
	for i, idx := range order {
		sorted[i] = lengths[idx]
	}
	if n == 0 {
		return nil, order
	}
	// dp[j] = min cost of batching the first j sorted requests.
	const inf = 1e18
	dp := make([]float64, n+1)
	cut := make([]int, n+1)
	for j := 1; j <= n; j++ {
		dp[j] = inf
		lo := 0
		if p.MaxRows > 0 && j-p.MaxRows > 0 {
			lo = j - p.MaxRows
		}
		for i := lo; i < j; i++ {
			c := dp[i] + (p.Overhead + float64((j-i)*sorted[j-1]))
			if c < dp[j] {
				dp[j] = c
				cut[j] = i
			}
		}
	}
	for j := n; j > 0; j = cut[j] {
		groups = append(groups, [2]int{cut[j], j})
	}
	// Reverse into ascending order.
	for l, r := 0, len(groups)-1; l < r; l, r = l+1, r-1 {
		groups[l], groups[r] = groups[r], groups[l]
	}
	return groups, order
}

// PackTurbo builds the TurboBatching (TTB) plan for items: requests are
// sorted by length and split by TurboSplit; each group becomes its own
// sub-batch with one request per row padded to the group maximum. Items
// longer than MaxLen are returned unbatched.
func PackTurbo(items []Item, p TurboParams) ([]*Batch, []Item) {
	var ok []Item
	var rest []Item
	for _, it := range items {
		if it.Len > p.MaxLen {
			rest = append(rest, it)
		} else {
			ok = append(ok, it)
		}
	}
	lengths := make([]int, len(ok))
	for i, it := range ok {
		lengths[i] = it.Len
	}
	groups, order := TurboSplit(lengths, p)
	var plan []*Batch
	for _, g := range groups {
		b := &Batch{Scheme: Turbo}
		padTo := 0
		for k := g[0]; k < g[1]; k++ {
			it := ok[order[k]]
			if it.Len > padTo {
				padTo = it.Len
			}
			b.Rows = append(b.Rows, Row{Items: []Item{it}})
		}
		for i := range b.Rows {
			b.Rows[i].PadTo = padTo
		}
		plan = append(plan, b)
	}
	return plan, rest
}
