package sched

import (
	"fmt"
)

// Oracles: the exact offline optimum and the checks the competitive-ratio
// and packing tests (DESIGN.md §5, invariants 3–4) hold DAS and the
// baselines to. No scheduling path calls them; DESIGN.md §18 keeps them here
// by name.

// BruteForceOPT solves the offline scheduling MILP (Eq. 9–13) exactly by
// exhaustive search, for the small instances the competitive-ratio tests
// use. slotTimes lists the batch start times; each slot offers B rows of
// capacity L. A request may go to any (t, k) with aₙ ≤ t ≤ dₙ, or be
// dropped. Returns the maximum achievable total utility.
//
// The search is exponential in len(requests); keep instances tiny (≤ 10
// requests, ≤ 4 slots).
func BruteForceOPT(requests []*Request, slotTimes []float64, B, L int) float64 {
	nCells := len(slotTimes) * B
	capacity := make([]int, nCells)
	for i := range capacity {
		capacity[i] = L
	}
	var rec func(i int) float64
	rec = func(i int) float64 {
		if i == len(requests) {
			return 0
		}
		r := requests[i]
		best := rec(i + 1) // drop r
		for t, st := range slotTimes {
			if st < r.Arrival || st > r.Deadline {
				continue
			}
			for k := 0; k < B; k++ {
				cell := t*B + k
				if capacity[cell] < r.Len {
					continue
				}
				capacity[cell] -= r.Len
				if v := r.Utility() + rec(i+1); v > best {
					best = v
				}
				capacity[cell] += r.Len
			}
		}
		return best
	}
	return rec(0)
}

// Validate checks Eq. 10–12 for the decision: each request at most once,
// row loads within L, every request schedulable at time now.
func (d Decision) Validate(now float64, L int) error {
	seen := make(map[int64]bool)
	for k, row := range d.Rows {
		if TotalLen(row) > L {
			return fmt.Errorf("sched: row %d load %d exceeds L=%d", k, TotalLen(row), L)
		}
		for _, r := range row {
			if seen[r.ID] {
				return fmt.Errorf("sched: request %d scheduled twice", r.ID)
			}
			seen[r.ID] = true
			if now < r.Arrival || now > r.Deadline {
				return fmt.Errorf("sched: request %d scheduled at %g outside [%g, %g]",
					r.ID, now, r.Arrival, r.Deadline)
			}
		}
	}
	return nil
}

// CompetitiveRatio returns ηq/(ηq+1), the bound of Theorem 5.1.
func (d *DAS) CompetitiveRatio() float64 {
	return d.Eta * d.Q / (d.Eta*d.Q + 1)
}
