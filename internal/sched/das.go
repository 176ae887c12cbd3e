package sched

import "fmt"

// DAS is the paper's Online Deadline-Aware Scheduling algorithm
// (Algorithm 1). Per batch row it splits the utility-sorted pending
// sequence into three parts (Fig. 8):
//
//  1. the utility-dominant set N̄ᵁ — the first p = η·s requests by utility,
//     where s is the saturating prefix length;
//  2. the deadline-aware set N̄ᴰ — remaining requests with utility at least
//     q·v̄(N̄ᵁ), taken in earliest-deadline order; and
//  3. the rest, taken greedily in utility order if space remains.
//
// With η + q = 1 the algorithm is ηq/(ηq+1)-competitive (Theorem 5.1);
// η = q = ½ gives the ⅕ bound.
type DAS struct {
	Eta float64 // η ∈ (0, 1); fraction of the saturating prefix taken on utility
	Q   float64 // q ∈ (0, 1); utility threshold factor for the deadline-aware set
}

// NewDAS returns DAS with the paper's default η = q = ½.
func NewDAS() *DAS { return &DAS{Eta: 0.5, Q: 0.5} }

// Name implements Scheduler.
func (d *DAS) Name() string { return "DAS" }

// Validate checks the tunable parameters.
func (d *DAS) Validate() error {
	if d.Eta <= 0 || d.Eta >= 1 || d.Q <= 0 || d.Q >= 1 {
		return fmt.Errorf("sched: DAS parameters η=%g q=%g must lie in (0,1)", d.Eta, d.Q)
	}
	return nil
}

// Schedule implements Algorithm 1.
func (d *DAS) Schedule(now float64, pending []*Request, B, L int) Decision {
	if err := d.Validate(); err != nil {
		panic(err)
	}
	dec := Decision{Rows: make([][]*Request, B)}
	remaining := append([]*Request(nil), pending...)
	for k := 0; k < B; k++ {
		if len(remaining) == 0 {
			break
		}
		// Line 4–5: if everything fits the row, take it all.
		if TotalLen(remaining) <= L {
			dec.Rows[k] = remaining
			remaining = nil
			break
		}
		row, nu := d.scheduleRow(remaining, L)
		dec.Rows[k] = row
		dec.UtilityDominant = append(dec.UtilityDominant, nu...)
		remaining = subtract(remaining, row)
	}
	return dec
}

// scheduleRow fills one batch row following lines 7–15 of Algorithm 1 and
// returns the row plus its utility-dominant subset N̄ᵁ.
func (d *DAS) scheduleRow(pending []*Request, L int) (row, nu []*Request) {
	// Line 7: sort by utility, non-increasing.
	sorted := append([]*Request(nil), pending...)
	byUtilityDesc(sorted)

	// Line 8: s = length of the saturating prefix.
	s, load := 0, 0
	for _, r := range sorted {
		if load+r.Len > L {
			break
		}
		load += r.Len
		s++
	}
	if s == 0 {
		// Even the shortest request does not fit (all longer than L).
		return nil, nil
	}

	// Line 9–10: take the first p = η·s requests (at least one).
	p := int(d.Eta * float64(s))
	if p < 1 {
		p = 1
	}
	if p > s {
		p = s
	}
	nu = append(nu, sorted[:p]...)
	row = append(row, nu...)
	rowLoad := TotalLen(nu)

	// Line 11: deadline-aware set — utility at least q·v̄(N̄ᵁ).
	vbar := TotalUtility(nu) / float64(len(nu))
	threshold := d.Q * vbar
	var nd []*Request
	inNU := make(map[int64]bool, len(nu))
	for _, r := range nu {
		inNU[r.ID] = true
	}
	for _, r := range sorted[p:] {
		if r.Utility() >= threshold {
			nd = append(nd, r)
		}
	}
	// Line 12: earliest deadline first, greedily.
	byDeadlineAsc(nd)
	inND := make(map[int64]bool, len(nd))
	for _, r := range nd {
		inND[r.ID] = true
		if rowLoad+r.Len <= L {
			row = append(row, r)
			rowLoad += r.Len
		}
	}

	// Lines 13–14: if space remains, fill from the rest in utility order.
	if rowLoad < L {
		for _, r := range sorted[p:] {
			if inND[r.ID] {
				continue
			}
			if rowLoad+r.Len <= L {
				row = append(row, r)
				rowLoad += r.Len
			}
		}
	}
	return row, nu
}

// subtract removes chosen from pending, preserving order.
func subtract(pending, chosen []*Request) []*Request {
	drop := make(map[int64]bool, len(chosen))
	for _, r := range chosen {
		drop[r.ID] = true
	}
	out := pending[:0]
	for _, r := range pending {
		if !drop[r.ID] {
			out = append(out, r)
		}
	}
	return out
}
