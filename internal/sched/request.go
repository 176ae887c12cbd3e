// Package sched implements the online request-scheduling problem of §5:
// requests with arrival times, deadlines and lengths must be packed into
// per-slot batches of B rows × L tokens to maximize total utility
// Σ vₙ = Σ 1/lₙ over requests scheduled by their deadlines (Eq. 9–13).
//
// The package provides the paper's DAS algorithm (Algorithm 1, proven
// ηq/(ηq+1)-competitive), its slotted extension (Algorithm 2), and the
// three baselines the evaluation compares against: FCFS, SJF and DEF.
package sched

import (
	"fmt"
	"sort"
)

// Request is one inference request in the scheduling problem (§5.1).
type Request struct {
	ID       int64
	Arrival  float64 // aₙ, seconds
	Deadline float64 // dₙ, seconds
	Len      int     // lₙ, tokens
	// Weight scales the request's utility (SLA tiers: a premium request
	// with Weight 2 is worth two standard ones of the same length).
	// Zero means 1 — the paper's unweighted formulation. Theorem 5.1's
	// competitive bound is proven for the unweighted case; with weights
	// DAS remains a well-defined heuristic but carries no guarantee.
	Weight float64
	// Tenant identifies who submitted the request; the fairness layer
	// (package fair) isolates tenants from each other. Empty means the
	// default tenant. Schedulers themselves are tenant-blind — isolation
	// happens in the candidate pool they are handed.
	Tenant string
	// PrefixLen declares that the request's first PrefixLen tokens are a
	// shared prompt prefix (0 = none). Schedulers stay prefix-blind; the
	// serving layer shrinks Len to the uncached suffix on a prefix-cache
	// hit before the request reaches a scheduler, so packing already sees
	// the resident work. Always < Len.
	PrefixLen int
	// PrefixID names which shared prefix PrefixLen refers to (workload
	// traces use it to materialize identical token prefixes across
	// requests; 0 = none).
	PrefixID int64
}

// Utility returns vₙ = wₙ/lₙ — §5.1's vₙ = 1/lₙ generalized with the SLA
// weight. Shorter requests are worth more per token slot, which is what
// lets DAS trade capacity for count.
func (r *Request) Utility() float64 {
	w := r.Weight
	if w <= 0 {
		w = 1
	}
	return w / float64(r.Len)
}

// Validate reports structural problems with the request.
func (r *Request) Validate() error {
	if r.Len <= 0 {
		return fmt.Errorf("sched: request %d has length %d", r.ID, r.Len)
	}
	if r.Deadline < r.Arrival {
		return fmt.Errorf("sched: request %d deadline %g before arrival %g", r.ID, r.Deadline, r.Arrival)
	}
	if r.Weight < 0 {
		return fmt.Errorf("sched: request %d has negative weight %g", r.ID, r.Weight)
	}
	if r.PrefixLen < 0 || r.PrefixLen >= r.Len {
		return fmt.Errorf("sched: request %d declares a %d-token prefix of %d tokens (suffix must be non-empty)", r.ID, r.PrefixLen, r.Len)
	}
	return nil
}

// TotalUtility sums the utility of the given requests.
func TotalUtility(reqs []*Request) float64 {
	var u float64
	for _, r := range reqs {
		u += r.Utility()
	}
	return u
}

// TotalLen sums the lengths of the given requests.
func TotalLen(reqs []*Request) int {
	n := 0
	for _, r := range reqs {
		n += r.Len
	}
	return n
}

// Expire partitions pending at time now into requests still schedulable
// (arrived, deadline not passed), requests that have expired, and requests
// that have not arrived yet (future), which the caller holds back.
func Expire(pending []*Request, now float64) (alive, expired, future []*Request) {
	for _, r := range pending {
		switch {
		case r.Arrival > now:
			future = append(future, r)
		case r.Deadline < now:
			expired = append(expired, r)
		default:
			alive = append(alive, r)
		}
	}
	return alive, expired, future
}

// Decision is a scheduler's output for one time slot: a per-row assignment
// of requests in concatenation order, plus the metadata Algorithm 2 needs.
type Decision struct {
	Rows [][]*Request
	// UtilityDominant is the union of the per-row utility-dominant sets
	// N̄ᵁ (Algorithm 1 line 9) — Algorithm 2 derives the slot size from it.
	UtilityDominant []*Request
	// SlotSize is the slot length chosen by Slotted DAS; 0 means pure
	// ConcatBatching (whole-row slots).
	SlotSize int
}

// Chosen returns every scheduled request across rows.
func (d Decision) Chosen() []*Request {
	var out []*Request
	for _, row := range d.Rows {
		out = append(out, row...)
	}
	return out
}

// Utility returns the total utility of the decision.
func (d Decision) Utility() float64 { return TotalUtility(d.Chosen()) }

// Scheduler selects requests for the batch starting at time now.
// pending must contain only schedulable requests (see Expire); B is the
// number of batch rows and L the per-row token capacity.
type Scheduler interface {
	Name() string
	Schedule(now float64, pending []*Request, B, L int) Decision
}

// fillRowsInOrder greedily concatenates requests into B rows of capacity L
// following the given priority order: each request goes to the first row
// with room (first fit). It returns the per-row assignment.
func fillRowsInOrder(order []*Request, B, L int) [][]*Request {
	rows := make([][]*Request, B)
	used := make([]int, B)
	for _, r := range order {
		if r.Len > L {
			continue
		}
		for k := 0; k < B; k++ {
			if used[k]+r.Len <= L {
				rows[k] = append(rows[k], r)
				used[k] += r.Len
				break
			}
		}
	}
	return rows
}

// byUtilityDesc sorts by non-increasing utility (shortest first in the
// unweighted case), breaking ties by earlier deadline then ID for
// determinism.
func byUtilityDesc(reqs []*Request) {
	sort.SliceStable(reqs, func(a, b int) bool {
		ra, rb := reqs[a], reqs[b]
		ua, ub := ra.Utility(), rb.Utility()
		if ua != ub {
			return ua > ub
		}
		if ra.Deadline != rb.Deadline {
			return ra.Deadline < rb.Deadline
		}
		return ra.ID < rb.ID
	})
}

// byLenAsc sorts shortest job first (SJF's literal meaning, independent of
// weights), tie-breaking by deadline then ID.
func byLenAsc(reqs []*Request) {
	sort.SliceStable(reqs, func(a, b int) bool {
		ra, rb := reqs[a], reqs[b]
		if ra.Len != rb.Len {
			return ra.Len < rb.Len
		}
		if ra.Deadline != rb.Deadline {
			return ra.Deadline < rb.Deadline
		}
		return ra.ID < rb.ID
	})
}

// byDeadlineAsc sorts by earliest deadline, tie-breaking by ID.
func byDeadlineAsc(reqs []*Request) {
	sort.SliceStable(reqs, func(a, b int) bool {
		ra, rb := reqs[a], reqs[b]
		if ra.Deadline != rb.Deadline {
			return ra.Deadline < rb.Deadline
		}
		return ra.ID < rb.ID
	})
}

// byArrivalAsc sorts by earliest arrival, tie-breaking by ID.
func byArrivalAsc(reqs []*Request) {
	sort.SliceStable(reqs, func(a, b int) bool {
		ra, rb := reqs[a], reqs[b]
		if ra.Arrival != rb.Arrival {
			return ra.Arrival < rb.Arrival
		}
		return ra.ID < rb.ID
	})
}
