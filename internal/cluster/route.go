package cluster

import (
	"fmt"
	"slices"
	"strings"
)

// Policy selects how the router orders replicas for a submission. Whatever
// the policy, routing is tiered by health first: healthy replicas are
// preferred, then degraded ones, and ejected-but-alive replicas are the
// last resort (so an all-ejected cluster still degrades gracefully to the
// replicas' own breaker-open shedding instead of refusing outright). The
// policy orders replicas within each tier.
type Policy int

const (
	// RoundRobin rotates submissions across the preferred tier.
	RoundRobin Policy = iota
	// LeastLoaded picks the replica with the smallest outstanding
	// queued-cost (tokens accepted but not yet answered).
	LeastLoaded
	// LengthAffinity maps request length to a replica, so each replica sees
	// a narrow length band and its batches concatenate with less padding
	// spread (short requests to low indices, long to high).
	LengthAffinity
)

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case LengthAffinity:
		return "length-affinity"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy parses a -route flag value.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "rr", "round-robin", "roundrobin":
		return RoundRobin, nil
	case "least", "least-loaded", "leastloaded":
		return LeastLoaded, nil
	case "length", "affinity", "length-affinity":
		return LengthAffinity, nil
	default:
		return 0, fmt.Errorf("cluster: unknown routing policy %q (want rr|least|length)", s)
	}
}

// candidate pairs a replica with the server generation routing saw, so a
// concurrent respawn cannot swap the server out from under a submission's
// cost accounting.
type candidate struct {
	r *replica
	h *handle
}

// order returns the replicas a submission of n tokens should try, in order:
// tiered by health state, policy-ordered within each tier. Respawning
// replicas are excluded — their old server is draining and would only burn
// a failover attempt.
func (c *Cluster) order(n int) []candidate {
	c.mu.Lock()
	defer c.mu.Unlock()
	var tiers [3][]candidate
	for _, r := range c.replicas {
		if r.respawning {
			continue
		}
		tiers[r.state] = append(tiers[r.state], candidate{r, r.h})
	}
	rr := int(c.rr.Add(1) - 1)
	out := make([]candidate, 0, len(c.replicas))
	for _, tier := range tiers {
		Order(c.cfg.Policy, tier, n, c.cfg.MaxLen, rr, candidateLoad)
		out = append(out, tier...)
	}
	return out
}

// candidateLoad is a candidate's outstanding queued-cost, LeastLoaded's key.
func candidateLoad(c candidate) int64 { return c.h.cost.Load() }

// Order arranges members — one routing tier, in member-index order — in
// place under policy p for a request of n tokens, most preferred first. rr is
// the caller's round-robin cursor and load a member's outstanding work. It is
// the one copy of the routing policies: the live router orders each health
// tier with it, and the simulator (sim.RunCluster) its live replicas.
func Order[M any](p Policy, members []M, n, maxLen, rr int, load func(M) int64) {
	k := len(members)
	if k < 2 {
		return
	}
	switch p {
	case LeastLoaded:
		// Stable insertion sort over loads read once each: a tier is a
		// handful of members, and a load that moved mid-sort must not
		// reorder it twice.
		var buf [8]int64
		loads := buf[:0]
		for _, m := range members {
			loads = append(loads, load(m))
		}
		for i := 1; i < k; i++ {
			for j := i; j > 0 && loads[j] < loads[j-1]; j-- {
				loads[j], loads[j-1] = loads[j-1], loads[j]
				members[j], members[j-1] = members[j-1], members[j]
			}
		}
	case LengthAffinity:
		// Bucket by length: member i owns lengths in (i·maxLen/k,
		// (i+1)·maxLen/k]; fall outward from the owning bucket, nearer and
		// then lower members first, so failover stays close to the band.
		pref := min(n*k/(maxLen+1), k-1)
		src := slices.Clone(members)
		members[0] = src[pref]
		i := 1
		for d := 1; i < k; d++ {
			if j := pref - d; j >= 0 {
				members[i] = src[j]
				i++
			}
			if j := pref + d; j < k {
				members[i] = src[j]
				i++
			}
		}
	default: // RoundRobin: rotate left so member rr mod k leads.
		start := rr % k
		slices.Reverse(members[:start])
		slices.Reverse(members[start:])
		slices.Reverse(members)
	}
}
