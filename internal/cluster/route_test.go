package cluster

import (
	"slices"
	"testing"
)

// TestOrder pins the one copy of the routing policies on plain member
// indexes: round-robin rotation, stable least-loaded, and length affinity
// falling outward from the owning band (nearer first, lower first on ties).
// These are the orders the live router produced before the policies moved
// into Order, so the router's routing tests pass unchanged.
func TestOrder(t *testing.T) {
	loads := []int64{5, 2, 5, 1, 9}
	load := func(i int) int64 { return loads[i] }
	rows := []struct {
		name   string
		p      Policy
		k      int // members 0..k-1
		n, rr  int
		maxLen int
		want   []int
	}{
		{"rr start", RoundRobin, 3, 10, 0, 100, []int{0, 1, 2}},
		{"rr rotates", RoundRobin, 3, 10, 4, 100, []int{1, 2, 0}},
		{"rr wraps", RoundRobin, 3, 10, 5, 100, []int{2, 0, 1}},
		{"least stable", LeastLoaded, 4, 10, 7, 100, []int{3, 1, 0, 2}},
		{"least all", LeastLoaded, 5, 10, 0, 100, []int{3, 1, 0, 2, 4}},
		{"affinity short", LengthAffinity, 5, 0, 3, 100, []int{0, 1, 2, 3, 4}},
		{"affinity middle", LengthAffinity, 5, 70, 3, 100, []int{3, 2, 4, 1, 0}},
		{"affinity long", LengthAffinity, 5, 200, 3, 100, []int{4, 3, 2, 1, 0}},
		{"affinity two", LengthAffinity, 2, 60, 0, 64, []int{1, 0}},
		{"one member", LeastLoaded, 1, 10, 3, 100, []int{0}},
	}
	for _, row := range rows {
		members := make([]int, row.k)
		for i := range members {
			members[i] = i
		}
		Order(row.p, members, row.n, row.maxLen, row.rr, load)
		if !slices.Equal(members, row.want) {
			t.Errorf("%s: order = %v, want %v", row.name, members, row.want)
		}
	}
}

// TestOrderAllocations: the policies a submission routes through on every
// request order a tier in place — least-loaded and round-robin allocate
// nothing.
func TestOrderAllocations(t *testing.T) {
	members := []int{0, 1, 2}
	load := func(i int) int64 { return int64(3 - i) }
	for _, p := range []Policy{LeastLoaded, RoundRobin} {
		if n := testing.AllocsPerRun(100, func() { Order(p, members, 10, 64, 1, load) }); n != 0 {
			t.Errorf("%v: %v allocations per Order, want 0", p, n)
		}
	}
}
