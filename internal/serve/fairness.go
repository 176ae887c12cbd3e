package serve

import (
	"sort"

	"tcb/internal/fair"
	"tcb/internal/sched"
)

// This file is the server side of the multi-tenant fairness layer
// (package fair): the WFQ-ordered candidate pool for the scheduler, the
// refill-admission orderings, share-based shedding under breaker-open
// degradation, and the per-tenant / per-class accounting surfaced through
// Stats. There is one implementation of each; Config.Fair only decides
// whose share a request counts against (fairTenant) and how wide the
// candidate window is. The accounting always uses the real tenant —
// counters must not change scheduling behaviour, so they are safe (and
// useful) either way.

// TenantStats is one tenant's terminal-outcome tally in Stats.
type TenantStats struct {
	Admitted  int64 `json:"admitted"`  // accepted submissions
	Throttled int64 `json:"throttled"` // refused by the admission bucket (HTTP front)
	Delivered int64 `json:"delivered"` // responses served successfully
	Missed    int64 `json:"missed"`    // deadline expiries
	Failed    int64 `json:"failed"`    // engine/internal errors after retries
	Shed      int64 `json:"shed"`      // dropped under breaker-open shedding
}

// tenantCounter is the mutable accumulator behind TenantStats (guarded by
// Server.mu).
type tenantCounter struct {
	admitted, delivered, missed, failed, shed int64
}

// latRing is a bounded ring of latency samples (milliseconds) for
// percentile snapshots without unbounded growth on a long-running server.
type latRing struct {
	xs   []float64
	next int
	full bool
}

const latRingCap = 2048

func (r *latRing) add(ms float64) {
	if cap(r.xs) == 0 {
		r.xs = make([]float64, 0, latRingCap)
	}
	if len(r.xs) < cap(r.xs) {
		r.xs = append(r.xs, ms)
		return
	}
	r.xs[r.next] = ms
	r.next = (r.next + 1) % len(r.xs)
	r.full = true
}

// percentile returns the p-th percentile of the retained window (0 when
// empty).
func (r *latRing) percentile(p float64) float64 {
	if len(r.xs) == 0 {
		return 0
	}
	tmp := append([]float64(nil), r.xs...)
	sort.Float64s(tmp)
	idx := int(p / 100 * float64(len(tmp)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(tmp) {
		idx = len(tmp) - 1
	}
	return tmp[idx]
}

// tenantOf normalizes a pending's tenant for accounting.
func tenantOf(p *pending) string {
	if p.req.Tenant == "" {
		return fair.DefaultTenant
	}
	return p.req.Tenant
}

// counterLocked returns (creating) the tenant's accumulator. Callers hold
// s.mu.
func (s *Server) counterLocked(p *pending) *tenantCounter {
	name := tenantOf(p)
	c := s.tenantStats[name]
	if c == nil {
		c = &tenantCounter{}
		s.tenantStats[name] = c
	}
	return c
}

// fairTenant is the tenant whose WFQ horizon and shed share p counts against:
// its own when Config.Fair is on, otherwise the single virtual tenant every
// request shares.
func (s *Server) fairTenant(p *pending) string {
	if !s.cfg.Fair {
		return fair.DefaultTenant
	}
	return tenantOf(p)
}

// stampBefore orders by WFQ virtual finish time — arrival order within a
// tenant, weighted interleaving across tenants.
func stampBefore(a, b *pending) bool {
	if a.vfinish != b.vfinish {
		return a.vfinish < b.vfinish
	}
	return a.req.ID < b.req.ID
}

// utilityBefore is the DAS ordering: highest utility first, deadline then ID
// breaking ties.
func utilityBefore(a, b *pending) bool {
	if ua, ub := a.req.Utility(), b.req.Utility(); ua != ub {
		return ua > ub
	}
	if a.req.Deadline != b.req.Deadline {
		return a.req.Deadline < b.req.Deadline
	}
	return a.req.ID < b.req.ID
}

// poolLocked builds the scheduler's candidate pool: the eligible queue in
// WFQ stamp order, truncated to the fair window. With Config.Fair on the
// window (fair.Window(B)) is the enforcement point — the scheduler (DAS
// sorts by utility internally) only ever sees a candidate set in which every
// backlogged tenant is represented near its weighted share, so a flooding
// tenant cannot crowd the others out of consideration no matter how deep its
// backlog runs. Off, the window is unbounded and the pool is the whole
// eligible queue in arrival order. Callers hold s.mu.
func (s *Server) poolLocked(now float64) []*sched.Request {
	cands := make([]*pending, 0, len(s.queue))
	for _, p := range s.queue {
		if p.notBefore > now {
			continue // backing off after a failed batch
		}
		cands = append(cands, p)
	}
	sort.Slice(cands, func(i, j int) bool { return stampBefore(cands[i], cands[j]) })
	if window := fair.Window(s.cfg.B); s.cfg.Fair && len(cands) > window {
		cands = cands[:window]
	}
	pool := make([]*sched.Request, len(cands))
	for i, p := range cands {
		pool[i] = p.req
	}
	return pool
}

// shedLocked evicts queued requests beyond the open-breaker queue bound by share: the tenant
// most over its weighted share of the reduced queue sheds first, lowest
// utility first within the tenant. A flooding tenant therefore absorbs its
// own losses — a well-behaved tenant under its share is never touched while
// anyone is over. With Config.Fair off there is one virtual tenant, which
// makes this the global lowest-utility-first shed. Callers hold s.mu.
func (s *Server) shedLocked() {
	excess := len(s.queue) - s.openQueueCap()
	if excess <= 0 {
		return
	}
	// Group the queue by tenant, each group sorted keep-first (highest
	// utility, ties to the older ID) so victims come off the tail.
	groups := make(map[string][]*pending)
	for _, p := range s.queue {
		name := s.fairTenant(p)
		groups[name] = append(groups[name], p)
	}
	names := make([]string, 0, len(groups))
	var totalWeight float64
	weightOf := make(map[string]float64, len(groups))
	for name := range groups {
		names = append(names, name)
		w := 1.0
		if s.cfg.Registry != nil {
			w = s.cfg.Registry.Weight(name)
		}
		weightOf[name] = w
		totalWeight += w
	}
	sort.Strings(names) // deterministic tie-breaking across tenants
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool {
			ui, uj := g[i].req.Utility(), g[j].req.Utility()
			if ui != uj {
				return ui > uj
			}
			return g[i].req.ID < g[j].req.ID
		})
	}
	for n := 0; n < excess; n++ {
		// Most-over-share tenant: maximize queued/share. share_i is the
		// tenant's weighted fraction of the reduced cap; comparing
		// queued_i/share_i avoids materializing fractional shares.
		var victimName string
		var worst float64 = -1
		for _, name := range names {
			g := groups[name]
			if len(g) == 0 {
				continue
			}
			over := float64(len(g)) * totalWeight / (weightOf[name] * float64(s.openQueueCap()))
			if over > worst {
				worst, victimName = over, name
			}
		}
		g := groups[victimName]
		s.finish(g[len(g)-1], outcome{kind: shed, err: ErrShed})
		groups[victimName] = g[:len(g)-1]
	}
}

// tenantStatsLocked snapshots the per-tenant tallies. Callers hold s.mu.
func (s *Server) tenantStatsLocked() (map[string]TenantStats, float64) {
	if len(s.tenantStats) == 0 {
		return nil, 1
	}
	out := make(map[string]TenantStats, len(s.tenantStats))
	for name, c := range s.tenantStats {
		out[name] = TenantStats{
			Admitted:  c.admitted,
			Delivered: c.delivered,
			Missed:    c.missed,
			Failed:    c.failed,
			Shed:      c.shed,
		}
	}
	goodput := make(map[string]int64, len(out))
	for name, t := range out {
		goodput[name] = t.Delivered
	}
	return out, fair.JainIndexMap(goodput)
}

// classP99Locked snapshots per-class P99 latency (ms). Callers hold s.mu.
func (s *Server) classP99Locked() map[string]float64 {
	if len(s.classLat) == 0 {
		return nil
	}
	out := make(map[string]float64, len(s.classLat))
	for class, r := range s.classLat {
		out[class] = r.percentile(99)
	}
	return out
}
