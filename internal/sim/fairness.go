package sim

import (
	"sort"

	"tcb/internal/fair"
	"tcb/internal/sched"
)

// TenantMetrics is one tenant's terminal accounting in a simulation run.
type TenantMetrics struct {
	Generated int     // requests in the trace
	Scheduled int     // scheduled by deadline (goodput)
	Expired   int     // died in a queue
	Shed      int     // refused with no live replica (cluster runs)
	Utility   float64 // Σ utility over scheduled requests
}

// tenantName normalizes a request's tenant for accounting.
func tenantName(r *sched.Request) string {
	if r.Tenant == "" {
		return fair.DefaultTenant
	}
	return r.Tenant
}

// tenant returns (creating) the request's tenant tally.
func (m *Metrics) tenant(r *sched.Request) *TenantMetrics {
	if m.Tenants == nil {
		m.Tenants = make(map[string]*TenantMetrics)
	}
	name := tenantName(r)
	tm := m.Tenants[name]
	if tm == nil {
		tm = &TenantMetrics{}
		m.Tenants[name] = tm
	}
	return tm
}

// simWFQ is a replica's fairness state: the WFQ plus each pending request's
// stamp. Nil when System.Fair is off — every fair-off code path is the
// pre-fairness code untouched, which is what the bitwise escape-hatch test
// pins. Every tenant weighs 1.
type simWFQ struct {
	wfq    *fair.WFQ
	stamps map[int64]float64
	window int
}

func newSimWFQ(sys System) *simWFQ {
	if !sys.Fair {
		return nil
	}
	return &simWFQ{
		wfq:    fair.NewWFQ(nil, nil),
		stamps: make(map[int64]float64),
		window: fair.Window(sys.B),
	}
}

// admit stamps a request entering the pending pool.
func (f *simWFQ) admit(r *sched.Request) {
	if f == nil {
		return
	}
	f.stamps[r.ID] = f.wfq.Stamp(tenantName(r), r.Len)
}

// expire releases the stamps of requests that died in the queue.
func (f *simWFQ) expire(expired []*sched.Request) {
	if f == nil {
		return
	}
	for _, r := range expired {
		f.wfq.Abandoned(tenantName(r))
		delete(f.stamps, r.ID)
	}
}

// candidates returns the scheduler's view of the pool: WFQ virtual-finish
// order, truncated to the fair window. The pool itself is left untouched.
func (f *simWFQ) candidates(pool []*sched.Request) []*sched.Request {
	if f == nil {
		return pool
	}
	cands := append([]*sched.Request(nil), pool...)
	sort.SliceStable(cands, func(a, b int) bool {
		fa, fb := f.stamps[cands[a].ID], f.stamps[cands[b].ID]
		if fa != fb {
			return fa < fb
		}
		return cands[a].ID < cands[b].ID
	})
	if len(cands) > f.window {
		cands = cands[:f.window]
	}
	return cands
}

// dispatched advances the virtual clock past the chosen requests' stamps.
func (f *simWFQ) dispatched(chosen []*sched.Request) {
	if f == nil {
		return
	}
	for _, r := range chosen {
		f.wfq.Dispatched(tenantName(r), f.stamps[r.ID])
		delete(f.stamps, r.ID)
	}
}
