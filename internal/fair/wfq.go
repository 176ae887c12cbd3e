package fair

import "sync"

// WFQ implements self-clocked weighted fair queueing (SCFQ) over tenants:
// each arriving request is stamped with a virtual finish time
//
//	F = max(V, F_last(tenant)) + cost / weight(tenant)
//
// where V is the virtual clock (the finish tag of the request most
// recently dispatched to the engine) and cost is the request's predicted
// service demand (cost.Params-derived seconds when the caller has a
// calibrated model, raw token count otherwise — only ratios matter).
// Draining stamped requests in ascending F order serves tenants in
// proportion to their weights regardless of how unbalanced their arrival
// rates are: a tenant flooding the queue only stretches its *own* virtual
// horizon, because each of its requests starts at its previous one's
// finish, while a light tenant's next request starts at the shared clock V
// and lands near the front.
//
// The k8s-apiserver fq scheduler (SNIPPETS.md Snippets 1–3) keeps the same
// per-queue virtual start plus J·G finish progression; this version stamps
// requests at admission instead of walking queues at dispatch so the serve
// loop's candidate draw is one sort over stamps, and uses the SCFQ virtual
// clock (finish tag of the packet in service) which needs no per-tick
// bookkeeping and cannot stall when every queue is idle.
//
// All methods are safe for concurrent use; the serve loop stamps from
// Submit while dispatching from the scheduler goroutine.
type WFQ struct {
	// Cost predicts a request's service demand from its token length.
	// Nil means cost = float64(lenTokens).
	Cost func(lenTokens int) float64
	// Weight resolves a tenant's WFQ weight (e.g. Registry.Weight).
	// Nil means every tenant weighs 1.
	Weight func(tenant string) float64

	mu      sync.Mutex
	vclock  float64
	tenants map[string]*wfqTenant
}

type wfqTenant struct {
	lastFinish float64
	// backlog counts stamped-but-undispatched requests; when it drains to
	// zero the tenant's horizon is released so an idle spell cannot bank
	// priority (lastFinish below the clock is clamped up on next stamp).
	backlog int
}

// Window is the fair candidate window for a scheduler drawing B rows per
// round: 4×B, at least 16. The window is the isolation lever — DAS itself is
// tenant-blind, so a flooding tenant is contained by never letting its
// excess into the candidate set ahead of other tenants' heads.
func Window(B int) int {
	return max(4*B, 16)
}

// NewWFQ builds a WFQ with the given cost and weight resolvers (both may
// be nil).
func NewWFQ(cost func(int) float64, weight func(string) float64) *WFQ {
	return &WFQ{Cost: cost, Weight: weight}
}

// Stamp assigns the next virtual finish time for one request of the given
// tenant and token length. Stamps are strictly increasing per tenant.
func (w *WFQ) Stamp(tenant string, lenTokens int) float64 {
	cost := float64(lenTokens)
	if w.Cost != nil {
		cost = w.Cost(lenTokens)
	}
	if cost <= 0 {
		cost = 1e-9 // degenerate predictor: keep stamps strictly increasing
	}
	weight := 1.0
	if w.Weight != nil {
		if v := w.Weight(tenant); v > 0 {
			weight = v
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.tenants == nil {
		w.tenants = make(map[string]*wfqTenant)
	}
	t := w.tenants[tenant]
	if t == nil {
		t = &wfqTenant{}
		w.tenants[tenant] = t
	}
	start := w.vclock
	if t.lastFinish > start {
		start = t.lastFinish
	}
	t.lastFinish = start + cost/weight
	t.backlog++
	return t.lastFinish
}

// Dispatched advances the virtual clock to the finish tag of a request
// handed to the engine (SCFQ: V is the tag of the packet in service) and
// releases one unit of the tenant's backlog.
func (w *WFQ) Dispatched(tenant string, vfinish float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if vfinish > w.vclock {
		w.vclock = vfinish
	}
	w.drop(tenant)
}

// Abandoned releases one unit of the tenant's backlog without advancing
// the clock — for requests that left the queue unserved (deadline expiry,
// shed, terminal failure). Without it a tenant whose requests keep dying
// would carry a permanently inflated horizon.
func (w *WFQ) Abandoned(tenant string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.drop(tenant)
}

// drop decrements the tenant's backlog, resetting its horizon when it
// empties. Callers hold w.mu.
func (w *WFQ) drop(tenant string) {
	t := w.tenants[tenant]
	if t == nil {
		return
	}
	if t.backlog > 0 {
		t.backlog--
	}
	if t.backlog == 0 && t.lastFinish < w.vclock {
		// Fully drained and behind the clock: nothing left to order, so
		// forget the horizon (the next stamp starts at the clock anyway).
		delete(w.tenants, tenant)
	}
}
