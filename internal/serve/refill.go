package serve

import (
	"errors"
	"sort"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
)

// refillHook connects one running launch back to the server: it holds the
// launch's members and is what the engine calls between decode steps. Retire
// delivers a finished request immediately (its response does not wait for
// the batch), Refill admits queued requests into the freed token capacity,
// Reject returns admissions the engine could not seat.
//
// Every launch has one — a launch that must not admit (Config.Refill off, a
// half-open probe, an engine without the refill path) simply has a hook whose
// Refill offers nothing — and completeBatch closes it before settling the
// launch. Closing matters for supervision: a watchdog-abandoned engine
// goroutine keeps stepping in the background, and a closed hook ignores it,
// so it can neither drain the queue nor touch requests the server has since
// failed, requeued or launched again elsewhere.
//
// All hook state is guarded by Server.mu, the lock the lifecycle transitions
// need anyway, so each callback is one critical section.
type refillHook struct {
	s      *Server
	admit  bool // whether Refill draws from the queue at all
	closed bool
	// members maps every request currently inside the launch (initial
	// selection plus admissions, minus retirements and rejections) to its
	// pending entry.
	members map[int64]*pending
}

// newRefillHook builds the hook for a launch over its initial selection.
func newRefillHook(s *Server, selected []*pending, admit bool) *refillHook {
	members := make(map[int64]*pending, len(selected))
	for _, p := range selected {
		members[p.req.ID] = p
	}
	return &refillHook{s: s, admit: admit, members: members}
}

// close seals the hook and hands its members to the caller, which owns them
// from here on. After close every hook method is a no-op.
func (h *refillHook) close() map[int64]*pending {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	h.closed = true
	return h.members
}

// Retire delivers one finished request immediately — the §4.2.2 moment its
// memory frees is also the moment its caller stops waiting.
func (h *refillHook) Retire(res engine.Result) {
	s := h.s
	s.mu.Lock()
	if !h.closed {
		if p := h.members[res.ID]; p != nil {
			delete(h.members, res.ID) // a long-lived launch must not pin every request it ever served
			s.finish(p, outcome{kind: delivered, output: res.Output, served: time.Now()})
		}
	}
	s.mu.Unlock()
	s.notify() // Drain watches for progress
}

// Refill picks queued requests for the launch's freed token capacity in the
// server's admission order — highest utility first (the DAS ordering the
// scheduler itself uses), or WFQ stamp order when Config.Fair is on, so
// mid-flight admission cannot become a side door around tenant isolation —
// skipping requests still backing off and requests whose deadlines already
// passed. Chosen requests are dispatched exactly like a scheduled selection.
func (h *refillHook) Refill(free int) []engine.Admission {
	if !h.admit || free <= 0 {
		return nil
	}
	s := h.s
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.closed {
		return nil
	}
	var cands []*pending
	for _, p := range s.queue {
		if p.notBefore > now || p.req.Deadline < now || p.req.Len > free {
			continue
		}
		cands = append(cands, p)
	}
	if len(cands) == 0 {
		return nil // the common case between steps; sort.Slice allocates even for nothing
	}
	sort.Slice(cands, func(i, j int) bool { return s.admitBefore(cands[i], cands[j]) })
	var adms []engine.Admission
	for _, p := range cands {
		if p.req.Len > free {
			continue
		}
		free -= p.req.Len
		s.dispatch(p)
		h.members[p.req.ID] = p
		adms = append(adms, engine.Admission{
			ID: p.req.ID, Tokens: p.tokens,
			PrefixLen: p.prefixLen, CachedLen: p.cachedLen,
		})
	}
	return adms
}

// Reject puts an admission the engine could not seat (memory grow refused,
// over-long input) back in the queue, parked for a Poll without charging an
// attempt — the same treatment as a Prepare failure; an admission carrying a
// token outside the vocabulary fails instead. After close the admission is
// no longer this launch's to return: completeBatch settled it.
func (h *refillHook) Reject(adm engine.Admission, err error) {
	s := h.s
	park := s.clock() + s.cfg.Poll.Seconds()
	var te *engine.TokenError
	s.mu.Lock()
	if !h.closed {
		if p := h.members[adm.ID]; p != nil {
			delete(h.members, adm.ID)
			if errors.As(err, &te) {
				s.finish(p, outcome{kind: failed, err: err})
			} else {
				s.requeue(p, park, false)
			}
		}
	}
	s.mu.Unlock()
	s.notify()
}

// admissionBudget predicts the watchdog extension one admission earns its
// running batch: the cost model's prediction for a one-item batch of that
// length, scaled like the base budget (TimeoutSlack). The running total
// keeps the watchdog calibrated to the batch's current composition.
func (s *Server) admissionBudget(adm engine.Admission) time.Duration {
	// A prefix-cache hit only encodes (and occupies) its uncached suffix, so
	// the budget tracks the resident length.
	n := adm.Resident()
	if s.cfg.PredictBatch == nil {
		return 0
	}
	items := []batch.Item{{ID: adm.ID, Len: n}}
	b, _ := batch.PackNaive(items, 1, n)
	if b == nil {
		return 0
	}
	return time.Duration(float64(s.cfg.PredictBatch(b)) * s.cfg.TimeoutSlack)
}
