package serve

import (
	"time"

	"tcb/internal/engine"
)

// This file is the request lifecycle. Every request is in exactly one state,
// guarded by Server.mu:
//
//	SubmitOpts ─▶ queued ──dispatch──▶ running ──finish──▶ done
//	                 ▲                    │
//	                 └──────requeue───────┘
//	              queued ──finish──▶ done   (expired, shed, server closed)
//
// dispatch, requeue and finish are the only transitions, and finish is the
// only place a request's terminal bookkeeping lives: the Response, the
// outcome and tenant counters, the WFQ stamp and the prefix pin. Each
// transition checks the state it leaves, so a straggler — a
// watchdog-abandoned engine goroutine retiring or rejecting late, a second
// report of a request already answered — finds the request in a state its
// transition does not apply to and changes nothing.
// "Exactly one outcome, every resource released once" holds by construction
// rather than by auditing call sites.

// reqState is a request's lifecycle position.
type reqState uint8

const (
	stateQueued  reqState = iota // in Server.queue, eligible for selection
	stateRunning                 // member of exactly one launch's hook
	stateDone                    // terminal outcome sent
)

// outcomeKind names the four terminal outcomes Stats counts.
type outcomeKind uint8

const (
	delivered outcomeKind = iota
	missed
	failed
	shed
)

// outcome is what finish reports to the submitter.
type outcome struct {
	kind   outcomeKind
	output []int     // delivered only
	err    error     // nil exactly when delivered
	served time.Time // zero when the request never reached the engine
}

// dispatch moves a queued request into a launch. Callers hold s.mu.
func (s *Server) dispatch(p *pending) {
	delete(s.queue, p.req.ID)
	p.state = stateRunning
	if !p.stampDone {
		p.stampDone = true
		s.wfq.Dispatched(s.fairTenant(p), p.vfinish)
	}
}

// requeue is the only back-edge: a running request returns to the queue,
// schedulable again at notBefore. chargeAttempt records that the engine ran
// (and failed) it. Arrival time, stamp and pin are untouched, so utility
// ordering and backoff caps survive the round trip. A request that is not
// running — already answered, or already back in the queue — is left alone.
// Callers hold s.mu.
func (s *Server) requeue(p *pending, notBefore float64, chargeAttempt bool) {
	if p.state != stateRunning {
		return
	}
	if chargeAttempt {
		p.attempts++
		s.retried++
	}
	p.notBefore = notBefore
	p.state = stateQueued
	s.queue[p.req.ID] = p
}

// finish gives p its terminal outcome: one Response, one counter of each
// kind, the WFQ backlog and the prefix pin released. A request already done
// is left alone. Callers hold s.mu; the send cannot block because out has
// capacity one and this is its only sender.
func (s *Server) finish(p *pending, o outcome) {
	if p.state == stateDone {
		return
	}
	if p.state == stateQueued {
		delete(s.queue, p.req.ID)
	}
	p.state = stateDone
	p.out <- Response{ID: p.req.ID, Output: o.output, Err: o.err, Queued: p.queued, Served: o.served}
	c := s.counterLocked(p)
	switch o.kind {
	case delivered:
		s.served++
		c.delivered++
		if p.class != "" {
			r := s.classLat[p.class]
			if r == nil {
				r = &latRing{}
				s.classLat[p.class] = r
			}
			r.add(o.served.Sub(p.queued).Seconds() * 1000)
		}
	case missed:
		s.missed++
		c.missed++
	case failed:
		s.failed++
		c.failed++
	case shed:
		s.shed++
		c.shed++
	}
	if !p.stampDone {
		// Never dispatched: release the tenant's backlog without advancing
		// the virtual clock.
		p.stampDone = true
		s.wfq.Abandoned(s.fairTenant(p))
	}
	p.prefix.Release()
}

// failAttempt settles a member of a failed batch (or one whose result the
// engine lost): expired requests miss, requests out of attempts fail with
// the engine's error, the rest requeue under backoff with the attempt
// charged. Callers hold s.mu.
func (s *Server) failAttempt(p *pending, err error, now float64, served time.Time) {
	switch {
	case p.req.Deadline < now:
		s.finish(p, outcome{kind: missed, err: ErrDeadlineExceeded, served: served})
	case p.attempts+1 >= s.cfg.Retry.MaxAttempts:
		s.finish(p, outcome{kind: failed, err: err, served: served})
	default:
		s.requeue(p, now+s.backoff(p.attempts+1), true)
	}
}

// failBadTokens settles a launch the engine refused because one member
// carries a token id outside the vocabulary: that member fails for good —
// no retry can change its tokens — and its batchmates go back to the queue
// uncharged and eligible at once. Callers hold s.mu.
func (s *Server) failBadTokens(members map[int64]*pending, te *engine.TokenError) {
	for id, p := range members {
		if id == te.ID {
			s.finish(p, outcome{kind: failed, err: te})
		} else {
			s.requeue(p, 0, false)
		}
	}
}

// failAll fails everything still queued (server stop, drain timeout).
func (s *Server) failAll(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.queue {
		s.finish(p, outcome{kind: failed, err: err})
	}
}
