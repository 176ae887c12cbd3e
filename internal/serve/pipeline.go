package serve

import (
	"sync"
	"time"

	"tcb/internal/engine"
	"tcb/internal/tensor"
)

// This file is the serving loop. One round is three stages — the paper's
// §4.2.2 overlap argument made real: slot independence under ConcatBatching
// means next-batch loading and memory cleaning need not serialize with
// inference —
//
//	stage A (the loop goroutine): sweep → schedule → layout → stage tensors
//	stage B (computeStage):       supervised engine execution
//	stage C (cleanupStage):       cleaning report → release → deliver/requeue
//
// and Config.Pipeline only decides where B and C run. Off, the loop calls
// them back to back after A: one batch in flight. On, they run on their own
// goroutines connected by capacity-1 channels: while batch t computes, batch
// t+1 is being scheduled and staged and batch t−1 is being delivered and
// cleaned, at most three batches in flight. Each stage's batches pass
// through in order, every launch visits every stage exactly once, and each
// buffer (the hook's members, the Prepared's staged tensors, the Report) is
// owned by exactly one stage at a time — handoff over the channels is the
// transfer of ownership, so prepare never aliases compute. Outputs are
// bitwise identical either way: concatenation isolation means a request's
// output depends only on its own tokens, never on which batch neighbours or
// pipeline phase surrounded it.
//
// Supervision is per stage and the same in both settings: stage B runs under
// the SupervisedRunner (panic capture, watchdog, breaker), stage A consults
// the breaker before scheduling and admits a single half-open probe only
// when no batch is in flight, and stage C settles failures through the
// request lifecycle (lifecycle.go) after releasing the memory reservation.
func (s *Server) loop() {
	defer close(s.done)
	defer s.clearPrefixCache()

	run := func(l *launch) { s.cleanupStage(s.computeStage(l)) }
	flush := func() {}
	if s.cfg.Pipeline {
		// Keep cores for the non-compute stages: kernels plan their chunk
		// fan-out around the reservation, so stage B's compute cannot starve
		// stage A/C of the scheduler.
		defer tensor.Reserve(s.cfg.ReserveCores)()
		prepCh := make(chan *launch, 1)
		compCh := make(chan *computed, 1)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(compCh)
			for l := range prepCh {
				compCh <- s.computeStage(l)
			}
		}()
		go func() {
			defer wg.Done()
			for c := range compCh {
				s.cleanupStage(c)
			}
		}()
		// Blocking handoff: waits only while stage B still runs the previous
		// batch, which is exactly the overlap window.
		run = func(l *launch) { prepCh <- l }
		// Let in-flight batches finish their stages (bounded by depth).
		flush = func() { close(prepCh); wg.Wait() }
	}
	for {
		select {
		case <-s.stop:
			flush()
			s.failAll(ErrServerClosed)
			return
		default:
		}
		t0 := time.Now()
		l := s.selectBatch()
		d := time.Since(t0)
		s.scheduleNs.Add(d.Nanoseconds())
		if l != nil {
			s.observeStage(l, d, true)
			run(l)
			continue
		}
		// Idle: block until a Submit signals work. Poll stays as a fallback
		// so queued requests still get their deadline-expiry sweep (and the
		// breaker its cooldown checks) with no new arrivals.
		select {
		case <-s.stop: // handled at the top of the loop
		case <-s.wake:
		case <-time.After(s.cfg.Poll):
		}
	}
}

// computed carries one executed batch from stage B to stage C.
type computed struct {
	l      *launch
	rep    *engine.Report
	err    error
	served time.Time
}

// computeStage is stage B: execute one staged batch under supervision.
func (s *Server) computeStage(l *launch) *computed {
	t0 := time.Now()
	rep, err := s.executeBatch(l)
	served := time.Now()
	s.computeNs.Add(served.Sub(t0).Nanoseconds())
	return &computed{l: l, rep: rep, err: err, served: served}
}

// cleanupStage is stage C: memory-clean, release, deliver, requeue.
func (s *Server) cleanupStage(c *computed) {
	t0 := time.Now()
	s.completeBatch(c.l, c.rep, c.err, c.served)
	d := time.Since(t0)
	s.cleanupNs.Add(d.Nanoseconds())
	s.observeStage(c.l, d, false)
}

// observeStage checks a non-compute stage's wall time against the cost
// model's prediction (Config.PredictStages); overruns are only counted —
// the stage already ran — but they surface a mis-calibrated model in Stats
// the way watchdog kills do for compute.
func (s *Server) observeStage(l *launch, took time.Duration, prepare bool) {
	if s.cfg.PredictStages == nil || l.b == nil {
		return
	}
	prepBudget, cleanBudget := s.cfg.PredictStages(l.b)
	budget := cleanBudget
	if prepare {
		budget = prepBudget
	}
	if budget <= 0 {
		return
	}
	if took > time.Duration(float64(budget)*s.cfg.TimeoutSlack) {
		s.stageOverruns.Add(1)
	}
}
