package serve

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
)

// This file is the supervision layer between the server's scheduling loop
// and the inference engine. The paper's scheduler (§5, Algorithm 1)
// maximises utility of requests served by their deadlines; an unsupervised
// engine undoes that work wholesale — one failed launch discards a whole
// batch, a panic kills the process, a hung kernel wedges the loop. The
// SupervisedRunner turns those into bounded, per-batch errors the loop can
// recover from (retry/requeue in serve.go), and the Breaker stops the
// server from feeding work to an engine that is persistently failing.

// ErrBatchTimeout marks a batch killed by the supervision watchdog: the
// engine exceeded its predicted latency times the slack factor.
var ErrBatchTimeout = errors.New("serve: batch execution timed out")

// ErrBreakerOpen marks work refused because the circuit breaker is open.
var ErrBreakerOpen = errors.New("serve: circuit breaker open")

// ErrShed marks queued requests shed while the breaker was open and the
// queue exceeded the degraded bound.
var ErrShed = fmt.Errorf("serve: request shed under degraded service: %w", ErrBreakerOpen)

// PanicError wraps an engine panic converted to an error by the
// SupervisedRunner, preserving the panic value and the goroutine stack.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: engine panicked: %v", e.Value)
}

// BreakerState is the circuit breaker's state machine position.
type BreakerState int

const (
	// BreakerClosed: normal operation, failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the engine is presumed down; runs are refused until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; a single probe batch is allowed
	// through to test the engine.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// Breaker is a consecutive-failure circuit breaker. It trips open after
// threshold consecutive engine failures; after cooldown it admits a single
// probe (half-open) and closes again on the first success. All methods are
// safe for concurrent use.
type Breaker struct {
	mu          sync.Mutex
	threshold   int
	cooldown    time.Duration
	state       BreakerState
	consecutive int
	openedAt    time.Time
	trips       int64
	now         func() time.Time // injectable for tests
}

// NewBreaker returns a closed breaker tripping after threshold consecutive
// failures and probing again cooldown after opening.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = 250 * time.Millisecond
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// State returns the current state, lazily moving Open → HalfOpen once the
// cooldown has elapsed.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateLocked()
}

func (b *Breaker) stateLocked() BreakerState {
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		b.state = BreakerHalfOpen
	}
	return b.state
}

// Allow reports whether a run may proceed now. Closed and half-open admit
// work; open refuses it until the cooldown elapses.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateLocked() != BreakerOpen
}

// Record feeds one run outcome into the state machine.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.stateLocked() {
	case BreakerClosed:
		if ok {
			b.consecutive = 0
			return
		}
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.tripLocked()
		}
	case BreakerHalfOpen:
		if ok {
			b.state = BreakerClosed
			b.consecutive = 0
			return
		}
		b.tripLocked()
	case BreakerOpen:
		// A straggler outcome from before the trip; refresh the window on
		// failure so the cooldown restarts from the latest evidence.
		if !ok {
			b.openedAt = b.now()
		}
	}
}

func (b *Breaker) tripLocked() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.consecutive = 0
	b.trips++
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// SupervisedRunner decorates a Runner with panic capture, a per-batch
// wall-clock watchdog, and circuit-breaker accounting. The zero value with
// only Inner set degrades to plain panic capture.
type SupervisedRunner struct {
	Inner Runner
	// Timeout, when non-nil, returns the wall-clock budget for a batch
	// (typically the cost model's predicted latency times a slack factor).
	// Non-positive budgets disable the watchdog for that batch.
	Timeout func(b *batch.Batch) time.Duration
	// Breaker, when non-nil, gates runs and is fed every outcome.
	Breaker *Breaker
}

// Run executes the inner runner under supervision. A panic in the engine
// becomes a *PanicError; a batch exceeding its budget fails with
// ErrBatchTimeout (the runaway engine goroutine is abandoned and its late
// result discarded); an open breaker refuses the run with ErrBreakerOpen
// without touching the engine or recording an outcome.
func (s *SupervisedRunner) Run(b *batch.Batch, tokens map[int64][]int) (*engine.Report, error) {
	return s.supervise(b, func(*deadline) (*engine.Report, error) { return s.Inner.Run(b, tokens) })
}

// RunPreparedRefill executes a staged launch under the identical supervision
// envelope. The watchdog budget is extendable: every admission the hook
// accepts adds extend(adm) to the deadline, so the budget tracks the batch's
// composition as it changes instead of killing a healthy launch for serving
// more work than it was born with. An inner runner without the refill path
// runs the batch to completion through its prepared (or plain) path — the
// hook stays silent and the serve loop's completion stage delivers
// everything. Note a watchdog-abandoned run keeps computing in its goroutine
// — it never frees the batch's memory reservation, which is why the serve
// loop releases the Prepared before requeueing (see completeBatch).
func (s *SupervisedRunner) RunPreparedRefill(p *engine.Prepared, hook engine.RefillHook,
	extend func(engine.Admission) time.Duration) (*engine.Report, error) {
	return s.supervise(p.Batch, func(dl *deadline) (*engine.Report, error) {
		switch inner := s.Inner.(type) {
		case RefillRunner:
			if dl != nil && extend != nil {
				hook = &extendingHook{RefillHook: hook, extend: extend, dl: dl}
			}
			return inner.RunPreparedRefill(p, hook)
		case PreparedRunner:
			return inner.RunPrepared(p)
		default:
			return s.Inner.Run(p.Batch, p.Tokens)
		}
	})
}

// deadline is a mutex-guarded watchdog deadline the extendingHook pushes
// forward from the engine goroutine while the supervisor waits on it.
type deadline struct {
	mu sync.Mutex
	at time.Time
}

func (d *deadline) get() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.at
}

func (d *deadline) add(delta time.Duration) {
	if delta <= 0 {
		return
	}
	d.mu.Lock()
	d.at = d.at.Add(delta)
	d.mu.Unlock()
}

// extendingHook decorates a RefillHook so every accepted admission extends
// the watchdog deadline by its predicted cost.
type extendingHook struct {
	engine.RefillHook
	extend func(engine.Admission) time.Duration
	dl     *deadline
}

func (h *extendingHook) Refill(free int) []engine.Admission {
	adms := h.RefillHook.Refill(free)
	for _, adm := range adms {
		h.dl.add(h.extend(adm))
	}
	return adms
}

// supervise runs one engine invocation under breaker gating, panic capture
// and the per-batch watchdog. run receives the watchdog's movable deadline
// (nil when the batch has no budget) so it can extend it; on timeout the run
// goroutine is abandoned, never killed.
func (s *SupervisedRunner) supervise(b *batch.Batch, run func(*deadline) (*engine.Report, error)) (*engine.Report, error) {
	if s.Breaker != nil && !s.Breaker.Allow() {
		return nil, ErrBreakerOpen
	}
	var dl *deadline
	var budget time.Duration
	if s.Timeout != nil {
		if budget = s.Timeout(b); budget > 0 {
			dl = &deadline{at: time.Now().Add(budget)}
		}
	}
	type outcome struct {
		rep *engine.Report
		err error
	}
	ch := make(chan outcome, 1) // buffered: an abandoned run must not leak its goroutine
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{nil, &PanicError{Value: r, Stack: debug.Stack()}}
			}
		}()
		rep, err := run(dl)
		ch <- outcome{rep, err}
	}()
	if dl == nil {
		o := <-ch
		s.record(o.err == nil)
		return o.rep, o.err
	}
	for {
		wait := time.Until(dl.get())
		if wait <= 0 {
			s.record(false)
			return nil, fmt.Errorf("%w: %d items exceeded budget %v (before extensions)", ErrBatchTimeout, b.NumItems(), budget)
		}
		t := time.NewTimer(wait)
		select {
		case o := <-ch:
			t.Stop()
			s.record(o.err == nil)
			return o.rep, o.err
		case <-t.C:
			// The deadline may have moved while we slept; loop re-checks.
		}
	}
}

func (s *SupervisedRunner) record(ok bool) {
	if s.Breaker != nil {
		s.Breaker.Record(ok)
	}
}
