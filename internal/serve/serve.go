// Package serve is the online serving front of TCB (Fig. 3): a goroutine
// pipeline that accepts requests with deadlines, queues them, invokes the
// pluggable scheduler whenever the engine is idle, lays the decision out
// under the configured batching scheme, and runs it on the real Go
// transformer engine, delivering each response on its own channel.
//
// The engine runs under a supervision stack (supervise.go): panics become
// errors, a hung batch is killed by a cost-model-derived watchdog, failed
// batches requeue their unexpired requests with capped exponential backoff,
// and a circuit breaker degrades the server gracefully while the engine is
// persistently down. chaos.go provides the deterministic fault injector
// that exercises all of it.
//
// This is the component a downstream user embeds; the discrete-event
// simulator (package sim) exists only because paper-scale arrival rates
// outrun a CPU transformer.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/fair"
	"tcb/internal/prefixcache"
	"tcb/internal/sched"
	"tcb/internal/tensor"
)

// Runner is the inference engine behind the server: Prepare stages a batch
// (validation, device-memory reservation, host-side tensor staging) and
// RunPreparedRefill executes it as a persistent execution context,
// delivering finished requests through the hook the moment they retire and
// admitting queued requests into the freed capacity between decode steps.
// Staging and execution are separate calls so the serving loop can overlap
// them with neighbouring batches' compute. *engine.Engine implements it;
// ChaosRunner wraps one with a fault schedule.
type Runner interface {
	Prepare(b *batch.Batch, tokens map[int64][]int) (*engine.Prepared, error)
	RunPreparedRefill(p *engine.Prepared, hook engine.RefillHook) (*engine.Report, error)
}

// RefillRunner is Runner under its former name, kept only because the
// frozen benchmark module (bench/) still asserts it; nothing else may use it.
type RefillRunner = Runner

var (
	_ Runner = (*engine.Engine)(nil)
	_ Runner = (*ChaosRunner)(nil)
)

// RetryPolicy bounds how failed batches are retried. A request consumes one
// attempt per failed batch it was part of; when its attempts are exhausted
// (or its deadline passes first) it fails with the last engine error.
type RetryPolicy struct {
	// MaxAttempts is the total number of engine runs a request may be part
	// of. 1 disables retries (a failed batch fails all its requests — the
	// pre-supervision behaviour); 0 means the default of 3.
	MaxAttempts int
	// Backoff is the base delay before a requeued request becomes
	// schedulable again; attempt k waits Backoff·2^(k-1), capped at
	// MaxBackoff. Zero means the Poll interval.
	Backoff time.Duration
	// MaxBackoff caps the exponential backoff. Zero means 64×Backoff.
	MaxBackoff time.Duration
}

// Config describes a server.
type Config struct {
	Engine    Runner
	Scheduler sched.Scheduler
	// Scheme must be batch.Concat: the server lays every launch out as
	// concatenated rows (the other schemes are baselines the simulator and
	// the figures run). The field is kept for bench/, which sets it; New
	// refuses any other value, the zero value (Naive) included.
	Scheme batch.Scheme
	B, L   int
	// QueueCap bounds the submission queue; Submit fails fast beyond it.
	// While the circuit breaker is open the bound drops to QueueCap/8 (at
	// least 1): submissions beyond it are refused with ErrBreakerOpen and
	// already-queued lowest-utility requests beyond it are shed, instead of
	// accepting work a down engine will drop anyway.
	QueueCap int
	// Poll bounds how long the scheduler loop waits between rounds when no
	// wakeup arrives. Submissions wake the loop immediately through a
	// channel, so Poll only paces the deadline-expiry sweep of requests
	// already queued; it can be generous without hurting latency.
	Poll time.Duration

	// Retry governs requeue-on-failure; see RetryPolicy.
	Retry RetryPolicy
	// BreakerThreshold is the consecutive-failure count K that trips the
	// circuit breaker. 0 means the default of 5; negative disables the
	// breaker entirely.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting a
	// half-open probe. Zero means 250ms.
	BreakerCooldown time.Duration
	// PredictBatch, when non-nil, predicts a batch's execution latency
	// (e.g. cost.Params.PredictBatchDuration); the supervision watchdog
	// kills batches exceeding the prediction times TimeoutSlack. Nil
	// disables the watchdog.
	PredictBatch func(b *batch.Batch) time.Duration
	// TimeoutSlack multiplies the predicted latency into the watchdog
	// budget. Zero means 8.
	TimeoutSlack float64
	// MinBatchTimeout floors the watchdog budget, protecting against an
	// optimistic cost model. Zero means 10×Poll.
	MinBatchTimeout time.Duration
	// DrainTimeout bounds Drain: past it, remaining queued requests fail
	// with ErrServerClosed and Drain returns without waiting for an
	// in-flight batch that may never come back. Zero preserves the
	// unbounded behaviour.
	DrainTimeout time.Duration

	// Pipeline runs the serving loop's compute and cleanup stages on their
	// own goroutines (pipeline.go): stage A schedules, lays out and stages
	// batch t+1 while stage B computes batch t and stage C releases,
	// delivers and requeues batch t−1. Off, the same three stages run
	// back to back on the loop goroutine. Outputs are identical either way
	// (concat isolation: each request's output depends only on its own
	// tokens); only overlap changes. The pipeline withholds one logical
	// core from the tensor kernel worker plan (tensor.Reserve) so its
	// non-compute stages keep running while compute saturates the rest.
	Pipeline bool
	// PredictStages, when non-nil, predicts a batch's prepare and cleanup
	// stage durations (e.g. cost.Params.PredictStageDurations); a stage
	// exceeding its prediction × TimeoutSlack counts as a stage overrun in
	// Stats. The compute stage is covered by PredictBatch and
	// the supervision watchdog instead.
	PredictStages func(b *batch.Batch) (prepare, cleanup time.Duration)

	// Refill enables continuous batching. Every prepared launch is a
	// persistent execution context whose finished requests are delivered
	// and memory-cleaned the moment they retire; with Refill set, queued
	// requests whose lengths fit the freed token capacity are also admitted
	// into the running batch between decode steps (utility-ordered,
	// backoff- and deadline-respecting, like the scheduler's own
	// admission). Half-open breaker probes never refill — a probe must stay
	// minimal.
	Refill bool

	// Fair enables multi-tenant isolation (package fair). Requests are always
	// stamped with WFQ virtual finish times at submission and the scheduler
	// always draws its candidates in stamp order; with Fair set the stamps
	// are per tenant, the draw is truncated to fair.Window(B), refill
	// admission follows stamp order, and breaker-open shedding evicts within
	// the tenant most over its weighted share. Off (the default) every
	// request belongs to one virtual tenant and the window is unbounded: the
	// scheduler sees the whole eligible queue in arrival order and shedding
	// is global lowest-utility-first.
	Fair bool
	// Registry resolves tenant WFQ weights and bucket provisioning. Nil
	// means every tenant weighs 1. Bucket provisioning is read by whoever
	// owns the admission limiter (the front), never by the server.
	Registry *fair.Registry
	// Classes maps SLO class names (SubmitOptions.Class) to SLA weights and
	// deadline defaults. Nil means fair.DefaultClasses.
	Classes *fair.ClassSet

	// PrefixCache enables shared-prompt prefix sharing: a submission that
	// declares a prefix (SubmitOptions.PrefixLen) whose tokens are resident
	// is pinned at admission and occupies only its uncached suffix in the
	// batch; cold declared prefixes are frozen by the engine on completion
	// for later submissions to hit. The SAME cache must be wired into the
	// engine (engine.Engine.PrefixCache) — the server pins and accounts, the
	// engine reads and inserts. The server owns the cache's lifecycle: it is
	// cleared when the serving loop exits so device accounting balances.
	// Nil disables prefix sharing; submissions may still declare PrefixLen
	// (they encode split but nothing is frozen or reused).
	PrefixCache *prefixcache.Cache
}

// Stats is a point-in-time snapshot of server counters.
type Stats struct {
	Submitted int64 // accepted submissions
	Served    int64 // responses delivered successfully
	Missed    int64 // deadline expiries in the queue
	Failed    int64 // engine or internal errors (after retries)
	Queued    int   // requests currently waiting
	InFlight  int   // batches between selection and completion
	Batches   int64 // engine launches (probes included)

	Retried      int64  // requeues of requests from failed batches
	Panics       int64  // engine panics converted to errors
	Timeouts     int64  // batches killed by the watchdog
	Shed         int64  // requests shed while the breaker was open
	BreakerTrips int64  // times the breaker opened
	BreakerState string // "closed", "open", "half-open" or "disabled"

	// Per-stage wall-clock totals, replacing the old lumped queue-wait +
	// compute number: ScheduleNs covers the deadline sweep, scheduling,
	// layout and host-side staging (stage A); ComputeNs the supervised
	// engine execution (stage B); CleanupNs reservation release, delivery
	// and requeueing (stage C). Under the pipeline the three accrue
	// concurrently, so their sum can exceed wall time — that surplus is
	// exactly the hidden latency.
	ScheduleNs int64
	ComputeNs  int64
	CleanupNs  int64
	// StageOverruns counts prepare/cleanup stage executions that exceeded
	// their PredictStages budget × TimeoutSlack.
	StageOverruns int64
	// Pipelined reports whether the stages run on their own goroutines.
	Pipelined bool

	// Persistent-launch counters: RefillsAdmitted counts requests admitted
	// into a running batch mid-flight (Config.Refill); SegmentsRetiredEarly
	// counts requests delivered and memory-cleaned while their batch was
	// still decoding; SlotIdleSteps accumulates per-step
	// retired-but-unfilled slots; BatchOccupancyPct is the mean live-token
	// occupancy of launches across decode steps. All but the first are
	// populated for every launch that decodes.
	RefillsAdmitted      int64
	SegmentsRetiredEarly int64
	SlotIdleSteps        int64
	BatchOccupancyPct    float64
	// EncodedTokens and EncodedScores are the encoder rows and attention
	// scores the engine executed (engine.Report): against Served they say
	// what a request costs to encode, padding and off-block scores included.
	EncodedTokens int64
	EncodedScores int64
	// Refilling reports whether continuous batching is active
	// (Config.Refill).
	Refilling bool

	// Kernels snapshots the process-wide GEMM dispatch counters and the
	// lane ISA serving them. Serving dispatches only the wide kernel.
	// Process-wide, not per-server — in a multi-replica cluster every
	// replica reports the same process totals.
	Kernels tensor.KernelCounts

	// Prefix snapshots the prefix cache's counters (hits, misses, tokens
	// saved, resident bytes); zero when prefix sharing is off.
	Prefix prefixcache.Stats
	// PrefixEnabled reports whether a prefix cache is attached.
	PrefixEnabled bool

	// Tenants breaks terminal outcomes down by tenant (untagged traffic is
	// the "default" tenant); nil until the first submission. Throttled is
	// always zero here: admission is charged at the front, which folds its
	// limiter's counts in (cluster.Stats.Tenants).
	Tenants map[string]TenantStats
	// JainGoodput is Jain's fairness index over per-tenant delivered counts
	// (1 = perfectly even, 1/n = one tenant taking everything).
	JainGoodput float64
	// ClassP99MS is the per-SLO-class P99 queue-to-delivery latency in
	// milliseconds over a bounded recent window; nil until a classed request
	// is delivered.
	ClassP99MS map[string]float64
	// FairEnabled reports whether per-tenant isolation (Config.Fair) is on.
	FairEnabled bool
}

// Response is the outcome of one request.
type Response struct {
	ID     int64
	Output []int
	Err    error
	// Queued and Served bracket the request's life inside the server.
	Queued, Served time.Time
}

// ErrDeadlineExceeded marks requests that expired in the queue.
var ErrDeadlineExceeded = errors.New("serve: deadline exceeded before scheduling")

// ErrServerClosed marks requests rejected because the server stopped.
var ErrServerClosed = errors.New("serve: server closed")

// ErrQueueFull marks submissions beyond QueueCap.
var ErrQueueFull = errors.New("serve: queue full")

// TooLongError rejects submissions that exceed the row capacity: such a
// request would be accepted and then sit unschedulable until its deadline.
type TooLongError struct {
	Len   int // submitted token count
	Limit int // row capacity it exceeded
}

func (e *TooLongError) Error() string {
	return fmt.Sprintf("serve: request of %d tokens exceeds row capacity %d", e.Len, e.Limit)
}

type pending struct {
	req    *sched.Request
	tokens []int
	out    chan Response
	queued time.Time
	// state is the request's lifecycle position (lifecycle.go), guarded by
	// Server.mu like everything below it.
	state reqState
	// attempts counts failed engine runs this request was part of;
	// notBefore gates rescheduling until its backoff elapses.
	attempts  int
	notBefore float64
	// class is the request's SLO class name ("" = unclassed); vfinish its
	// WFQ virtual finish stamp; stampDone records that the stamp was settled
	// (dispatched or abandoned) so requeues cannot settle it twice.
	class     string
	vfinish   float64
	stampDone bool
	// prefixLen is the declared shared-prefix boundary (0 = none);
	// cachedLen is 0 (cold) or prefixLen (prefix-cache hit — req.Len then
	// counts the uncached suffix only, and prefix pins the cache entry from
	// admission until the request's terminal outcome). tokens always holds
	// the FULL sequence either way.
	prefixLen int
	cachedLen int
	prefix    prefixcache.Handle
}

// Server is a running TCB serving instance.
type Server struct {
	cfg      Config
	runner   *SupervisedRunner
	breaker  *Breaker
	mu       sync.Mutex
	queue    map[int64]*pending
	next     int64
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	// drainOnce/drainDone make Drain idempotent: the first caller runs the
	// drain sequence, every later or concurrent caller waits on the same
	// completion (and the same DrainTimeout deadline).
	drainOnce sync.Once
	drainDone chan struct{}
	// wake and progress are capacity-1 edge triggers, one per waiter:
	// every Submit, completion and requeue signals both, so the idle loop
	// (wake) and Drain (progress) react immediately instead of sleeping out
	// the Poll interval, and neither can consume the other's signal. Poll
	// remains only as a deadline-expiry fallback.
	wake     chan struct{}
	progress chan struct{}
	base     time.Time

	// wfq stamps every request at submission; the stamps order the
	// scheduler's candidate pool (per tenant when Config.Fair is on, one
	// virtual tenant otherwise). admitBefore is the refill-admission order:
	// stamp order when fair, DAS utility order otherwise. classes is the
	// resolved SLO class set (never nil).
	wfq         *fair.WFQ
	admitBefore func(a, b *pending) bool
	classes     *fair.ClassSet
	// tenantStats and classLat back the per-tenant / per-class Stats
	// breakdown (guarded by mu).
	tenantStats map[string]*tenantCounter
	classLat    map[string]*latRing

	submitted, served, missed, failed, batches int64
	retried, panics, timeouts, shed            int64
	// inFlight counts batches between selection and completion; Drain
	// waits for it to reach zero (under the pipeline the queue can be
	// empty while up to three batches are still in the stages).
	inFlight int
	draining bool

	// Per-stage wall-clock accumulators; atomic because the pipeline's
	// three stage goroutines update them concurrently.
	scheduleNs, computeNs, cleanupNs atomic.Int64
	stageOverruns                    atomic.Int64

	// Persistent-launch accumulators, folded in from each launch's
	// RefillReport; atomic because the cleanup stage and Stats readers race.
	refillsAdmitted, segsRetiredEarly, slotIdleSteps atomic.Int64
	liveTokenSteps, capTokenSteps                    atomic.Int64
	encodedTokens, encodedScores                     atomic.Int64
}

// launch is one scheduled batch moving through the serve stages: selected
// and laid out in stage A, executed in stage B, delivered and cleaned in
// stage C. hook holds the launch's members — the selection plus whatever it
// admits mid-flight — until stage C closes it.
type launch struct {
	b    *batch.Batch
	ep   *engine.Prepared
	hook *refillHook
}

// New validates cfg and returns an unstarted server.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil || cfg.Scheduler == nil {
		return nil, fmt.Errorf("serve: engine and scheduler are required")
	}
	if cfg.B <= 0 || cfg.L <= 0 {
		return nil, fmt.Errorf("serve: B=%d L=%d must be positive", cfg.B, cfg.L)
	}
	if cfg.Scheme != batch.Concat {
		return nil, fmt.Errorf("serve: scheme %v is not served (only %v)", cfg.Scheme, batch.Concat)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	if cfg.Poll <= 0 {
		cfg.Poll = time.Millisecond
	}
	if cfg.Retry.MaxAttempts <= 0 {
		cfg.Retry.MaxAttempts = 3
	}
	if cfg.Retry.Backoff <= 0 {
		cfg.Retry.Backoff = cfg.Poll
	}
	if cfg.Retry.MaxBackoff <= 0 {
		cfg.Retry.MaxBackoff = 64 * cfg.Retry.Backoff
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 250 * time.Millisecond
	}
	if cfg.TimeoutSlack <= 0 {
		cfg.TimeoutSlack = 8
	}
	if cfg.MinBatchTimeout <= 0 {
		cfg.MinBatchTimeout = 10 * cfg.Poll
	}
	if cfg.Classes == nil {
		cfg.Classes = fair.DefaultClasses()
	}

	s := &Server{
		cfg:         cfg,
		queue:       make(map[int64]*pending),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		drainDone:   make(chan struct{}),
		wake:        make(chan struct{}, 1),
		progress:    make(chan struct{}, 1),
		base:        time.Now(),
		classes:     cfg.Classes,
		tenantStats: make(map[string]*tenantCounter),
		classLat:    make(map[string]*latRing),
	}
	var weight func(string) float64
	if cfg.Registry != nil {
		weight = cfg.Registry.Weight
	}
	s.wfq = fair.NewWFQ(nil, weight) // cost = token count; only ratios matter
	s.admitBefore = utilityBefore
	if cfg.Fair {
		s.admitBefore = stampBefore
	}
	if cfg.BreakerThreshold > 0 {
		s.breaker = NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	var timeout func(*batch.Batch) time.Duration
	if cfg.PredictBatch != nil {
		timeout = func(b *batch.Batch) time.Duration {
			d := time.Duration(float64(cfg.PredictBatch(b)) * cfg.TimeoutSlack)
			if d < cfg.MinBatchTimeout {
				d = cfg.MinBatchTimeout
			}
			return d
		}
	}
	s.runner = &SupervisedRunner{Inner: cfg.Engine, Timeout: timeout, Breaker: s.breaker}
	return s, nil
}

// Start launches the serving loop.
func (s *Server) Start() { go s.loop() }

// Stop shuts the server down; queued requests fail with ErrServerClosed.
// It blocks until the loop exits. Safe to call more than once and
// concurrently with Drain.
func (s *Server) Stop() {
	s.signalStop()
	<-s.done
}

func (s *Server) signalStop() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// Drain stops accepting new submissions, serves everything already queued
// (or lets it miss its deadline), then shuts down. With a DrainTimeout
// configured, a queue that does not empty in time — a wedged engine, an
// open breaker — is failed with ErrServerClosed and Drain returns without
// waiting for an in-flight batch that may never come back.
//
// Drain is idempotent and safe to call concurrently: the first caller runs
// the drain sequence; every later caller (including callers racing the
// first) waits on the same completion — and the same DrainTimeout deadline,
// started by the first call — instead of racing the shutdown.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		go func() {
			defer close(s.drainDone)
			s.drainLoop()
		}()
	})
	<-s.drainDone
}

// drainLoop is the single drain execution behind Drain's once-gate.
func (s *Server) drainLoop() {
	var deadline <-chan time.Time
	if s.cfg.DrainTimeout > 0 {
		t := time.NewTimer(s.cfg.DrainTimeout)
		defer t.Stop()
		deadline = t.C
	}
	for {
		s.mu.Lock()
		// Under the pipeline the queue can be empty while batches are
		// still moving through the stages; wait for those too.
		empty := len(s.queue) == 0 && s.inFlight == 0
		s.mu.Unlock()
		if empty {
			break
		}
		// Wait for the loop to report progress (a finished batch or a
		// requeue notifies progress); Poll bounds the wait for progress
		// nothing signals, such as a deadline expiring in the queue.
		select {
		case <-s.progress:
		case <-time.After(s.cfg.Poll):
		case <-s.done:
			// Stopped out from under the drain (a concurrent Stop, or a
			// supervisor tearing the server down): the loop's exit failAll
			// already answered the queue; sweep anything a late requeue
			// put back and finish without waiting for in-flight work that
			// can no longer complete.
			s.failAll(ErrServerClosed)
			return
		case <-deadline:
			s.failAll(ErrServerClosed)
			s.signalStop()
			return
		}
	}
	s.Stop()
}

// SubmitOptions carries a submission's identity beyond its tokens and
// deadline. The zero value is an untagged, unclassed request — exactly what
// the plain Submit produces.
type SubmitOptions struct {
	// Tenant names who is submitting ("" = the default tenant). With
	// Config.Fair set it determines the request's WFQ queue and shed group.
	Tenant string
	// Class is the request's SLO class ("" = unclassed): its weight feeds
	// sched.Request.Utility and, when the deadline argument is <= 0, its
	// deadline default applies.
	Class string
	// PrefixLen declares that the request's first PrefixLen tokens are a
	// shared prompt prefix (0 = none; must leave a non-empty suffix). With
	// Config.PrefixCache set, a resident prefix is pinned at admission and
	// the request occupies only its suffix in the batch; a cold prefix is
	// frozen by the engine on completion for later submissions. Outputs are
	// identical either way — only the work changes.
	PrefixLen int
}

// Submit enqueues a request that must be scheduled within the given
// deadline from now. The response arrives on the returned channel exactly
// once.
func (s *Server) Submit(tokens []int, deadline time.Duration) (<-chan Response, error) {
	return s.SubmitOpts(tokens, deadline, SubmitOptions{})
}

// SubmitOpts is Submit with tenant identity, an SLO class and a declared
// shared prefix attached.
func (s *Server) SubmitOpts(tokens []int, deadline time.Duration, opt SubmitOptions) (<-chan Response, error) {
	if len(tokens) == 0 {
		return nil, fmt.Errorf("serve: empty request")
	}
	if opt.PrefixLen < 0 || opt.PrefixLen >= len(tokens) {
		return nil, fmt.Errorf("serve: declared prefix of %d tokens leaves no suffix in a %d-token request", opt.PrefixLen, len(tokens))
	}
	// Resolve the prefix before the capacity checks: a hit occupies only its
	// uncached suffix, so that is the length that must fit. The pin taken
	// here is held until the request's terminal outcome, so the entry cannot
	// be evicted under an in-flight request.
	var pin prefixcache.Handle
	cachedLen := 0
	if opt.PrefixLen > 0 && s.cfg.PrefixCache != nil {
		if pin = s.cfg.PrefixCache.Acquire(tokens, opt.PrefixLen); pin.Valid() {
			cachedLen = opt.PrefixLen
		}
	}
	reject := func(err error) (<-chan Response, error) {
		pin.Release()
		return nil, err
	}
	resident := len(tokens) - cachedLen
	if resident > s.cfg.L {
		return reject(&TooLongError{Len: resident, Limit: s.cfg.L})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.stop:
		return reject(ErrServerClosed)
	default:
	}
	if s.draining {
		return reject(ErrServerClosed)
	}
	if len(s.queue) >= s.cfg.QueueCap {
		return reject(ErrQueueFull)
	}
	if s.breaker != nil && s.breaker.State() == BreakerOpen && len(s.queue) >= s.openQueueCap() {
		return reject(ErrBreakerOpen)
	}
	var weight float64
	if opt.Class != "" {
		cls := s.classes.Lookup(opt.Class)
		weight = cls.Weight
		if deadline <= 0 {
			deadline = cls.Deadline
		}
	}
	// The scheduler sees the resident length — on a hit, packing and utility
	// already account for the work the cache saves. The request-level prefix
	// declaration survives on the pending (and, cold, on the request) so the
	// layout can rebuild the item's split.
	reqPrefix := opt.PrefixLen
	if cachedLen > 0 {
		reqPrefix = 0
	}
	s.next++
	id := s.next
	now := s.clock()
	p := &pending{
		req: &sched.Request{
			ID:        id,
			Arrival:   now,
			Deadline:  now + deadline.Seconds(),
			Len:       resident,
			Weight:    weight,
			Tenant:    opt.Tenant,
			PrefixLen: reqPrefix,
		},
		tokens:    tokens,
		out:       make(chan Response, 1),
		queued:    time.Now(),
		class:     opt.Class,
		prefixLen: opt.PrefixLen,
		cachedLen: cachedLen,
		prefix:    pin,
	}
	p.vfinish = s.wfq.Stamp(s.fairTenant(p), resident)
	s.queue[id] = p
	s.submitted++
	s.counterLocked(p).admitted++
	s.notify()
	return p.out, nil
}

// notify nudges the scheduler loop and Drain without blocking: each
// capacity-1 channel coalesces bursts into a single pending wakeup.
func (s *Server) notify() {
	for _, ch := range [...]chan struct{}{s.wake, s.progress} {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// Stats returns a snapshot of server counters.
func (s *Server) Stats() Stats {
	breakerState := "disabled"
	var trips int64
	if s.breaker != nil {
		breakerState = s.breaker.State().String()
		trips = s.breaker.Trips()
	}
	var occupancy float64
	if capTok := s.capTokenSteps.Load(); capTok > 0 {
		occupancy = 100 * float64(s.liveTokenSteps.Load()) / float64(capTok)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Submitted:     s.submitted,
		Served:        s.served,
		Missed:        s.missed,
		Failed:        s.failed,
		Queued:        len(s.queue),
		InFlight:      s.inFlight,
		Batches:       s.batches,
		Retried:       s.retried,
		Panics:        s.panics,
		Timeouts:      s.timeouts,
		Shed:          s.shed,
		BreakerTrips:  trips,
		BreakerState:  breakerState,
		ScheduleNs:    s.scheduleNs.Load(),
		ComputeNs:     s.computeNs.Load(),
		CleanupNs:     s.cleanupNs.Load(),
		StageOverruns: s.stageOverruns.Load(),
		Pipelined:     s.cfg.Pipeline,

		RefillsAdmitted:      s.refillsAdmitted.Load(),
		SegmentsRetiredEarly: s.segsRetiredEarly.Load(),
		SlotIdleSteps:        s.slotIdleSteps.Load(),
		BatchOccupancyPct:    occupancy,
		EncodedTokens:        s.encodedTokens.Load(),
		EncodedScores:        s.encodedScores.Load(),
		Refilling:            s.cfg.Refill,
		Kernels:              tensor.KernelCounters(),
		FairEnabled:          s.cfg.Fair,
	}
	if s.cfg.PrefixCache != nil {
		st.Prefix = s.cfg.PrefixCache.Stats()
		st.PrefixEnabled = true
	}
	st.Tenants, st.JainGoodput = s.tenantStatsLocked()
	st.ClassP99MS = s.classP99Locked()
	return st
}

// Health is a point-in-time serviceability summary — the body behind
// GET /healthz and the per-replica rows of a cluster's /v1/replicas.
type Health struct {
	// Serviceable reports whether a submission right now would be accepted
	// and fed to a live engine: the server is running (not draining or
	// stopped) and the circuit breaker is not open.
	Serviceable bool   `json:"serviceable"`
	State       string `json:"state"`   // "running", "draining" or "stopped"
	Breaker     string `json:"breaker"` // "closed", "open", "half-open" or "disabled"
	Queued      int    `json:"queued"`
	InFlight    int    `json:"in_flight"`
}

// Health returns the server's current serviceability. External load
// balancers (and the cluster layer's health monitor) use it to decide
// whether to route traffic here.
func (s *Server) Health() Health {
	h := Health{State: "running", Breaker: "disabled"}
	if s.breaker != nil {
		h.Breaker = s.breaker.State().String()
	}
	s.mu.Lock()
	h.Queued = len(s.queue)
	h.InFlight = s.inFlight
	draining := s.draining
	s.mu.Unlock()
	select {
	case <-s.stop:
		h.State = "stopped"
	default:
		if draining {
			h.State = "draining"
		}
	}
	h.Serviceable = h.State == "running" && h.Breaker != "open"
	return h
}

// openQueueCap is the queue bound while the breaker is open: QueueCap/8,
// at least 1.
func (s *Server) openQueueCap() int { return max(1, s.cfg.QueueCap/8) }

// clock returns seconds since server construction (the scheduler's time
// base).
func (s *Server) clock() float64 { return time.Since(s.base).Seconds() }

// backoff returns the seconds a request waits after its attempt-th failure.
func (s *Server) backoff(attempt int) float64 {
	d := s.cfg.Retry.Backoff << uint(attempt-1)
	if attempt < 1 || d <= 0 || d > s.cfg.Retry.MaxBackoff {
		d = s.cfg.Retry.MaxBackoff
	}
	return d.Seconds()
}

// clearPrefixCache drops every cached prefix at loop exit so the cache's
// device-memory charges balance to zero alongside the batch reservations.
func (s *Server) clearPrefixCache() {
	if s.cfg.PrefixCache != nil {
		s.cfg.PrefixCache.Clear()
	}
}

// selectBatch is stage A: sweep expired deadlines, consult the breaker,
// schedule, lay the decision out and stage the batch's host-side tensors.
// It returns nil when nothing is runnable. On success the chosen requests
// are running — out of the queue, members of the launch's hook — and the
// launch is counted in-flight until completeBatch.
func (s *Server) selectBatch() *launch {
	now := s.clock()
	state := BreakerClosed
	if s.breaker != nil {
		state = s.breaker.State()
	}

	s.mu.Lock()
	for _, p := range s.queue {
		if p.req.Deadline < now {
			s.finish(p, outcome{kind: missed, err: ErrDeadlineExceeded})
		}
	}
	if state == BreakerOpen {
		// Degraded service: don't feed a down engine; shed the queue down
		// to the reduced bound, keeping the highest-utility requests.
		s.shedLocked()
		s.mu.Unlock()
		return nil
	}
	if state == BreakerHalfOpen && s.inFlight > 0 {
		// Half-open admits a single probe: with the pipeline a batch may
		// still be in the stages, so hold scheduling until its outcome.
		s.mu.Unlock()
		return nil
	}
	pool := s.poolLocked(now)
	if len(pool) == 0 {
		s.mu.Unlock()
		return nil
	}
	var dec sched.Decision
	if state == BreakerHalfOpen {
		// Probe the engine with the smallest useful launch: the single
		// highest-utility request in a one-row Concat launch.
		dec = probeDecision(pool)
	} else {
		dec = s.cfg.Scheduler.Schedule(now, pool, s.cfg.B, s.cfg.L)
	}
	chosen := dec.Chosen()
	if len(chosen) == 0 {
		s.mu.Unlock()
		return nil
	}
	selected := make([]*pending, 0, len(chosen))
	tokens := make(map[int64][]int, len(chosen))
	for _, r := range chosen {
		p := s.queue[r.ID]
		selected = append(selected, p)
		tokens[r.ID] = p.tokens
		s.dispatch(p)
	}
	s.inFlight++
	s.mu.Unlock()

	// Probes stay minimal: their hook admits nothing.
	l := &launch{hook: newRefillHook(s, selected, s.cfg.Refill && state != BreakerHalfOpen)}
	l.b = s.layout(dec, selected)
	ep, err := s.cfg.Engine.Prepare(l.b, tokens)
	if err != nil {
		// Staging or memory admission failed before the engine ran: park
		// the selection for a Poll without charging an attempt. An expired
		// deadline still retires it on a later sweep. A bad token fails only
		// the request carrying it.
		park := s.clock() + s.cfg.Poll.Seconds()
		members := l.hook.close()
		var te *engine.TokenError
		s.mu.Lock()
		if errors.As(err, &te) {
			s.failBadTokens(members, te)
		} else {
			for _, p := range members {
				s.requeue(p, park, false)
			}
		}
		s.inFlight--
		s.mu.Unlock()
		s.notify()
		return nil
	}
	l.ep = ep
	return l
}

// executeBatch is stage B: the supervised engine invocation. Every launch
// runs as a persistent execution context under its hook. It is counted
// before it starts, so a response its hook delivers early already sees it
// in Stats.Batches.
func (s *Server) executeBatch(l *launch) (*engine.Report, error) {
	s.mu.Lock()
	s.batches++
	s.mu.Unlock()
	return s.runner.RunPreparedRefill(l.ep, l.hook, s.admissionBudget)
}

// completeBatch is stage C: release the batch's reservation, then settle
// every member still running — deliver its result, or charge it the failed
// attempt.
func (s *Server) completeBatch(l *launch, rep *engine.Report, err error, served time.Time) {
	// Close the hook FIRST: from here on a watchdog-abandoned engine
	// goroutine that is still stepping can no longer deliver, admit from the
	// queue, or requeue — this stage owns the launch's members now (the ones
	// still running: early retires and rejections already left the hook).
	members := l.hook.close()
	// Release the reservation BEFORE requeueing: the watchdog abandons a
	// hung run without freeing anything, so a retried batch would otherwise
	// deadlock against its own previous reservation.
	l.ep.Release()
	var byID map[int64]engine.Result
	if err == nil && rep != nil {
		s.encodedTokens.Add(rep.EncodedTokens)
		s.encodedScores.Add(rep.EncodedScores)
		if ref := rep.Refill; ref != nil {
			s.refillsAdmitted.Add(int64(ref.Admitted))
			s.segsRetiredEarly.Add(int64(ref.RetiredEarly))
			s.slotIdleSteps.Add(ref.SlotIdleSteps)
			s.liveTokenSteps.Add(ref.LiveTokenSteps)
			s.capTokenSteps.Add(ref.CapacityTokenSteps)
		}
		byID = make(map[int64]engine.Result, len(rep.Results))
		for _, r := range rep.Results {
			byID[r.ID] = r
		}
	}
	now := s.clock()
	var pe *PanicError
	s.mu.Lock()
	switch {
	case errors.As(err, &pe):
		s.panics++
	case errors.Is(err, ErrBatchTimeout):
		s.timeouts++
	}
	for _, p := range members {
		r, ok := byID[p.req.ID]
		switch {
		case errors.Is(err, ErrBreakerOpen):
			// Raced a breaker trip between the state check and the run: the
			// engine never saw the batch, so park it for the loop to
			// reconsider without consuming an attempt.
			s.requeue(p, now+s.cfg.Poll.Seconds(), false)
		case err != nil:
			s.failAttempt(p, err, now, served)
		case ok:
			s.finish(p, outcome{kind: delivered, output: r.Output, served: served})
		default:
			// The engine dropped this result. Retry it like a failed batch
			// member; its batchmates are unaffected.
			s.failAttempt(p, fmt.Errorf("serve: request %d lost by engine", p.req.ID), now, served)
		}
	}
	s.inFlight--
	s.mu.Unlock()
	s.notify()
}

// probeDecision selects the single highest-utility request as a one-row
// half-open probe.
func probeDecision(pool []*sched.Request) sched.Decision {
	best := pool[0]
	for _, r := range pool[1:] {
		if u, bu := r.Utility(), best.Utility(); u > bu || (u == bu && r.ID < best.ID) {
			best = r
		}
	}
	return sched.Decision{Rows: [][]*sched.Request{{best}}}
}

// layout converts a decision to its Concat launch. selected carries the
// pending entries for every chosen request (any order), so each item can
// restore the prefix declaration the scheduler never saw: req.Len is already
// the resident length (suffix only on a hit), so the item slots straight
// into the packed row.
func (s *Server) layout(dec sched.Decision, selected []*pending) *batch.Batch {
	byID := make(map[int64]*pending, len(selected))
	for _, p := range selected {
		byID[p.req.ID] = p
	}
	return dec.Batch(s.cfg.L, 0, func(r *sched.Request) batch.Item {
		p := byID[r.ID]
		return batch.Item{ID: r.ID, Len: r.Len, PrefixLen: p.prefixLen, CachedLen: p.cachedLen}
	})
}
