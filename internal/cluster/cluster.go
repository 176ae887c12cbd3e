// Package cluster fronts N serve.Server replicas behind one
// Submit/Drain/Stats surface: pluggable health-tiered routing (round-robin,
// least-loaded, length-affinity), a per-replica health state machine
// (healthy → degraded → ejected) driven by each replica's circuit breaker,
// its observed error rate and periodic synthetic probes, and automatic
// drain/respawn failover when a replica wedges.
//
// The contract is the zero-lost-request invariant: every submission the
// cluster accepts gets exactly one terminal outcome on its response channel
// — a result, a deadline expiry, or an explicit error (shed, closed, engine
// failure after the failover budget). A replica failing mid-request does
// not lose it: the failed attempt fails over to another replica while the
// request's deadline and the cluster's retry budget allow.
//
// Replica servers are expected to carry their own supervision stack
// (watchdog via Config.PredictBatch and a DrainTimeout): the cluster bounds
// a respawn with its own deadline, but a wedged engine with neither
// watchdog nor drain timeout can stall its server's loop forever — the
// Spawn cleanup function is the cluster's escape hatch and must release
// anything the engine is blocked on (serve.ChaosRunner.Close is the chaos
// injector's version).
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tcb/internal/engine"
	"tcb/internal/fair"
	"tcb/internal/prefixcache"
	"tcb/internal/serve"
	"tcb/internal/tensor"
)

// State is a replica's position in the cluster health state machine. The
// ordering is load-bearing: routing prefers lower states.
type State int

const (
	// Healthy replicas take normal traffic.
	Healthy State = iota
	// Degraded replicas (breaker open, or error rate over the threshold)
	// are probed and only take traffic when no healthy replica accepts.
	Degraded
	// Ejected replicas (probes keep failing) are the last resort; probes
	// continue, and persistent ejection triggers a drain/respawn.
	Ejected
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Ejected:
		return "ejected"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ErrNoReplicas is returned by Submit when no replica would accept the
// request (all respawning, or every submit refused).
var ErrNoReplicas = errors.New("cluster: no replica available")

// Spawn builds replica i: a configured, unstarted server plus a cleanup
// function run at teardown. The cleanup must release anything a wedged
// engine call is blocked on (for the chaos injector, ChaosRunner.Close);
// it may be nil. The cluster calls Start/Drain/Stop on the server itself.
type Spawn func(i int) (*serve.Server, func(), error)

// Config describes a cluster.
type Config struct {
	// Replicas is the member count; required, at least 1.
	Replicas int
	// Spawn builds each member (and rebuilds it on respawn); required.
	Spawn Spawn
	// Policy orders replicas within a health tier. Default RoundRobin.
	Policy Policy
	// MaxLen is the upper length bound LengthAffinity buckets against
	// (typically the servers' L). Zero means 512.
	MaxLen int

	// MaxFailovers caps how many times one request may be resubmitted to
	// another replica after a retryable failure. Zero means 3; negative
	// disables failover.
	MaxFailovers int

	// ProbeInterval paces the health monitor's tick (state checks, stall
	// detection, synthetic probes of non-healthy replicas). Zero means 25ms.
	ProbeInterval time.Duration
	// ProbeTokens is the synthetic probe input. Default {1, 2, 3}.
	ProbeTokens []int
	// ProbeDeadline is the probe request's scheduling deadline. Zero
	// means 250ms.
	ProbeDeadline time.Duration

	// ErrWindow sizes the per-replica sliding window of real-traffic
	// outcomes behind the error-rate degrade. Zero means 32.
	ErrWindow int
	// DegradeErrRate degrades a healthy replica when its windowed error
	// rate (with at least ErrWindow/2 samples) reaches it. Zero means 0.5.
	DegradeErrRate float64
	// EjectAfter ejects a degraded replica after that many consecutive
	// probe failures. Zero means 3.
	EjectAfter int
	// ReadmitProbes readmits an ejected replica after that many
	// consecutive probe passes (the cluster-level half-open). Zero means 2.
	ReadmitProbes int
	// RespawnAfter triggers a drain/respawn of an ejected replica after
	// that many consecutive probe failures. Zero means 6.
	RespawnAfter int

	// StallTimeout declares a replica wedged when it has work pending but
	// its terminal counters have not moved for this long, triggering a
	// drain/respawn. Zero means 1s.
	StallTimeout time.Duration
	// RespawnDeadline bounds the drain phase of a respawn; past it the old
	// server is torn down regardless. Zero means 2s.
	RespawnDeadline time.Duration

	// Limiter is the token-bucket admission front — the only admission site
	// in the stack. The HTTP handler charges it once per request before any
	// replica sees it (replica servers have no limiter, so failover
	// resubmissions are never re-charged), and Stats folds its throttle
	// counts into the tenant table. Nil admits everything.
	Limiter *fair.Limiter
	// Classes resolves SLO class deadline defaults for SubmitOpts calls that
	// pass no deadline. Nil means fair.DefaultClasses. Replica servers should
	// be configured with the same set.
	Classes *fair.ClassSet
}

// handle is one generation of a replica's server. Respawn swaps a fresh
// handle in; in-flight forwarders keep their old generation's pointer so
// cost accounting and outcome attribution stay with the server that
// actually ran the request.
type handle struct {
	srv *serve.Server
	// cost is the outstanding queued-cost routed here: tokens accepted and
	// not yet answered. LeastLoaded routes by it.
	cost      atomic.Int64
	cleanupFn func()
	once      sync.Once
}

func newHandle(srv *serve.Server, cleanup func()) *handle {
	return &handle{srv: srv, cleanupFn: cleanup}
}

// cleanup runs the spawn's teardown hook exactly once.
func (h *handle) cleanup() {
	h.once.Do(func() {
		if h.cleanupFn != nil {
			h.cleanupFn()
		}
	})
}

// replica is one cluster member. All mutable fields are guarded by the
// cluster mutex; the handle's cost is atomic.
type replica struct {
	idx int

	h          *handle
	state      State
	respawning bool
	respawns   int64

	// Probe bookkeeping: at most one probe in flight per replica;
	// consecutive fail/pass streaks drive eject/readmit/respawn.
	probing     bool
	probeFails  int
	probePasses int

	// Sliding window of real-traffic outcomes (true = error) behind the
	// error-rate degrade.
	win      []bool
	winIdx   int
	winCount int
	winErrs  int

	// Stall detection: terminal counter sum at the last tick that made
	// progress, and since when it has been frozen with work pending.
	lastTerminal int64
	stallSince   time.Time
}

func (r *replica) resetWindowLocked() {
	r.winIdx, r.winCount, r.winErrs = 0, 0, 0
}

// Cluster is a running multi-replica serving front.
type Cluster struct {
	cfg Config

	mu       sync.Mutex
	replicas []*replica

	rr     atomic.Uint64 // round-robin cursor
	nextID atomic.Int64  // cluster-level request IDs

	stop        chan struct{}
	stopOnce    sync.Once
	started     atomic.Bool
	monitorDone chan struct{}
	// wg tracks forwarders, probes and respawners so teardown can wait for
	// every outstanding goroutine.
	wg sync.WaitGroup

	submitted, delivered                        atomic.Int64
	failovers, ejections, respawns, probeFails_ atomic.Int64
}

// New validates cfg, spawns and starts all replicas, and returns an
// unmonitored cluster: call Start to launch the health monitor.
func New(cfg Config) (*Cluster, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("cluster: Replicas=%d must be at least 1", cfg.Replicas)
	}
	if cfg.Spawn == nil {
		return nil, fmt.Errorf("cluster: Spawn is required")
	}
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 512
	}
	if cfg.MaxFailovers == 0 {
		cfg.MaxFailovers = 3
	}
	if cfg.MaxFailovers < 0 {
		cfg.MaxFailovers = 0
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 25 * time.Millisecond
	}
	if len(cfg.ProbeTokens) == 0 {
		cfg.ProbeTokens = []int{1, 2, 3}
	}
	if cfg.ProbeDeadline <= 0 {
		cfg.ProbeDeadline = 250 * time.Millisecond
	}
	if cfg.ErrWindow <= 0 {
		cfg.ErrWindow = 32
	}
	if cfg.DegradeErrRate <= 0 {
		cfg.DegradeErrRate = 0.5
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = 3
	}
	if cfg.ReadmitProbes <= 0 {
		cfg.ReadmitProbes = 2
	}
	if cfg.RespawnAfter <= 0 {
		cfg.RespawnAfter = 6
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = time.Second
	}
	if cfg.RespawnDeadline <= 0 {
		cfg.RespawnDeadline = 2 * time.Second
	}
	if cfg.Classes == nil {
		cfg.Classes = fair.DefaultClasses()
	}

	c := &Cluster{
		cfg:         cfg,
		stop:        make(chan struct{}),
		monitorDone: make(chan struct{}),
	}
	for i := 0; i < cfg.Replicas; i++ {
		srv, cleanup, err := cfg.Spawn(i)
		if err != nil {
			for _, r := range c.replicas {
				r.h.srv.Stop()
				r.h.cleanup()
			}
			return nil, fmt.Errorf("cluster: spawn replica %d: %w", i, err)
		}
		srv.Start()
		c.replicas = append(c.replicas, &replica{
			idx: i,
			h:   newHandle(srv, cleanup),
			win: make([]bool, cfg.ErrWindow),
		})
	}
	return c, nil
}

// Start launches the health monitor (state machine ticks, stall detection,
// synthetic probes, respawn triggers). Replica servers are already running
// from New; without Start the cluster still routes and fails over, but
// nothing degrades, ejects or respawns.
func (c *Cluster) Start() {
	if c.started.CompareAndSwap(false, true) {
		go c.monitor()
	}
}

// flight is one accepted submission moving through (possibly several)
// replica attempts until a terminal outcome. opt (tenant, SLO class) rides
// along so every failover attempt carries the same identity — a resubmitted
// request lands in the next replica's fair queue under its own tenant.
type flight struct {
	id       int64
	tokens   []int
	opt      serve.SubmitOptions
	queued   time.Time
	deadline time.Time
	out      chan serve.Response
	attempts int
	tried    map[int]bool
}

// Submit routes a request to a replica and returns a channel that delivers
// exactly one terminal outcome: a result, a deadline expiry, or an error
// after the failover budget is spent. A synchronous error means no replica
// accepted the request (it was never enqueued anywhere).
func (c *Cluster) Submit(tokens []int, deadline time.Duration) (<-chan serve.Response, error) {
	return c.SubmitOpts(tokens, deadline, serve.SubmitOptions{})
}

// SubmitOpts is Submit with tenant identity and an SLO class attached; both
// survive routing and failover.
func (c *Cluster) SubmitOpts(tokens []int, deadline time.Duration, opt serve.SubmitOptions) (<-chan serve.Response, error) {
	select {
	case <-c.stop:
		return nil, serve.ErrServerClosed
	default:
	}
	if deadline <= 0 && opt.Class != "" {
		// Resolve the class's deadline default here so the flight's own
		// failover deadline matches what the replica applies.
		deadline = c.cfg.Classes.Lookup(opt.Class).Deadline
	}
	r, h, ch, err := c.trySubmit(tokens, deadline, opt, nil)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	f := &flight{
		id:       c.nextID.Add(1),
		tokens:   tokens,
		opt:      opt,
		queued:   now,
		deadline: now.Add(deadline),
		out:      make(chan serve.Response, 1),
		attempts: 1,
		tried:    make(map[int]bool, 2),
	}
	c.submitted.Add(1)
	c.wg.Add(1)
	go c.forward(f, r, h, ch)
	return f.out, nil
}

// trySubmit offers the request to replicas in routing order and returns the
// first acceptor. Replicas in tried are deprioritized (second pass only) so
// a failover lands somewhere new when anywhere new will take it. A
// non-retryable submit error (validation: empty or too long) returns
// immediately — no replica with the same config would accept it either.
func (c *Cluster) trySubmit(tokens []int, deadline time.Duration, opt serve.SubmitOptions, tried map[int]bool) (*replica, *handle, <-chan serve.Response, error) {
	cands := c.order(len(tokens))
	lastErr := error(ErrNoReplicas)
	for pass := 0; pass < 2; pass++ {
		for _, cand := range cands {
			if tried[cand.r.idx] != (pass == 1) {
				continue
			}
			ch, err := cand.h.srv.SubmitOpts(tokens, deadline, opt)
			if err == nil {
				cand.h.cost.Add(int64(len(tokens)))
				return cand.r, cand.h, ch, nil
			}
			if !retryableSubmit(err) {
				return nil, nil, nil, err
			}
			lastErr = err
		}
		if len(tried) == 0 {
			break
		}
	}
	return nil, nil, nil, lastErr
}

// retryableSubmit reports whether a Submit refusal is about the replica
// (try another) rather than the request (give up).
func retryableSubmit(err error) bool {
	return errors.Is(err, serve.ErrQueueFull) ||
		errors.Is(err, serve.ErrBreakerOpen) ||
		errors.Is(err, serve.ErrServerClosed)
}

// terminalOutcome reports whether a response ends the flight: success, the
// request's own deadline, or a validation error (too long, a token outside
// the vocabulary). Everything else — engine errors, panics, watchdog
// timeouts, shed, server closed — is the replica's fault and eligible for
// failover.
func terminalOutcome(err error) bool {
	if err == nil || errors.Is(err, serve.ErrDeadlineExceeded) {
		return true
	}
	var tl *serve.TooLongError
	var te *engine.TokenError
	return errors.As(err, &tl) || errors.As(err, &te)
}

// forward proxies one replica attempt's response to the flight's caller,
// failing the attempt over to another replica while the deadline and the
// failover budget allow. Every path delivers exactly one response.
func (c *Cluster) forward(f *flight, r *replica, h *handle, ch <-chan serve.Response) {
	defer c.wg.Done()
	for {
		resp := <-ch
		h.cost.Add(-int64(len(f.tokens)))
		c.noteOutcome(r, h, resp.Err)
		if terminalOutcome(resp.Err) {
			c.deliver(f, resp)
			return
		}
		f.tried[r.idx] = true
		if time.Now().After(f.deadline) {
			// The replica's failure consumed the request's whole deadline:
			// the honest terminal outcome is an expiry, not a failover.
			c.deliver(f, serve.Response{Err: serve.ErrDeadlineExceeded, Queued: f.queued, Served: time.Now()})
			return
		}
		if f.attempts > c.cfg.MaxFailovers {
			c.deliver(f, resp)
			return
		}
		nr, nh, nch, err := c.trySubmit(f.tokens, time.Until(f.deadline), f.opt, f.tried)
		if err != nil {
			// Nowhere to fail over to; the engine error is the outcome.
			c.deliver(f, resp)
			return
		}
		f.attempts++
		c.failovers.Add(1)
		r, h, ch = nr, nh, nch
	}
}

func (c *Cluster) deliver(f *flight, resp serve.Response) {
	resp.ID = f.id
	f.out <- resp
	c.delivered.Add(1)
}

// noteOutcome records a real-traffic outcome in the replica's error window
// and degrades it when the windowed error rate crosses the threshold.
// Terminal outcomes — deadline expiries, bad tokens — are the request's
// fault, not the replica's.
func (c *Cluster) noteOutcome(r *replica, h *handle, err error) {
	isErr := !terminalOutcome(err)
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.h != h {
		return // outcome from a pre-respawn generation
	}
	if r.winCount == len(r.win) {
		if r.win[r.winIdx] {
			r.winErrs--
		}
	} else {
		r.winCount++
	}
	r.win[r.winIdx] = isErr
	if isErr {
		r.winErrs++
	}
	r.winIdx = (r.winIdx + 1) % len(r.win)
	if r.state == Healthy && r.winCount >= len(r.win)/2 &&
		float64(r.winErrs) >= c.cfg.DegradeErrRate*float64(r.winCount) {
		r.state = Degraded
		r.probeFails, r.probePasses = 0, 0
	}
}

// Drain stops the monitor, drains every replica (each under its own
// DrainTimeout), waits for all outstanding flights to deliver, and tears
// the cluster down. Idempotent, and safe to interleave with Stop.
func (c *Cluster) Drain() { c.teardown(true) }

// Stop tears the cluster down immediately: queued requests fail with
// ErrServerClosed, every replica is stopped and cleaned up, and all
// forwarder/probe/respawn goroutines are waited out.
func (c *Cluster) Stop() { c.teardown(false) }

func (c *Cluster) teardown(drain bool) {
	c.stopOnce.Do(func() { close(c.stop) })
	if c.started.Load() {
		<-c.monitorDone
	}
	// Two passes: the first drains/stops the handles visible now; a
	// respawner racing teardown may still swap a fresh handle in before it
	// observes the stop, so after the goroutine wait a second pass stops
	// any straggler. Both serve calls and cleanup are idempotent.
	for pass := 0; pass < 2; pass++ {
		c.mu.Lock()
		handles := make([]*handle, 0, len(c.replicas))
		for _, r := range c.replicas {
			handles = append(handles, r.h)
		}
		c.mu.Unlock()
		var wg sync.WaitGroup
		for _, h := range handles {
			wg.Add(1)
			go func(h *handle) {
				defer wg.Done()
				if drain && pass == 0 {
					h.srv.Drain()
				} else {
					h.srv.Stop()
				}
				h.cleanup()
			}(h)
		}
		wg.Wait()
		if pass == 0 {
			c.wg.Wait()
		}
	}
}

// Stats is a point-in-time snapshot of cluster counters and per-replica
// detail.
type Stats struct {
	Submitted int64 `json:"submitted"` // accepted submissions
	Delivered int64 `json:"delivered"` // terminal outcomes handed to callers

	Failovers     int64 `json:"failovers"`      // attempts resubmitted to another replica
	Ejections     int64 `json:"ejections"`      // degraded→ejected transitions
	Respawns      int64 `json:"respawns"`       // completed replica respawns
	ProbeFailures int64 `json:"probe_failures"` // failed synthetic probes

	// Kernels snapshots the process-wide GEMM dispatch counters exactly once
	// for the whole cluster. The per-replica serve.Stats rows each repeat
	// the same process totals (the counters are global, not per-server);
	// this field is the one to read.
	Kernels tensor.KernelCounts `json:"kernels"`

	// Prefix sums each replica's prefix-cache counters — the caches are
	// per-replica (a respawn starts cold), so the cluster view is additive.
	// HitRate is recomputed over the summed hit/miss totals. Zero when no
	// replica has a cache attached.
	Prefix        prefixcache.Stats `json:"prefix"`
	PrefixEnabled bool              `json:"prefix_enabled"`

	// Tenants sums each tenant's terminal outcomes across replicas, with
	// the cluster-level limiter's throttle counts folded in; JainGoodput is
	// Jain's index over the summed per-tenant deliveries.
	Tenants     map[string]serve.TenantStats `json:"tenants,omitempty"`
	JainGoodput float64                      `json:"jain_goodput"`

	Replicas []ReplicaStats `json:"replicas"`
}

// ReplicaStats is one member's row in Stats.
type ReplicaStats struct {
	Index      int          `json:"index"`
	State      string       `json:"state"` // healthy/degraded/ejected, or respawning
	Respawns   int64        `json:"respawns"`
	QueuedCost int64        `json:"queued_cost"`
	Health     serve.Health `json:"health"`
	Stats      serve.Stats  `json:"stats"`
}

// Stats returns a snapshot of cluster counters and per-replica state.
func (c *Cluster) Stats() Stats {
	st := Stats{
		Submitted:     c.submitted.Load(),
		Delivered:     c.delivered.Load(),
		Failovers:     c.failovers.Load(),
		Ejections:     c.ejections.Load(),
		Respawns:      c.respawns.Load(),
		ProbeFailures: c.probeFails_.Load(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.replicas {
		state := r.state.String()
		if r.respawning {
			state = "respawning"
		}
		st.Replicas = append(st.Replicas, ReplicaStats{
			Index:      r.idx,
			State:      state,
			Respawns:   r.respawns,
			QueuedCost: r.h.cost.Load(),
			Health:     r.h.srv.Health(),
			Stats:      r.h.srv.Stats(),
		})
	}
	st.Tenants, st.JainGoodput = c.tenantTotals(st.Replicas)
	st.Kernels = tensor.KernelCounters()
	st.Prefix, st.PrefixEnabled = prefixTotals(st.Replicas)
	return st
}

// prefixTotals sums per-replica prefix-cache counters and recomputes the
// aggregate hit rate.
func prefixTotals(rows []ReplicaStats) (prefixcache.Stats, bool) {
	var agg prefixcache.Stats
	enabled := false
	for _, row := range rows {
		if !row.Stats.PrefixEnabled {
			continue
		}
		enabled = true
		p := row.Stats.Prefix
		agg.Hits += p.Hits
		agg.Misses += p.Misses
		agg.Inserts += p.Inserts
		agg.Evictions += p.Evictions
		agg.Rejected += p.Rejected
		agg.TokensSaved += p.TokensSaved
		agg.LateHits += p.LateHits
		agg.LateTokensSaved += p.LateTokensSaved
		agg.RoundShared += p.RoundShared
		agg.RoundSharedTokensSaved += p.RoundSharedTokensSaved
		agg.ResidentBytes += p.ResidentBytes
		agg.Entries += p.Entries
	}
	if total := agg.Hits + agg.Misses; total > 0 {
		agg.HitRate = float64(agg.Hits) / float64(total)
	}
	return agg, enabled
}

// tenantTotals sums per-tenant outcomes across replica rows and folds in
// the cluster limiter's throttles. Per-replica Throttled is ignored —
// replicas carry no limiter of their own; admission control happens once,
// at this front.
func (c *Cluster) tenantTotals(rows []ReplicaStats) (map[string]serve.TenantStats, float64) {
	lim := c.cfg.Limiter.Counts()
	total := make(map[string]serve.TenantStats)
	for _, row := range rows {
		for name, t := range row.Stats.Tenants {
			agg := total[name]
			agg.Admitted += t.Admitted
			agg.Delivered += t.Delivered
			agg.Missed += t.Missed
			agg.Failed += t.Failed
			agg.Shed += t.Shed
			total[name] = agg
		}
	}
	for name, cnt := range lim {
		agg := total[name]
		agg.Throttled = cnt.Throttled
		total[name] = agg
	}
	if len(total) == 0 {
		return nil, 1
	}
	goodput := make(map[string]int64, len(total))
	for name, t := range total {
		goodput[name] = t.Delivered
	}
	return total, fair.JainIndexMap(goodput)
}

// Health summarizes cluster serviceability for GET /healthz.
type Health struct {
	// Serviceable reports whether at least one replica is fully
	// serviceable (running, breaker not open). A false cluster may still
	// accept traffic through degraded/ejected replicas — under their own
	// shedding — but an external balancer should rotate it out.
	Serviceable bool            `json:"serviceable"`
	Healthy     int             `json:"healthy"`
	Degraded    int             `json:"degraded"`
	Ejected     int             `json:"ejected"`
	Respawning  int             `json:"respawning"`
	Replicas    []ReplicaHealth `json:"replicas"`
}

// ReplicaHealth is one member's row in Health.
type ReplicaHealth struct {
	Index      int          `json:"index"`
	State      string       `json:"state"`
	Respawning bool         `json:"respawning"`
	Health     serve.Health `json:"health"`
}

// Health returns the cluster's current serviceability.
func (c *Cluster) Health() Health {
	var h Health
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.replicas {
		rh := ReplicaHealth{Index: r.idx, State: r.state.String(), Respawning: r.respawning}
		rh.Health = r.h.srv.Health()
		if r.respawning {
			h.Respawning++
		} else {
			switch r.state {
			case Healthy:
				h.Healthy++
			case Degraded:
				h.Degraded++
			default:
				h.Ejected++
			}
			if r.state == Healthy && rh.Health.Serviceable {
				h.Serviceable = true
			}
		}
		h.Replicas = append(h.Replicas, rh)
	}
	return h
}
