// Command tcb-serve runs the real TCB online stack — cluster front →
// supervised servers → Go transformer engine — against a synthetic request
// stream and prints end-to-end statistics: a miniature live version of the
// paper's serving experiments.
//
//	tcb-serve [-n 64] [-rate 30] [-scheduler das] [-deadline 2s]
//	tcb-serve -replicas 3 -route least ...    # three replicas behind the front
//	tcb-serve -chaos err=0.2,panic=0.05 ...   # deterministic fault injection
//	tcb-serve -tenants "free:1,premium:4" ... # weighted fair queueing
//	tcb-serve -http :8080 ...                 # serve HTTP until interrupted
//
// There is one way in: a cluster.Cluster of -replicas members (default 1)
// fronts the servers, so every run gets health-checked routing, failover,
// respawn and the same zero-lost accounting check, whatever N is. README.md
// has the flag tables.
//
// HTTP mode (tenant on the X-Tenant header, SLO class in the body; a dry
// -tenants/-bucket-rate admission bucket answers 429 + Retry-After):
//
//	POST /v1/infer {"tokens": [5,6,7], "deadline_ms": 500, "class": "interactive"}
//	GET  /v1/stats      (cluster.Stats; per-server counters under replicas[i].stats)
//	GET  /v1/replicas
//	GET  /healthz
//
// The -chaos spec wraps engines in a seeded serve.ChaosRunner
// (err/panic/slow/lose/killafter/wedgeafter); the supervision stack must
// keep the process alive and serving through every injected fault, which is
// what this package's TestRunMatrix asserts. -chaos-target narrows the
// injection to one member; either way only a member's first engine
// generation is faulty — respawned replacements come up clean — so a run
// can kill or wedge a replica and prove the cluster recovers without losing
// a request.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"tcb/internal/batch"
	"tcb/internal/cluster"
	"tcb/internal/engine"
	"tcb/internal/fair"
	"tcb/internal/gpu"
	"tcb/internal/model"
	"tcb/internal/prefixcache"
	"tcb/internal/rng"
	"tcb/internal/sched"
	"tcb/internal/serve"
	"tcb/internal/stats"
	"tcb/internal/vocab"
)

// Fixed geometry of the demo stack.
const (
	batchRows   = 8   // B
	rowCapacity = 100 // L
	vocabSize   = 256

	// The demo stream's shared prompts under -prefix-cache: how many distinct
	// ones, how long, and the probability a request carries one.
	prefixPool  = 4
	prefixLen   = 12
	prefixReuse = 0.75
)

// options is the parsed command line, one field per flag.
type options struct {
	n, dmodel, maxNew, retries, breaker int
	replicas, chaosTarget               int
	rate, bucketRate, bucketBurst       float64
	seed                                uint64
	prefixBudget                        int64
	pipeline, refill, prefixCache       bool
	deadline, batchTimeout              time.Duration
	stallTimeout, respawnDeadline       time.Duration
	httpAddr, scheduler                 string
	chaos, route, tenants, classes      string
}

// parseFlags exits on a malformed command line (flag.ExitOnError).
func parseFlags(args []string) options {
	var o options
	fs := flag.NewFlagSet("tcb-serve", flag.ExitOnError)
	fs.IntVar(&o.n, "n", 64, "number of requests to send")
	fs.Float64Var(&o.rate, "rate", 30, "arrival rate (req/s)")
	fs.StringVar(&o.scheduler, "scheduler", "das", "das|fcfs|sjf|def")
	fs.DurationVar(&o.deadline, "deadline", 2*time.Second, "per-request deadline")
	fs.StringVar(&o.httpAddr, "http", "", "serve HTTP on this address instead of running the batch demo")
	fs.IntVar(&o.dmodel, "dmodel", 64, "model width")
	fs.IntVar(&o.maxNew, "maxnew", 4, "generated tokens per request")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.StringVar(&o.chaos, "chaos", "", "fault injection spec, e.g. err=0.2,panic=0.05,slow=0.1:50ms,lose=0.02,killafter=20,seed=7")
	fs.IntVar(&o.retries, "retries", 3, "engine attempts per request (1 disables retry)")
	fs.IntVar(&o.breaker, "breaker", 5, "consecutive failures tripping the circuit breaker (<0 disables)")
	fs.DurationVar(&o.batchTimeout, "batch-timeout", 0, "fixed per-batch watchdog budget (0 disables)")
	fs.BoolVar(&o.pipeline, "pipeline", false, "overlap scheduling/layout/cleanup with compute (three-stage pipeline)")
	fs.BoolVar(&o.refill, "refill", false, "continuous batching: refill freed batch slots from the queue between decode steps")
	fs.IntVar(&o.replicas, "replicas", 1, "cluster members behind the front (health-checked routing, failover and respawn at any N)")
	fs.StringVar(&o.route, "route", "rr", "cluster routing policy: rr|least|length")
	fs.IntVar(&o.chaosTarget, "chaos-target", -1, "replica index the -chaos spec applies to (-1 = every replica)")
	fs.DurationVar(&o.stallTimeout, "stall-timeout", time.Second, "cluster watchdog: respawn a replica with pending work but no progress for this long")
	fs.DurationVar(&o.respawnDeadline, "respawn-deadline", 2*time.Second, "bound on a wedged replica's drain before it is torn down")
	fs.StringVar(&o.tenants, "tenants", "", "tenant provisioning name[:weight[:rate[:burst]]],...; turns on weighted fair queueing and the demo stream round-robins over them")
	fs.StringVar(&o.classes, "slo-classes", "", "SLO class overrides name:weight:deadline,... (default interactive/standard/batch tiers)")
	fs.Float64Var(&o.bucketRate, "bucket-rate", 0, "default admission bucket refill (request tokens/s) for tenants without their own (0 = unlimited)")
	fs.Float64Var(&o.bucketBurst, "bucket-burst", 0, "default admission bucket capacity in request tokens (0 = the rate)")
	fs.BoolVar(&o.prefixCache, "prefix-cache", false, "prefix sharing: encode shared prompt prefixes once and reuse their frozen KV across requests")
	fs.Int64Var(&o.prefixBudget, "prefix-budget", 0, "prefix cache resident-byte budget (0 = unbounded)")
	_ = fs.Parse(args) // ExitOnError: never returns an error
	return o
}

func main() {
	if err := run(parseFlags(os.Args[1:]), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run builds the stack, serves HTTP or replays the demo stream, prints the
// report to w and returns the run's verdict: nil, or the reason the process
// should exit non-zero.
func run(o options, w io.Writer) error {
	st, err := build(o)
	if err != nil {
		return err
	}
	if o.httpAddr != "" {
		fmt.Fprintf(w, "serving HTTP on %s (%s)\n", o.httpAddr, st.banner)
		hs := &http.Server{
			Addr:              o.httpAddr,
			Handler:           cluster.NewHTTPHandler(st.cluster),
			ReadHeaderTimeout: 5 * time.Second,  // slowloris bound
			ReadTimeout:       30 * time.Second, // full-request bound
		}
		err := hs.ListenAndServe()
		st.cluster.Stop()
		return err
	}
	rep := st.demo(o)
	fmt.Fprintln(w, st.banner)
	rep.print(w)
	return rep.verdict()
}

// stack is the built serving system plus the per-engine-generation
// bookkeeping the report reads back.
type stack struct {
	cluster *cluster.Cluster
	banner  string
	tenants []string // demo-stream rotation; empty = untagged traffic

	// mu guards the slices below: Spawn appends from the cluster's respawn
	// goroutines.
	mu sync.Mutex
	// chaosRunners is every injector built, so the report can sum fault counts.
	chaosRunners []*serve.ChaosRunner
	// prefixMems is one device-byte ledger per engine generation's prefix
	// cache, so the post-drain balance check can prove no cache bytes leaked
	// — even across chaos respawns.
	prefixMems []*gpu.MemoryManager
}

// The -scheduler names (the schedulers are stateless, so replicas share one).
var schedulers = map[string]sched.Scheduler{
	"das": sched.NewDAS(), "fcfs": sched.FCFS{}, "sjf": sched.SJF{}, "def": sched.DEF{},
}

func build(o options) (*stack, error) {
	scheduler, ok := schedulers[o.scheduler]
	if !ok {
		return nil, fmt.Errorf("unknown scheduler %q", o.scheduler)
	}
	chaosCfg, err := serve.ParseChaos(o.chaos)
	if err != nil {
		return nil, err
	}
	policy, err := cluster.ParsePolicy(o.route)
	if err != nil {
		return nil, err
	}
	tenantCfgs, err := fair.ParseTenants(o.tenants)
	if err != nil {
		return nil, err
	}
	var registry *fair.Registry
	var limiter *fair.Limiter
	if len(tenantCfgs) > 0 || o.bucketRate > 0 || o.bucketBurst > 0 {
		registry = fair.NewRegistry(tenantCfgs...)
		registry.DefaultRate = o.bucketRate
		registry.DefaultBurst = o.bucketBurst
		limiter = fair.NewLimiter(registry)
	}
	var classes *fair.ClassSet
	if o.classes != "" {
		if classes, err = fair.ParseClasses(o.classes); err != nil {
			return nil, err
		}
	}

	st := &stack{
		tenants: registry.Names(),
		banner: fmt.Sprintf("replicas=%d route=%s scheduler=%s dmodel=%d",
			o.replicas, policy, scheduler.Name(), o.dmodel),
	}
	modelCfg := model.Config{
		VocabSize: vocabSize, DModel: o.dmodel, NumHeads: 4, DFF: 2 * o.dmodel,
		EncLayers: 2, DecLayers: 2, MaxLen: 512, Eps: 1e-5,
	}
	gens := make(map[int]int) // engine generations built per replica (guarded by st.mu)

	// spawn builds one engine + supervision stack; the cluster calls it once
	// per replica generation. Chaos applies only to the first generation of
	// the targeted replica(s): a respawned replacement comes up clean, which
	// is what lets the kill/wedge runs prove recovery.
	spawn := func(i int) (*serve.Server, func(), error) {
		eng := engine.New(model.New(modelCfg, 42), o.maxNew)

		st.mu.Lock()
		defer st.mu.Unlock()
		var pc *prefixcache.Cache
		if o.prefixCache {
			// The same cache serves both halves: the server pins and clears,
			// the engine reads and inserts. Charging a dedicated memory
			// manager keeps the cache's device accounting checkable without
			// imposing an admission budget on the demo's engine.
			mem := gpu.NewMemoryManager(0)
			pc = prefixcache.New(o.prefixBudget, mem)
			eng.PrefixCache = pc
			st.prefixMems = append(st.prefixMems, mem)
		}
		var runner serve.Runner = eng
		var cleanup func()
		gen := gens[i]
		gens[i]++
		if chaosCfg.Enabled() && gen == 0 && (o.chaosTarget < 0 || o.chaosTarget == i) {
			chaos := serve.NewChaosRunner(eng, chaosCfg)
			runner, cleanup = chaos, chaos.Close // Close releases wedged engine calls on teardown
			st.chaosRunners = append(st.chaosRunners, chaos)
		}
		cfg := serve.Config{
			Engine: runner, Scheduler: scheduler, Scheme: batch.Concat,
			B: batchRows, L: rowCapacity,
			Retry:            serve.RetryPolicy{MaxAttempts: o.retries},
			BreakerThreshold: o.breaker,
			DrainTimeout:     30 * time.Second,
			Pipeline:         o.pipeline,
			Refill:           o.refill,
			Fair:             len(tenantCfgs) > 0,
			Registry:         registry,
			Classes:          classes,
			PrefixCache:      pc,
		}
		if fixed := o.batchTimeout; fixed > 0 {
			// A flat budget: PredictBatch exists for calibrated cost-model
			// predictions, and a CLI run has no calibration pass. The
			// pipeline's non-compute stages are each expected well inside a
			// quarter of it; past that they count as stage overruns.
			cfg.PredictBatch = func(*batch.Batch) time.Duration { return fixed }
			cfg.TimeoutSlack = 1
			cfg.MinBatchTimeout = fixed
			if o.pipeline {
				cfg.PredictStages = func(*batch.Batch) (time.Duration, time.Duration) {
					return fixed / 4, fixed / 4
				}
			}
		}
		srv, err := serve.New(cfg)
		return srv, cleanup, err
	}

	st.cluster, err = cluster.New(cluster.Config{
		Replicas: o.replicas, Spawn: spawn, Policy: policy,
		MaxLen:          rowCapacity,
		StallTimeout:    o.stallTimeout,
		RespawnDeadline: o.respawnDeadline,
		Limiter:         limiter,
		Classes:         classes,
	})
	if err != nil {
		return nil, err
	}
	st.cluster.Start()
	return st, nil
}

// report is everything one demo run observed; print renders it and verdict
// decides the exit status.
type report struct {
	sent, rejected         int
	served, missed, failed int
	elapsed                time.Duration
	latencyMS              stats.Sample
	stats                  cluster.Stats
	chaos                  serve.ChaosCounts
	chaosOn                bool
	prefixBalanced         bool
}

// demo replays the synthetic stream through the front, waits for every
// outcome, drains the stack and collects the report.
func (st *stack) demo(o options) *report {
	src := rng.New(o.seed)
	var prefixes [][]int
	if o.prefixCache {
		// Drawn only when on, so the default stream is the same with or
		// without the flag compiled in.
		prefixes = make([][]int, prefixPool)
		for i := range prefixes {
			prefixes[i] = randTokens(src, prefixLen)
		}
	}
	rep := &report{}
	var outs []<-chan serve.Response
	start := time.Now()
	for i := 0; i < o.n; i++ {
		tokens := randTokens(src, src.TruncatedNormalInt(20, 4.5, 3, rowCapacity))
		var opt serve.SubmitOptions
		if len(st.tenants) > 0 {
			opt.Tenant = st.tenants[i%len(st.tenants)]
		}
		if len(prefixes) > 0 && src.Float64() < prefixReuse {
			// Prepend a shared prompt, truncating the suffix so the request
			// still fits the row.
			pfx := prefixes[src.Intn(len(prefixes))]
			if max := rowCapacity - len(pfx); len(tokens) > max {
				tokens = tokens[:max]
			}
			tokens = append(append(make([]int, 0, len(pfx)+len(tokens)), pfx...), tokens...)
			opt.PrefixLen = len(pfx)
		}
		if ch, err := st.cluster.SubmitOpts(tokens, o.deadline, opt); err != nil {
			rep.rejected++
		} else {
			rep.sent++
			outs = append(outs, ch)
		}
		// Arrivals are paced whether or not the front took the last one: a
		// refusing stack must not turn the stream into a burst.
		time.Sleep(time.Duration(src.Exp(o.rate) * float64(time.Second)))
	}
	for _, ch := range outs {
		resp := <-ch
		switch {
		case errors.Is(resp.Err, serve.ErrDeadlineExceeded):
			rep.missed++
		case resp.Err != nil:
			rep.failed++
		default:
			rep.served++
			rep.latencyMS.Add(resp.Served.Sub(resp.Queued).Seconds() * 1000)
		}
	}
	rep.elapsed = time.Since(start)
	st.cluster.Drain()
	rep.stats = st.cluster.Stats()

	st.mu.Lock()
	defer st.mu.Unlock()
	rep.chaosOn = len(st.chaosRunners) > 0
	for _, ch := range st.chaosRunners {
		c := ch.Counts()
		rep.chaos.Errs += c.Errs
		rep.chaos.Panics += c.Panics
		rep.chaos.Slows += c.Slows
		rep.chaos.Lost += c.Lost
		rep.chaos.Kills += c.Kills
		rep.chaos.Wedges += c.Wedges
	}
	rep.prefixBalanced = true
	for _, m := range st.prefixMems {
		if m.Used() != 0 || m.Outstanding() != 0 {
			rep.prefixBalanced = false
		}
	}
	return rep
}

func randTokens(src *rng.Source, n int) []int {
	tokens := make([]int, n)
	for i := range tokens {
		tokens[i] = src.IntRange(vocab.FirstWordID, vocabSize-1)
	}
	return tokens
}

func (r *report) print(w io.Writer) {
	st := r.stats
	fmt.Fprintf(w, "sent=%d rejected=%d served=%d deadline-missed=%d failed=%d\n",
		r.sent, r.rejected, r.served, r.missed, r.failed)
	fmt.Fprintf(w, "wall=%.2fs throughput=%.1f resp/s\n", r.elapsed.Seconds(), float64(r.served)/r.elapsed.Seconds())
	if r.latencyMS.N() > 0 {
		fmt.Fprintf(w, "latency ms: p50=%.1f p95=%.1f p99=%.1f\n",
			r.latencyMS.Percentile(50), r.latencyMS.Percentile(95), r.latencyMS.Percentile(99))
	}
	fmt.Fprintf(w, "lifecycle: submitted=%d delivered=%d failovers=%d ejections=%d respawns=%d probe-failures=%d\n",
		st.Submitted, st.Delivered, st.Failovers, st.Ejections, st.Respawns, st.ProbeFailures)
	for _, rs := range st.Replicas {
		s := rs.Stats
		fmt.Fprintf(w, "  replica %d: state=%s respawns=%d served=%d failed=%d retried=%d panics=%d timeouts=%d shed=%d breaker=%s trips=%d\n",
			rs.Index, rs.State, rs.Respawns, s.Served, s.Failed, s.Retried, s.Panics, s.Timeouts, s.Shed, s.BreakerState, s.BreakerTrips)
		fmt.Fprintf(w, "    stages (pipelined=%v): schedule=%.1fms compute=%.1fms cleanup=%.1fms overruns=%d\n",
			s.Pipelined, float64(s.ScheduleNs)/1e6, float64(s.ComputeNs)/1e6, float64(s.CleanupNs)/1e6, s.StageOverruns)
		fmt.Fprintf(w, "    encoded: tokens=%d scores=%d\n", s.EncodedTokens, s.EncodedScores)
		if s.Refilling {
			fmt.Fprintf(w, "    refill: admitted=%d retired-early=%d occupancy=%.0f%% slot-idle-steps=%d\n",
				s.RefillsAdmitted, s.SegmentsRetiredEarly, s.BatchOccupancyPct, s.SlotIdleSteps)
		}
	}
	fmt.Fprintf(w, "kernels: wide=%d isa=%s\n", st.Kernels.Wide, st.Kernels.ISA)
	if st.PrefixEnabled {
		p := st.Prefix
		fmt.Fprintf(w, "prefix (live generations): hits=%d misses=%d hit-rate=%.0f%% tokens-saved=%d inserts=%d evictions=%d ledgers-balanced=%v\n",
			p.Hits, p.Misses, 100*p.HitRate, p.TokensSaved, p.Inserts, p.Evictions, r.prefixBalanced)
	}
	fmt.Fprintf(w, "fairness: jain=%.3f\n", st.JainGoodput)
	names := make([]string, 0, len(st.Tenants))
	for name := range st.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := st.Tenants[name]
		fmt.Fprintf(w, "  tenant %s: admitted=%d throttled=%d delivered=%d missed=%d failed=%d shed=%d\n",
			name, ts.Admitted, ts.Throttled, ts.Delivered, ts.Missed, ts.Failed, ts.Shed)
	}
	if r.chaosOn {
		c := r.chaos
		fmt.Fprintf(w, "chaos injected: errs=%d panics=%d slows=%d lost=%d kills=%d wedges=%d\n",
			c.Errs, c.Panics, c.Slows, c.Lost, c.Kills, c.Wedges)
	}
}

// verdict is the run's pass/fail decision. Every run must balance its books:
// each accepted request got exactly one terminal outcome (the zero-lost
// invariant, counter-verified) and the prefix caches returned every device
// byte. Under injected faults some requests legitimately fail, so the pass
// condition is surviving and still serving; without chaos any failure fails
// the run.
func (r *report) verdict() error {
	st := r.stats
	switch {
	case st.Delivered != st.Submitted:
		return fmt.Errorf("LOST REQUESTS: submitted=%d delivered=%d", st.Submitted, st.Delivered)
	case int64(r.sent) != st.Submitted:
		return fmt.Errorf("accounting mismatch: sent=%d submitted=%d", r.sent, st.Submitted)
	case !r.prefixBalanced:
		return fmt.Errorf("prefix cache leaked device bytes after drain")
	case r.chaosOn && r.sent > 0 && r.served == 0:
		return fmt.Errorf("chaos run served nothing")
	case !r.chaosOn && r.failed > 0:
		return fmt.Errorf("%d requests failed without injected faults", r.failed)
	}
	return nil
}
