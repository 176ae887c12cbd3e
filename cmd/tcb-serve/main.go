// Command tcb-serve runs the real TCB online server (goroutine pipeline +
// Go transformer engine) against a synthetic request stream and prints
// end-to-end statistics: a miniature live version of the paper's serving
// experiments.
//
// Usage:
//
//	tcb-serve [-n 64] [-rate 30] [-scheduler das|slotted|fcfs|sjf|def]
//	          [-scheme concat|slotted|naive] [-deadline 2s] [-dmodel 64]
//	tcb-serve -chaos err=0.2,panic=0.05 ...   # deterministic fault injection
//	tcb-serve -http :8080 ...                 # expose the server over HTTP
//	tcb-serve -refill ...                     # continuous batching (mid-flight refill)
//	tcb-serve -replicas 3 -route least ...    # multi-replica cluster with failover
//	tcb-serve -kernel int8 ...                # int8 per-channel quantized projections
//	tcb-serve -kernel scalar ...              # float32 reference GEMM kernel
//	tcb-serve -fair -tenants "free:1,premium:4" ...  # weighted fair queueing
//
// Multi-tenant fairness: -fair turns on the WFQ candidate window and
// tenant-fair shedding; -tenants provisions tenants (name:weight:rate:burst,
// see fair.ParseTenants) and makes the demo stream round-robin its traffic
// over them; -slo-classes overrides the interactive/standard/batch SLO
// tiers; -bucket-rate/-bucket-burst set the admission token bucket applied
// to tenants without their own provisioning (HTTP 429 + Retry-After when a
// bucket runs dry). With -fair absent the server runs the original single
// global pool — tenant tags then only affect accounting, not scheduling.
//
// In HTTP mode the server listens until interrupted (tag requests with the
// X-Tenant header; pick an SLO class per request with "class"):
//
//	POST /v1/infer {"tokens": [5,6,7], "deadline_ms": 500, "class": "interactive"}
//	GET  /v1/stats
//	GET  /healthz
//	GET  /v1/replicas   (cluster mode only)
//
// The -chaos spec wraps the engine in a seeded serve.ChaosRunner
// (err/panic/slow/lose/killafter/wedgeafter modes); the supervision stack
// must keep the process alive and keep serving through every injected
// fault, which is exactly what the CI chaos smoke run asserts. With
// -replicas N the -chaos-target flag narrows the injection to one member's
// first engine generation — respawned replacements come up clean — so a
// run can kill or wedge exactly one replica and prove the cluster fails
// the traffic over without losing a request.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"sort"

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
	"tcb/internal/tensor"
	"tcb/internal/vocab"
)

func main() {
	n := flag.Int("n", 64, "number of requests to send")
	rate := flag.Float64("rate", 30, "arrival rate (req/s)")
	schedName := flag.String("scheduler", "das", "das|slotted|fcfs|sjf|def")
	schemeName := flag.String("scheme", "concat", "concat|slotted|naive")
	deadline := flag.Duration("deadline", 2*time.Second, "per-request deadline")
	httpAddr := flag.String("http", "", "serve HTTP on this address instead of running the batch demo")
	dmodel := flag.Int("dmodel", 64, "model width")
	maxNew := flag.Int("maxnew", 4, "generated tokens per request")
	seed := flag.Uint64("seed", 1, "workload seed")
	chaosSpec := flag.String("chaos", "", "fault injection spec, e.g. err=0.2,panic=0.05,slow=0.1:50ms,lose=0.02,killafter=20,seed=7")
	retries := flag.Int("retries", 3, "engine attempts per request (1 disables retry)")
	breakerK := flag.Int("breaker", 5, "consecutive failures tripping the circuit breaker (<0 disables)")
	cooldown := flag.Duration("breaker-cooldown", 250*time.Millisecond, "open-state cooldown before a half-open probe")
	batchTimeout := flag.Duration("batch-timeout", 0, "fixed per-batch watchdog budget (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on the final drain (0 waits forever)")
	pipeline := flag.Bool("pipeline", false, "overlap scheduling/layout/cleanup with compute (three-stage pipeline)")
	reserve := flag.Int("reserve", 0, "cores withheld from kernel workers for the pipeline's non-compute stages (0 = default)")
	refill := flag.Bool("refill", false, "continuous batching: refill freed batch slots from the queue between decode steps")
	replicas := flag.Int("replicas", 1, "cluster members; >1 fronts them with health-checked routing and failover")
	routeName := flag.String("route", "rr", "cluster routing policy: rr|least|length")
	chaosTarget := flag.Int("chaos-target", -1, "replica index the -chaos spec applies to (-1 = every replica; cluster mode only)")
	stallTimeout := flag.Duration("stall-timeout", time.Second, "cluster watchdog: respawn a replica with pending work but no progress for this long")
	respawnDeadline := flag.Duration("respawn-deadline", 2*time.Second, "bound on a wedged replica's drain before it is torn down")
	kernelName := flag.String("kernel", "wide", "GEMM kernel: scalar, wide, or int8 (wide float32 + bounded-error int8 per-channel quantized projections)")
	fairOn := flag.Bool("fair", false, "weighted fair queueing across tenants (off = original single global pool)")
	tenantsSpec := flag.String("tenants", "", "tenant provisioning name[:weight[:rate[:burst]]],...; the demo stream round-robins over them")
	classesSpec := flag.String("slo-classes", "", "SLO class overrides name:weight:deadline,... (default interactive/standard/batch tiers)")
	bucketRate := flag.Float64("bucket-rate", 0, "default admission bucket refill (request tokens/s) for tenants without their own (0 = unlimited)")
	bucketBurst := flag.Float64("bucket-burst", 0, "default admission bucket capacity in request tokens (0 = the rate)")
	prefixOn := flag.Bool("prefix-cache", false, "prefix sharing: encode shared prompt prefixes once and reuse their frozen KV across requests (forces the KV-cached decoder)")
	prefixBudget := flag.Int64("prefix-budget", 0, "prefix cache resident-byte budget (0 = unbounded)")
	prefixPool := flag.Int("prefix-pool", 4, "demo stream: distinct shared prefixes to rotate over (with -prefix-cache)")
	prefixReuse := flag.Float64("prefix-reuse", 0.75, "demo stream: probability a request carries a shared prefix (with -prefix-cache)")
	flag.Parse()

	kernel, err := tensor.ParseKernel(*kernelName)
	if err != nil {
		fail(err)
	}
	tensor.SetKernel(kernel)

	var scheduler sched.Scheduler
	switch *schedName {
	case "das":
		scheduler = sched.NewDAS()
	case "slotted":
		scheduler = sched.NewSlottedDAS()
	case "fcfs":
		scheduler = sched.FCFS{}
	case "sjf":
		scheduler = sched.SJF{}
	case "def":
		scheduler = sched.DEF{}
	default:
		fail(fmt.Errorf("unknown scheduler %q", *schedName))
	}
	var scheme batch.Scheme
	switch *schemeName {
	case "concat":
		scheme = batch.Concat
	case "slotted":
		scheme = batch.SlottedConcat
	case "naive":
		scheme = batch.Naive
	default:
		fail(fmt.Errorf("unknown scheme %q", *schemeName))
	}

	chaosCfg, err := serve.ParseChaos(*chaosSpec)
	if err != nil {
		fail(err)
	}

	// Fairness configuration shared by both modes. The limiter is attached
	// at whichever HTTP front exists (server or cluster), never to cluster
	// replicas — internal resubmissions must not be double-charged.
	tenantCfgs, err := fair.ParseTenants(*tenantsSpec)
	if err != nil {
		fail(err)
	}
	var registry *fair.Registry
	if len(tenantCfgs) > 0 || *bucketRate > 0 || *bucketBurst > 0 {
		registry = fair.NewRegistry(tenantCfgs...)
		registry.DefaultRate = *bucketRate
		registry.DefaultBurst = *bucketBurst
	}
	var classes *fair.ClassSet
	if *classesSpec != "" {
		if classes, err = fair.ParseClasses(*classesSpec); err != nil {
			fail(err)
		}
	}
	var limiter *fair.Limiter
	if registry != nil {
		limiter = fair.NewLimiter(registry)
	}
	// demoTenants is the round-robin rotation the demo stream tags its
	// requests with; empty means untagged traffic.
	demoTenants := registry.Names()

	cfg := model.Config{
		VocabSize: 256, DModel: *dmodel, NumHeads: 4, DFF: 2 * *dmodel,
		EncLayers: 2, DecLayers: 2, MaxLen: 512, Eps: 1e-5,
	}

	// Chaos bookkeeping shared by both modes: every runner built is kept so
	// the final report can sum injected-fault counts.
	var chaosMu sync.Mutex
	var chaosRunners []*serve.ChaosRunner
	chaosCounts := func() (serve.ChaosCounts, bool) {
		chaosMu.Lock()
		defer chaosMu.Unlock()
		var total serve.ChaosCounts
		for _, ch := range chaosRunners {
			c := ch.Counts()
			total.Errs += c.Errs
			total.Panics += c.Panics
			total.Slows += c.Slows
			total.Lost += c.Lost
			total.Kills += c.Kills
			total.Wedges += c.Wedges
		}
		return total, len(chaosRunners) > 0
	}

	// Prefix-cache bookkeeping shared by both modes: one cache (and one
	// device-byte ledger) per engine generation, so the post-drain balance
	// check can prove no cache bytes leaked — even across chaos respawns.
	var prefixMu sync.Mutex
	var prefixMems []*gpu.MemoryManager
	prefixBalanced := func() bool {
		prefixMu.Lock()
		defer prefixMu.Unlock()
		for _, m := range prefixMems {
			if m.Used() != 0 || m.Outstanding() != 0 {
				return false
			}
		}
		return true
	}

	// newServer builds one engine + supervision stack; the cluster's Spawn
	// calls it once per replica generation.
	newServer := func(withChaos bool) (*serve.Server, *serve.ChaosRunner, error) {
		eng := engine.New(model.New(cfg, 42), *maxNew)
		eng.Quantize = *kernelName == "int8"
		if *refill {
			// Mid-flight admission needs the fused KV-cached decode loop
			// (without it the server runs batch-at-a-time); outputs are
			// token-identical to the default path (DESIGN.md §11).
			eng.UseCache = true
		}
		var pc *prefixcache.Cache
		if *prefixOn {
			// The same cache serves both halves: the server pins and clears,
			// the engine reads and inserts. Charging a dedicated memory
			// manager keeps the cache's device accounting checkable without
			// imposing an admission budget on the demo's engine.
			mem := gpu.NewMemoryManager(0)
			pc = prefixcache.New(*prefixBudget, mem)
			eng.UseCache = true // prefix items require the KV-cached decoder
			eng.PrefixCache = pc
			prefixMu.Lock()
			prefixMems = append(prefixMems, mem)
			prefixMu.Unlock()
		}
		var runner serve.Runner = eng
		var chaos *serve.ChaosRunner
		if withChaos {
			chaos = serve.NewChaosRunner(eng, chaosCfg)
			runner = chaos
			chaosMu.Lock()
			chaosRunners = append(chaosRunners, chaos)
			chaosMu.Unlock()
		}
		srvCfg := serve.Config{
			Engine: runner, Scheduler: scheduler, Scheme: scheme,
			B: 8, L: 100,
			Retry:            serve.RetryPolicy{MaxAttempts: *retries},
			BreakerThreshold: *breakerK,
			BreakerCooldown:  *cooldown,
			DrainTimeout:     *drainTimeout,
			Pipeline:         *pipeline,
			ReserveCores:     *reserve,
			Refill:           *refill,
			Fair:             *fairOn,
			Registry:         registry,
			Classes:          classes,
			PrefixCache:      pc,
		}
		if *replicas <= 1 {
			// Single-server mode: this server IS the HTTP front, so it
			// carries the admission limiter. Cluster replicas never do.
			srvCfg.Limiter = limiter
		}
		if *batchTimeout > 0 {
			// A fixed budget: the Config-level PredictBatch hook exists for
			// calibrated cost-model predictions; a CLI run has no calibration
			// pass, so a flat watchdog is the honest option.
			fixed := *batchTimeout
			srvCfg.PredictBatch = func(*batch.Batch) time.Duration { return fixed }
			srvCfg.TimeoutSlack = 1
			srvCfg.MinBatchTimeout = fixed
			if *pipeline {
				// The non-compute stages get the same flat treatment: each is
				// expected well inside a quarter of the batch budget; past
				// that it counts as a stage overrun in the stats.
				srvCfg.PredictStages = func(*batch.Batch) (time.Duration, time.Duration) {
					return fixed / 4, fixed / 4
				}
			}
		}
		srv, err := serve.New(srvCfg)
		if err != nil {
			return nil, nil, err
		}
		return srv, chaos, nil
	}

	if *replicas > 1 {
		runClusterMode(clusterMode{
			replicas: *replicas, routeName: *routeName,
			chaosEnabled: chaosCfg.Enabled(), chaosTarget: *chaosTarget,
			chaosCounts: chaosCounts, newServer: newServer,
			stallTimeout: *stallTimeout, respawnDeadline: *respawnDeadline,
			n: *n, rate: *rate, deadline: *deadline, seed: *seed,
			httpAddr: *httpAddr, vocabSize: cfg.VocabSize,
			scheduler: scheduler, scheme: scheme,
			limiter: limiter, classes: classes,
			tenants: demoTenants, fairOn: *fairOn,
			prefixOn: *prefixOn, prefixPool: *prefixPool,
			prefixReuse: *prefixReuse, prefixBalanced: prefixBalanced,
		})
		return
	}

	srv, chaos, err := newServer(chaosCfg.Enabled())
	if err != nil {
		fail(err)
	}
	srv.Start()

	if *httpAddr != "" {
		fmt.Printf("serving HTTP on %s (scheduler=%s scheme=%s)\n",
			*httpAddr, scheduler.Name(), scheme)
		hs := &http.Server{
			Addr:              *httpAddr,
			Handler:           serve.NewHTTPHandler(srv),
			ReadHeaderTimeout: 5 * time.Second,  // slowloris bound
			ReadTimeout:       30 * time.Second, // full-request bound
		}
		if err := hs.ListenAndServe(); err != nil {
			srv.Stop()
			fail(err)
		}
		srv.Stop()
		return
	}

	src := rng.New(*seed)
	prefixes := demoPrefixes(src, *prefixOn, *prefixPool, cfg.VocabSize)
	type outcome struct {
		ch <-chan serve.Response
	}
	var outs []outcome
	start := time.Now()
	sent, rejected := 0, 0
	for i := 0; i < *n; i++ {
		l := src.TruncatedNormalInt(20, 4.5, 3, 100)
		tokens := make([]int, l)
		for j := range tokens {
			tokens[j] = src.IntRange(vocab.FirstWordID, cfg.VocabSize-1)
		}
		var opt serve.SubmitOptions
		if len(demoTenants) > 0 {
			opt.Tenant = demoTenants[i%len(demoTenants)]
		}
		tokens, opt.PrefixLen = maybePrefix(src, prefixes, *prefixReuse, tokens, 100)
		ch, err := srv.SubmitOpts(tokens, *deadline, opt)
		if err != nil {
			rejected++
			continue
		}
		sent++
		outs = append(outs, outcome{ch})
		time.Sleep(time.Duration(src.Exp(*rate) * float64(time.Second)))
	}

	var lat stats.Sample
	ok, missed, failed := 0, 0, 0
	for _, o := range outs {
		resp := <-o.ch
		switch {
		case resp.Err == serve.ErrDeadlineExceeded:
			missed++
		case resp.Err != nil:
			failed++
		default:
			ok++
			lat.Add(resp.Served.Sub(resp.Queued).Seconds() * 1000)
		}
	}
	elapsed := time.Since(start)
	srv.Drain()
	st := srv.Stats()

	fmt.Printf("scheduler=%s scheme=%s dmodel=%d\n", scheduler.Name(), scheme, *dmodel)
	fmt.Printf("sent=%d rejected=%d served=%d deadline-missed=%d failed=%d\n",
		sent, rejected, ok, missed, failed)
	fmt.Printf("wall=%.2fs throughput=%.1f resp/s\n", elapsed.Seconds(), float64(ok)/elapsed.Seconds())
	if lat.N() > 0 {
		fmt.Printf("latency ms: p50=%.1f p95=%.1f p99=%.1f\n",
			lat.Percentile(50), lat.Percentile(95), lat.Percentile(99))
	}
	fmt.Printf("supervision: retried=%d panics=%d timeouts=%d shed=%d breaker=%s trips=%d\n",
		st.Retried, st.Panics, st.Timeouts, st.Shed, st.BreakerState, st.BreakerTrips)
	mode := "serial"
	if st.Pipelined {
		mode = "pipelined"
	}
	fmt.Printf("stages (%s): schedule=%.1fms compute=%.1fms cleanup=%.1fms overruns=%d\n",
		mode, float64(st.ScheduleNs)/1e6, float64(st.ComputeNs)/1e6,
		float64(st.CleanupNs)/1e6, st.StageOverruns)
	fmt.Printf("kernels: scalar=%d wide=%d int8=%d\n",
		st.Kernels.Scalar, st.Kernels.Wide, st.Kernels.Int8)
	if st.Refilling {
		fmt.Printf("refill: admitted=%d retired-early=%d occupancy=%.0f%% slot-idle-steps=%d\n",
			st.RefillsAdmitted, st.SegmentsRetiredEarly, st.BatchOccupancyPct, st.SlotIdleSteps)
	}
	if st.PrefixEnabled {
		fmt.Printf("prefix: hits=%d misses=%d hit-rate=%.0f%% tokens-saved=%d inserts=%d evictions=%d resident=%dB\n",
			st.Prefix.Hits, st.Prefix.Misses, 100*st.Prefix.HitRate,
			st.Prefix.TokensSaved, st.Prefix.Inserts, st.Prefix.Evictions, st.Prefix.ResidentBytes)
		if !prefixBalanced() {
			fmt.Fprintln(os.Stderr, "prefix cache leaked device bytes after drain")
			os.Exit(1)
		}
	}
	if *fairOn || len(demoTenants) > 0 {
		fmt.Printf("fairness: wfq=%v jain=%.3f\n", st.FairEnabled, st.JainGoodput)
		printTenantTable(st.Tenants)
		printClassP99(st.ClassP99MS)
	}
	if chaos != nil {
		c := chaos.Counts()
		fmt.Printf("chaos injected: errs=%d panics=%d slows=%d lost=%d kills=%d wedges=%d\n",
			c.Errs, c.Panics, c.Slows, c.Lost, c.Kills, c.Wedges)
		// Under injected faults some requests legitimately fail; the pass
		// condition is that the process survived and still served traffic.
		if sent > 0 && ok == 0 {
			fmt.Fprintln(os.Stderr, "chaos run served nothing")
			os.Exit(1)
		}
		return
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// clusterMode carries the flag state the cluster demo needs.
type clusterMode struct {
	replicas        int
	routeName       string
	chaosEnabled    bool
	chaosTarget     int
	chaosCounts     func() (serve.ChaosCounts, bool)
	newServer       func(withChaos bool) (*serve.Server, *serve.ChaosRunner, error)
	stallTimeout    time.Duration
	respawnDeadline time.Duration
	n               int
	rate            float64
	deadline        time.Duration
	seed            uint64
	httpAddr        string
	vocabSize       int
	scheduler       sched.Scheduler
	scheme          batch.Scheme
	limiter         *fair.Limiter
	classes         *fair.ClassSet
	tenants         []string
	fairOn          bool
	prefixOn        bool
	prefixPool      int
	prefixReuse     float64
	prefixBalanced  func() bool
}

// runClusterMode fronts N replicas with the cluster router and replays the
// demo stream through it. The exit status is the zero-lost check: every
// accepted request must reach a terminal outcome (Delivered == Submitted),
// and under chaos the cluster must still have served traffic.
func runClusterMode(cm clusterMode) {
	policy, err := cluster.ParsePolicy(cm.routeName)
	if err != nil {
		fail(err)
	}
	// Chaos targets only the first generation of the chosen replica (or of
	// every replica with -chaos-target -1): a respawned replacement comes up
	// clean, which is what lets the kill/wedge smoke prove recovery.
	var genMu sync.Mutex
	gens := make(map[int]int)
	spawn := func(i int) (*serve.Server, func(), error) {
		genMu.Lock()
		gen := gens[i]
		gens[i]++
		genMu.Unlock()
		withChaos := cm.chaosEnabled && gen == 0 &&
			(cm.chaosTarget < 0 || cm.chaosTarget == i)
		srv, chaos, err := cm.newServer(withChaos)
		if err != nil {
			return nil, nil, err
		}
		var cleanup func()
		if chaos != nil {
			cleanup = chaos.Close // releases wedged engine calls on teardown
		}
		return srv, cleanup, nil
	}
	c, err := cluster.New(cluster.Config{
		Replicas: cm.replicas, Spawn: spawn, Policy: policy,
		MaxLen:          100, // the servers' L
		StallTimeout:    cm.stallTimeout,
		RespawnDeadline: cm.respawnDeadline,
		Limiter:         cm.limiter, // cluster front owns admission
		Classes:         cm.classes,
	})
	if err != nil {
		fail(err)
	}
	c.Start()

	if cm.httpAddr != "" {
		fmt.Printf("serving HTTP on %s (cluster: replicas=%d route=%s scheduler=%s scheme=%s)\n",
			cm.httpAddr, cm.replicas, policy, cm.scheduler.Name(), cm.scheme)
		hs := &http.Server{
			Addr:              cm.httpAddr,
			Handler:           cluster.NewHTTPHandler(c),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
		}
		if err := hs.ListenAndServe(); err != nil {
			c.Stop()
			fail(err)
		}
		c.Stop()
		return
	}

	src := rng.New(cm.seed)
	prefixes := demoPrefixes(src, cm.prefixOn, cm.prefixPool, cm.vocabSize)
	var outs []<-chan serve.Response
	start := time.Now()
	sent, rejected := 0, 0
	for i := 0; i < cm.n; i++ {
		l := src.TruncatedNormalInt(20, 4.5, 3, 100)
		tokens := make([]int, l)
		for j := range tokens {
			tokens[j] = src.IntRange(vocab.FirstWordID, cm.vocabSize-1)
		}
		var opt serve.SubmitOptions
		if len(cm.tenants) > 0 {
			opt.Tenant = cm.tenants[i%len(cm.tenants)]
		}
		tokens, opt.PrefixLen = maybePrefix(src, prefixes, cm.prefixReuse, tokens, 100)
		ch, err := c.SubmitOpts(tokens, cm.deadline, opt)
		if err != nil {
			rejected++
			continue
		}
		sent++
		outs = append(outs, ch)
		time.Sleep(time.Duration(src.Exp(cm.rate) * float64(time.Second)))
	}

	var lat stats.Sample
	ok, missed, failed := 0, 0, 0
	for _, ch := range outs {
		resp := <-ch
		switch {
		case resp.Err == serve.ErrDeadlineExceeded:
			missed++
		case resp.Err != nil:
			failed++
		default:
			ok++
			lat.Add(resp.Served.Sub(resp.Queued).Seconds() * 1000)
		}
	}
	elapsed := time.Since(start)
	c.Drain()
	st := c.Stats()

	fmt.Printf("cluster: replicas=%d route=%s scheduler=%s scheme=%s\n",
		cm.replicas, policy, cm.scheduler.Name(), cm.scheme)
	fmt.Printf("sent=%d rejected=%d served=%d deadline-missed=%d failed=%d\n",
		sent, rejected, ok, missed, failed)
	fmt.Printf("wall=%.2fs throughput=%.1f resp/s\n", elapsed.Seconds(), float64(ok)/elapsed.Seconds())
	if lat.N() > 0 {
		fmt.Printf("latency ms: p50=%.1f p95=%.1f p99=%.1f\n",
			lat.Percentile(50), lat.Percentile(95), lat.Percentile(99))
	}
	fmt.Printf("lifecycle: submitted=%d delivered=%d failovers=%d ejections=%d respawns=%d probe-failures=%d\n",
		st.Submitted, st.Delivered, st.Failovers, st.Ejections, st.Respawns, st.ProbeFailures)
	for _, rs := range st.Replicas {
		fmt.Printf("  replica %d: state=%s respawns=%d served=%d failed=%d shed=%d breaker=%s trips=%d\n",
			rs.Index, rs.State, rs.Respawns, rs.Stats.Served, rs.Stats.Failed,
			rs.Stats.Shed, rs.Stats.BreakerState, rs.Stats.BreakerTrips)
	}
	if counts, any := cm.chaosCounts(); any {
		fmt.Printf("chaos injected: errs=%d panics=%d slows=%d lost=%d kills=%d wedges=%d\n",
			counts.Errs, counts.Panics, counts.Slows, counts.Lost, counts.Kills, counts.Wedges)
	}
	if cm.prefixOn {
		var hits, misses, saved int64
		for _, rs := range st.Replicas {
			hits += rs.Stats.Prefix.Hits
			misses += rs.Stats.Prefix.Misses
			saved += rs.Stats.Prefix.TokensSaved
		}
		fmt.Printf("prefix (all replicas): hits=%d misses=%d tokens-saved=%d\n", hits, misses, saved)
		if !cm.prefixBalanced() {
			fmt.Fprintln(os.Stderr, "prefix cache leaked device bytes after drain")
			os.Exit(1)
		}
	}
	if cm.fairOn || len(cm.tenants) > 0 {
		fmt.Printf("fairness: jain=%.3f\n", st.JainGoodput)
		printTenantTable(st.Tenants)
	}

	// The zero-lost invariant, counter-verified: every accepted request got
	// exactly one terminal outcome.
	if st.Delivered != st.Submitted {
		fmt.Fprintf(os.Stderr, "LOST REQUESTS: submitted=%d delivered=%d\n", st.Submitted, st.Delivered)
		os.Exit(1)
	}
	if int64(sent) != st.Submitted || sent != len(outs) {
		fmt.Fprintf(os.Stderr, "accounting mismatch: sent=%d submitted=%d outcomes=%d\n",
			sent, st.Submitted, len(outs))
		os.Exit(1)
	}
	if cm.chaosEnabled {
		// Under injected faults some requests legitimately fail; the pass
		// condition is surviving and still serving.
		if sent > 0 && ok == 0 {
			fmt.Fprintln(os.Stderr, "chaos run served nothing")
			os.Exit(1)
		}
		return
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// printTenantTable prints one line per tenant, sorted by name.
func printTenantTable(tenants map[string]serve.TenantStats) {
	names := make([]string, 0, len(tenants))
	for name := range tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := tenants[name]
		fmt.Printf("  tenant %s: admitted=%d throttled=%d delivered=%d missed=%d failed=%d shed=%d\n",
			name, ts.Admitted, ts.Throttled, ts.Delivered, ts.Missed, ts.Failed, ts.Shed)
	}
}

// printClassP99 prints the per-SLO-class delivered-latency tails.
func printClassP99(p99 map[string]float64) {
	if len(p99) == 0 {
		return
	}
	names := make([]string, 0, len(p99))
	for name := range p99 {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("  class p99 ms:")
	for _, name := range names {
		fmt.Printf(" %s=%.1f", name, p99[name])
	}
	fmt.Println()
}

// demoPrefixes pre-draws the shared prompt prefixes the demo stream rotates
// over; nil when prefix sharing is off (drawing nothing keeps the default
// stream byte-identical to earlier releases).
func demoPrefixes(src *rng.Source, on bool, pool, vocabSize int) [][]int {
	if !on || pool <= 0 {
		return nil
	}
	const prefixLen = 12
	out := make([][]int, pool)
	for i := range out {
		pfx := make([]int, prefixLen)
		for j := range pfx {
			pfx[j] = src.IntRange(vocab.FirstWordID, vocabSize-1)
		}
		out[i] = pfx
	}
	return out
}

// maybePrefix prepends one of the shared prefixes with probability reuse,
// truncating the suffix so the prefixed request still fits the row capacity
// L. It returns the (possibly prefixed) tokens and the declared prefix
// length.
func maybePrefix(src *rng.Source, prefixes [][]int, reuse float64, tokens []int, L int) ([]int, int) {
	if len(prefixes) == 0 || src.Float64() >= reuse {
		return tokens, 0
	}
	pfx := prefixes[src.Intn(len(prefixes))]
	if max := L - len(pfx); len(tokens) > max {
		tokens = tokens[:max]
	}
	return append(append(make([]int, 0, len(pfx)+len(tokens)), pfx...), tokens...), len(pfx)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
