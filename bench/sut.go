package main

// Everything that constructs the system under test lives in this file and
// nowhere else: an API change in serve, cluster or engine needs a benchmark
// change here only. The rest of the benchmark talks to the stack through
// *sut (Submit, Drain, Stats) and through the interfaces the stack already
// accepts (sched.Scheduler, serve.Runner), which traceHooks wraps.

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"tcb/internal/batch"
	"tcb/internal/cluster"
	"tcb/internal/cost"
	"tcb/internal/engine"
	"tcb/internal/fair"
	"tcb/internal/gpu"
	"tcb/internal/model"
	"tcb/internal/prefixcache"
	"tcb/internal/rng"
	"tcb/internal/sched"
	"tcb/internal/serve"
	"tcb/internal/tensor"
	"tcb/internal/vocab"
)

// sutConfig is the full configuration of the system under test. It is fixed:
// the only fields that differ between workloads are OutputCap, OutputPerInput
// and DecodeRounds, which describe the service (how much it generates per
// request), not a tuning choice.
type sutConfig struct {
	Model     model.Config `json:"model"`
	ModelSeed uint64       `json:"model_seed"`

	Replicas int    `json:"replicas"`
	Route    string `json:"route"`

	Scheduler string `json:"scheduler"`
	Scheme    string `json:"scheme"`
	B         int    `json:"B"`
	L         int    `json:"L"`
	MaxNew    int    `json:"max_new"`
	QueueCap  int    `json:"queue_cap"`

	Pipeline    bool   `json:"pipeline"`
	Refill      bool   `json:"refill"`
	Fair        bool   `json:"fair"`
	PrefixCache bool   `json:"prefix_cache"`
	FuseDecode  bool   `json:"fuse_decode"`
	Kernel      string `json:"kernel"`

	// PrefixSlots sizes each replica's prefix-cache byte budget in entries
	// of PrefixLen tokens.
	PrefixSlots int `json:"prefix_slots"`
	PrefixLen   int `json:"prefix_len"`

	Tenants []string `json:"tenants"`

	// OutputCap bounds generation per request at a fixed length; 0 means
	// OutputPerInput times the input length instead (clamped by MaxNew), the
	// seq2seq shape that staggers finish times inside a batch.
	OutputCap      int `json:"output_cap"`
	OutputPerInput int `json:"output_per_input"`
	// DecodeRounds is the cost model's expected decode rounds per launch
	// (the workload's mean output length).
	DecodeRounds float64 `json:"decode_rounds"`
}

// baseConfig is the fixed geometry every workload runs on: the whole stack,
// all features on.
func baseConfig() sutConfig {
	return sutConfig{
		Model: model.Config{
			VocabSize: 512, DModel: 128, NumHeads: 8, DFF: 512,
			EncLayers: 2, DecLayers: 2, MaxLen: 512, Eps: 1e-5,
		},
		ModelSeed: 42,
		Replicas:  2, Route: "least-loaded",
		Scheduler: "DAS", Scheme: "concat",
		B: 8, L: 128, MaxNew: 48, QueueCap: 4096,
		Pipeline: true, Refill: true, Fair: true, PrefixCache: true,
		FuseDecode: true, Kernel: "wide",
		PrefixSlots: 8, PrefixLen: 64,
		Tenants: []string{"good0", "good1", "good2", "flooder"},
	}
}

// outputCap returns the engine's per-request generation bound.
func (c sutConfig) outputCap() func(int) int {
	if c.OutputCap > 0 {
		fixed := c.OutputCap
		return func(int) int { return fixed }
	}
	k := max(1, c.OutputPerInput)
	return func(inputLen int) int { return k * inputLen }
}

// prefixBudget is the per-replica prefix-cache byte budget: PrefixSlots
// entries, each the frozen encoder rows plus per-decoder-layer cross K/V of
// a PrefixLen-token prefix.
func (c sutConfig) prefixBudget() int64 {
	entry := int64(1+2*c.Model.DecLayers) * int64(c.PrefixLen) * int64(c.Model.DModel) * 4
	return int64(c.PrefixSlots) * entry
}

// traceHooks lets the traced run wrap what the stack already takes as
// interfaces. Both nil on the untraced run: the system under test is then
// built exactly as a deployment would build it.
type traceHooks struct {
	Scheduler func(replica int, s sched.Scheduler) sched.Scheduler
	Runner    func(replica int, e *engine.Engine) serve.Runner
}

// sut is one running instance of the full stack.
type sut struct {
	cfg     sutConfig
	cluster *cluster.Cluster
	cost    cost.Params

	// mu guards the slices below: a cluster respawn may build a replacement
	// replica while the run is reading them.
	mu     sync.Mutex
	mems   []*gpu.MemoryManager // engine activation and prefix-cache ledgers
	caches []*prefixcache.Cache
}

// newEngine builds one replica's engine over a fresh copy of the model.
func newEngine(cfg sutConfig) *engine.Engine {
	e := engine.New(model.New(cfg.Model, cfg.ModelSeed), cfg.MaxNew)
	e.UseCache = true // refill and prefix sharing both need the KV-cached decoder
	e.FuseDecode = cfg.FuseDecode
	e.OutputCap = cfg.outputCap()
	return e
}

// newSUT builds, calibrates, starts and warms the stack: model → cost
// calibration → one engine + prefix cache + server per replica → cluster →
// one warm-up batch answered by every replica.
func newSUT(cfg sutConfig, hooks traceHooks) (*sut, error) {
	kernel, err := tensor.ParseKernel(cfg.Kernel)
	if err != nil {
		return nil, err
	}
	tensor.SetKernel(kernel)
	policy, err := cluster.ParsePolicy(cfg.Route)
	if err != nil {
		return nil, err
	}
	params, err := calibrate(cfg)
	if err != nil {
		return nil, err
	}
	s := &sut{cfg: cfg, cost: params}

	registry := cfg.tenantRegistry()
	spawn := func(i int) (*serve.Server, func(), error) {
		srv, err := s.newServer(i, registry, hooks)
		return srv, nil, err
	}
	c, err := cluster.New(cluster.Config{
		Replicas: cfg.Replicas, Spawn: spawn, Policy: policy, MaxLen: cfg.L,
	})
	if err != nil {
		return nil, err
	}
	c.Start()
	s.cluster = c
	if err := s.warmUp(); err != nil {
		c.Stop()
		return nil, err
	}
	return s, nil
}

// newServer builds replica i: engine, device-memory ledgers, prefix cache
// and the serve.Server over them, all features on.
func (s *sut) newServer(i int, registry *fair.Registry, hooks traceHooks) (*serve.Server, error) {
	cfg, params := s.cfg, s.cost
	eng := newEngine(cfg)
	eng.Mem = gpu.NewMemoryManager(0)
	var pc *prefixcache.Cache
	s.mu.Lock()
	s.mems = append(s.mems, eng.Mem)
	if cfg.PrefixCache {
		mem := gpu.NewMemoryManager(0)
		pc = prefixcache.New(cfg.prefixBudget(), mem)
		eng.PrefixCache = pc
		s.mems = append(s.mems, mem)
		s.caches = append(s.caches, pc)
	}
	s.mu.Unlock()
	var scheduler sched.Scheduler = sched.NewDAS()
	if hooks.Scheduler != nil {
		scheduler = hooks.Scheduler(i, scheduler)
	}
	var runner serve.Runner = eng
	if hooks.Runner != nil {
		runner = hooks.Runner(i, eng)
	}
	return serve.New(serve.Config{
		Engine: runner, Scheduler: scheduler, Scheme: batch.Concat,
		B: cfg.B, L: cfg.L, QueueCap: cfg.QueueCap,
		Pipeline: cfg.Pipeline, Refill: cfg.Refill,
		Fair: cfg.Fair, Registry: registry,
		PrefixCache:  pc,
		PredictBatch: params.PredictBatchDuration,
		PredictStages: func(b *batch.Batch) (time.Duration, time.Duration) {
			prep, _, clean := params.PredictStageDurations(b)
			return prep, clean
		},
		MinBatchTimeout: time.Second,
		DrainTimeout:    60 * time.Second,
	})
}

// tenantRegistry provisions the configured tenants, weight 1 each.
func (c sutConfig) tenantRegistry() *fair.Registry {
	tenants := make([]fair.TenantConfig, len(c.Tenants))
	for i, name := range c.Tenants {
		tenants[i] = fair.TenantConfig{Name: name, Weight: 1}
	}
	return fair.NewRegistry(tenants...)
}

// warmUp serves small batches until every replica has answered one, so lazy
// set-up (kernel pool helpers, workspace buffers, the pipeline's stage
// goroutines) is finished before anything is timed. One round is enough
// unless the router found a replica busy; warmUpRounds bounds the wait.
func (s *sut) warmUp() error {
	src := rng.New(s.cfg.ModelSeed)
	n := s.cfg.Replicas * s.cfg.B
	for round := 0; round < warmUpRounds; round++ {
		chans := make([]<-chan serve.Response, 0, n)
		for i := 0; i < n; i++ {
			ch, err := s.cluster.Submit(randTokens(src, 16, s.cfg.Model.VocabSize), time.Minute)
			if err != nil {
				return fmt.Errorf("warm-up submit: %w", err)
			}
			chans = append(chans, ch)
		}
		for _, ch := range chans {
			if resp := <-ch; resp.Err != nil {
				return fmt.Errorf("warm-up response: %w", resp.Err)
			}
		}
		idle := -1
		for _, r := range s.cluster.Stats().Replicas {
			if r.Stats.Served == 0 {
				idle = r.Index
			}
		}
		if idle < 0 {
			return nil
		}
	}
	return fmt.Errorf("warm-up: a replica served nothing in %d rounds", warmUpRounds)
}

const warmUpRounds = 5

// Submit hands one request to the cluster front. deadline 0 defers to the
// SLO class default.
func (s *sut) Submit(tokens []int, deadline time.Duration, tenant, class string, prefixLen int) (<-chan serve.Response, error) {
	return s.cluster.SubmitOpts(tokens, deadline, serve.SubmitOptions{
		Tenant: tenant, Class: class, PrefixLen: prefixLen,
	})
}

// Stats snapshots the cluster counters (per-replica serve.Stats inside).
func (s *sut) Stats() cluster.Stats { return s.cluster.Stats() }

// Drain serves or expires everything queued and tears the stack down.
func (s *sut) Drain() { s.cluster.Drain() }

// ledgerTotals sums the device-memory ledgers: peak bytes reserved and tags
// still outstanding.
func (s *sut) ledgerTotals() (peakBytes int64, outstanding int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.mems {
		peakBytes += m.Peak()
		outstanding += m.Outstanding()
	}
	return peakBytes, outstanding
}

// prefixResident reports whether any replica's cache holds the request's
// declared prefix right now.
func (s *sut) prefixResident(tokens []int, prefixLen int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.caches {
		if c.Contains(tokens, prefixLen) {
			return true
		}
	}
	return false
}

// newHTTPFront builds one more replica-shaped server behind the stack's HTTP
// handler, for the front-overhead probe. stop tears it down.
func newHTTPFront(cfg sutConfig, params cost.Params) (handler http.Handler, stop func(), err error) {
	s := &sut{cfg: cfg, cost: params}
	srv, err := s.newServer(0, cfg.tenantRegistry(), traceHooks{})
	if err != nil {
		return nil, nil, err
	}
	srv.Start()
	return serve.NewHTTPHandler(srv), srv.Stop, nil
}

// classWeight is the SLA weight the stack gives a request's class (1 when
// unclassed): the w in the paper's utility w/len.
func classWeight(class string) float64 {
	if class == "" {
		return 1
	}
	return fair.DefaultClasses().Lookup(class).Weight
}

// classDeadline resolves an SLO class's default deadline the way the stack
// does.
func classDeadline(class string) time.Duration {
	return fair.DefaultClasses().Lookup(class).Deadline
}

// isShedOutcome reports whether err is one of the server's documented
// load-shedding outcomes rather than a failure.
func isShedOutcome(err error) bool {
	return errorsIsAny(err, serve.ErrDeadlineExceeded, serve.ErrShed, serve.ErrQueueFull, serve.ErrBreakerOpen)
}

// ledgerViolations checks every device-memory ledger balances to zero after
// Drain and returns one line per ledger that does not.
func (s *sut) ledgerViolations() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for i, m := range s.mems {
		if m.Used() != 0 || m.Outstanding() != 0 {
			out = append(out, fmt.Sprintf("gpu ledger %d: %d bytes in use, %d outstanding", i, m.Used(), m.Outstanding()))
		}
	}
	return out
}

// calibrate fits cost.Params to this machine: the encode-side constants by
// engine.MeasureCost + cost.CalibrateFull, the decode-side ones from two
// timed fused-decode launches of different segment counts.
func calibrate(cfg sutConfig) (cost.Params, error) {
	m := model.New(cfg.Model, cfg.ModelSeed)
	ms, err := engine.MeasureCost(engine.New(m, 0), cfg.L, 16, []int{1, 2, 4}, 2, 7)
	if err != nil {
		return cost.Params{}, err
	}
	p, err := cost.CalibrateFull(ms)
	if err != nil {
		return cost.Params{}, err
	}
	const rounds = 8
	dec := engine.New(m, rounds)
	dec.UseCache = true
	dec.OutputCap = func(int) int { return rounds }
	src := rng.New(11)
	perRound := func(n int) (float64, error) {
		items := make([]batch.Item, n)
		tokens := make(map[int64][]int, n)
		for i := range items {
			id := int64(i + 1)
			items[i] = batch.Item{ID: id, Len: 16}
			tokens[id] = randTokens(src, 16, cfg.Model.VocabSize)
		}
		b, rest := batch.PackConcat(items, cfg.B, cfg.L)
		if len(rest) != 0 {
			return 0, fmt.Errorf("calibrate: %d items did not pack", len(rest))
		}
		start := time.Now()
		rep, err := dec.Run(b, tokens)
		if err != nil {
			return 0, err
		}
		total := time.Since(start).Seconds()
		steps := 0
		for _, r := range rep.Results {
			if r.Steps > steps {
				steps = r.Steps
			}
		}
		if steps == 0 {
			return 0, fmt.Errorf("calibrate: decode launch took no steps")
		}
		encode := p.PerBatchSeconds + float64(b.SlottedTokens())*p.PerTokenSeconds + float64(b.ScoreArea())*p.PerScoreSeconds
		return (total - encode) / float64(steps), nil
	}
	n1, n2 := cfg.B, 4*cfg.B
	d1, err := perRound(n1)
	if err != nil {
		return cost.Params{}, err
	}
	d2, err := perRound(n2)
	if err != nil {
		return cost.Params{}, err
	}
	p.PerSegmentRoundSeconds = max(0, (d2-d1)/float64(n2-n1))
	p.PerRoundSeconds = max(0, d1-float64(n1)*p.PerSegmentRoundSeconds)
	p.DecodeRounds = cfg.DecodeRounds
	p.LoadFraction = 0.35
	return p, p.Validate()
}

// newReference builds the engine the output check compares against: the same
// model and generation caps, no batching, no prefix cache.
func newReference(cfg sutConfig) *engine.Engine { return newEngine(cfg) }

// runAlone serves one request alone on the reference engine: engine.RunSingle
// for plain requests; for a declared prefix, a single-item batch carrying the
// same declaration (a declared prefix encodes as its own attention segment,
// cached or not, so the solo run must declare it too).
func runAlone(ref *engine.Engine, tokens []int, prefixLen int) ([]int, error) {
	if prefixLen == 0 {
		res, err := ref.RunSingle(1, tokens)
		return res.Output, err
	}
	b, rest := batch.PackConcat([]batch.Item{{ID: 1, Len: len(tokens), PrefixLen: prefixLen}}, 1, len(tokens))
	if len(rest) != 0 {
		return nil, fmt.Errorf("reference: request of %d tokens did not pack", len(tokens))
	}
	rep, err := ref.Run(b, map[int64][]int{1: tokens})
	if err != nil {
		return nil, err
	}
	return rep.Results[0].Output, nil
}

// randTokens draws n word tokens.
func randTokens(src *rng.Source, n, vocabSize int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = src.IntRange(vocab.FirstWordID, vocabSize-1)
	}
	return out
}
