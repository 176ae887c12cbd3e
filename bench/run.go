package main

import (
	"fmt"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"tcb/internal/stats"
)

// Run shape. A run of S seconds keeps the stack saturated for
// (satWarmShare + satShare)·S, measuring over the last satShare·S, then runs
// the open-loop phase for openShare·S; set-up, drains and the output check
// come on top.
const (
	satWarmShare = 0.05
	satShare     = 0.25
	openShare    = 0.6
	// satClients is the closed loop's concurrency: enough outstanding
	// requests to keep both replicas' launches full (2 × B×L = 2048 tokens)
	// on the shortest-request workload, with a queue behind them.
	satClients = 256
	// satHeadroom sizes the saturation trace: the closed loop never runs out
	// of requests until the system is this many times faster than the
	// workload's frozen SatRate.
	satHeadroom = 3
	// setupRepeats is how many times an untraced run sets the stack up;
	// setup_s is the median and the last instance is the one measured.
	setupRepeats = 3
)

// The load generator is valid only while it keeps to its schedule: a run
// whose P99 send lag exceeds maxLagP99 exits non-zero. lateSend is the
// threshold behind bench.late_sends_pct. On a 2-vCPU VM a bare time.Sleep
// wake-up measures P99 ~6 ms when both cores are busy, so 5 ms cannot be
// the validity bound here; 50 ms still catches a generator that has fallen
// behind (lag then grows without limit).
const (
	maxLagP99 = 50 * time.Millisecond
	lateSend  = 5 * time.Millisecond
)

// maxOpenWall bounds the open phase in wall time, as a multiple of its
// length in work time: on a machine running slower than 1/maxOpenWall of
// nominal the phase is cut short (what was sent still counts) rather than the
// run overrunning its time limit.
const maxOpenWall = 1.6

// runOptions selects one benchmark run.
type runOptions struct {
	Workload workloadDef
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Setups overrides setupRepeats (the self-test sets it to 1).
	Setups int
	// TraceDir is where the traced run writes its span file ("" = don't).
	TraceDir string
}

// header is printed and stored with every run.
type header struct {
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seed       uint64      `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Trace      bool        `json:"trace"`
	Workload   workloadDef `json:"workload"`
	SUT        sutConfig   `json:"sut"`
}

// runReport is everything one run produced.
type runReport struct {
	Header     header                 `json:"header"`
	Phases     map[string]counts      `json:"phases"`
	Metrics    map[string]metricValue `json:"metrics"`
	Notes      []string               `json:"notes,omitempty"`
	Violations []string               `json:"violations,omitempty"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Checked    int                    `json:"outputs_checked"`
}

// correct reports whether the run's outputs and invariants all held.
func (r *runReport) correct() bool { return r.Failed == 0 && len(r.Violations) == 0 }

// commitID names the source revision when the checkout is a git repository.
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// generatorProcs gives the load generator a P of its own. With GOMAXPROCS
// equal to the core count and every P inside a compute loop, a goroutine
// woken by a timer waits for the runtime's 10 ms preemption tick (measured:
// P99 send lag 27 ms); with one more P its wake-up is the OS scheduler's
// business. The kernels' worker plan is unchanged: each replica's pipeline
// reserves a core, leaving one worker either way.
func generatorProcs() int { return runtime.NumCPU() + 1 }

// runWorkload executes one run and returns its report. An error means the
// run could not be carried out at all; failed operations and invariant
// violations are in the report.
func runWorkload(opt runOptions) (*runReport, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(generatorProcs()))
	clk := startWorkClock()
	defer clk.Stop()
	cfg := baseConfig()
	cfg.OutputCap, cfg.OutputPerInput, cfg.DecodeRounds = opt.Workload.OutputCap, opt.Workload.OutputPerInput, opt.Workload.MeanOut
	rep := &runReport{
		Header: header{
			Commit: commitID(), GoVersion: runtime.Version(),
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seed: opt.Seed, Seconds: opt.Seconds, Trace: opt.Trace,
			Workload: opt.Workload, SUT: cfg,
		},
		Phases: make(map[string]counts),
	}
	ph := phases{
		satWarm: secs(satWarmShare * opt.Seconds),
		sat:     secs(satShare * opt.Seconds),
		open:    openShare * opt.Seconds,
	}
	if opt.Trace {
		// The traced run splits the same budget between an untraced and a
		// traced saturation half (their ratio is the tracing overhead), a
		// shorter open phase and the layer probes.
		ph.sat /= 2
		ph.open /= 2
	}
	satN := satClients + int(satHeadroom*opt.Workload.SatRate*(ph.satWarm+ph.sat).Seconds())
	sat, err := opt.Workload.satTrace(satN, opt.Seed, cfg.Model.VocabSize)
	if err != nil {
		return nil, err
	}
	open, err := opt.Workload.openTrace(ph.open, opt.Seed, cfg.Model.VocabSize)
	if err != nil {
		return nil, err
	}
	if len(open) == 0 {
		return nil, fmt.Errorf("open phase of %.2f s at %.0f req/s generated no requests", ph.open, opt.Workload.OpenRate)
	}
	if opt.Trace {
		err = runTraced(opt, cfg, clk, ph, sat, open, rep)
	} else {
		err = runUntraced(opt, cfg, clk, ph, sat, open, rep)
	}
	if err != nil {
		return nil, err
	}
	wall := time.Since(clk.Start())
	work, _ := clk.Now()
	rep.Notes = append(rep.Notes, fmt.Sprintf("machine speed over the run: %.3f (%.1f work-seconds in %.1f wall seconds); times and rates above are work time", work/wall.Seconds(), work, wall.Seconds()))
	return rep, nil
}

// phases is one run's time budget.
type phases struct {
	satWarm, sat time.Duration
	open         float64 // seconds
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// satSlice is the length of one measured slice of the saturation window.
// Throughput is reported as the median over slices, so a slice in which the
// speedometer and the stack disagreed does not move the figure.
const satSlice = 500 * time.Millisecond

// satWindow is what the saturation phase measured.
type satWindow struct {
	res phaseResult
	// Per slice: deliveries and tokens (input + generated) delivered per
	// work-second.
	rps, toks []float64
	// Over the whole window (counts do not depend on the machine's speed, so
	// there is nothing for a median over slices to reject): heap objects and
	// heap bytes allocated per delivery.
	allocs, bytes float64
	// speed is the machine's mean speed over the window.
	speed float64
}

// runSat keeps the stack saturated with satClients closed-loop clients and
// measures throughput per slice, and allocation, after the warm-up.
func runSat(s *sut, clk *workClock, reqs []request, ph phases, onSend func(i int)) satWindow {
	type edge struct {
		t  time.Time
		ms runtime.MemStats
	}
	nslices := max(1, int(ph.sat/satSlice))
	edges := make([]edge, 0, nslices+1)
	res := runClosedLoop(s, clk, reqs, satClients, ph.satWarm, ph.sat, nslices, onSend, func() {
		var e edge
		if len(edges) == 0 || len(edges) == nslices { // allocation is taken over the whole window
			runtime.ReadMemStats(&e.ms)
		}
		e.t = time.Now()
		edges = append(edges, e)
	})
	w := satWindow{res: res}
	var total float64
	for k := 1; k < len(edges); k++ {
		from, to := edges[k-1], edges[k]
		n, tok := 0.0, 0.0
		for i, sm := range res.samples {
			if sm.kind == delivered && sm.served.After(from.t) && !sm.served.After(to.t) {
				n++
				tok += float64(len(res.reqs[i].Tokens) + len(sm.output))
			}
		}
		work := clk.Between(from.t, to.t)
		w.rps = append(w.rps, n/work)
		w.toks = append(w.toks, tok/work)
		total += n
	}
	first, last := edges[0], edges[len(edges)-1]
	w.allocs = div(float64(last.ms.Mallocs-first.ms.Mallocs), total)
	w.bytes = div(float64(last.ms.TotalAlloc-first.ms.TotalAlloc), total)
	w.speed = clk.Between(first.t, last.t) / last.t.Sub(first.t).Seconds()
	return w
}

// runUntraced is the end-to-end run: set-up (repeated), saturation phase,
// open-loop phase, drain, invariants, output check.
func runUntraced(opt runOptions, cfg sutConfig, clk *workClock, ph phases, sat, open []request, rep *runReport) error {
	setups := opt.Setups
	if setups <= 0 {
		setups = setupRepeats
	}
	var s *sut
	var setupSecs []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			// Tear the previous instance down and collect it, so that every
			// set-up starts from the same heap and mem_sys_mb is one
			// instance's memory, not three.
			s.Drain()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if s, err = newSUT(cfg, traceHooks{}); err != nil {
			return err
		}
		setupSecs = append(setupSecs, clk.Between(t0, time.Now()))
	}

	var drained runtime.MemStats
	satW := runSat(s, clk, sat, ph, nil)
	satRes := satW.res
	openRes := runPhase(s, clk, open, secs(maxOpenWall*ph.open), nil)
	s.Drain()
	runtime.ReadMemStats(&drained)
	rep.Notes = append(rep.Notes, fmt.Sprintf("machine speed: %.3f over the sat window, %.3f over the open phase (%.1f work-seconds in %.1f wall seconds; by CPU %.3f)",
		satW.speed, openRes.work()/openRes.wall().Seconds(), openRes.work(), openRes.wall().Seconds(), clk.SpeedByCPU(openRes.start, openRes.sendEnd)))

	m := newMetricSet(endToEnd)
	m.set("setup_s", median(setupSecs))
	m.set("sat_rps", median(satW.rps))
	m.set("sat_tok_per_s", median(satW.toks))
	m.set("allocs_per_req", satW.allocs)
	m.set("bytes_per_req", satW.bytes)
	m.set("mem_sys_mb", float64(drained.Sys)/(1<<20))
	openMetrics(opt.Workload, openRes, m, rep)

	rep.Phases["sat"], rep.Phases["open"] = satRes.counts(), openRes.counts()
	rep.Violations = append(rep.Violations, checkInvariants(s, satRes, openRes)...)
	rep.Violations = append(rep.Violations, checkGenerator(openRes)...)
	rep.Checked = checkOutputs(cfg, opt.Seed, &satRes, &openRes)
	// Re-tally: an output that fails the check turns its request into a
	// failed operation.
	rep.Phases["sat"], rep.Phases["open"] = satRes.counts(), openRes.counts()
	rep.Attempted = len(satRes.samples) + len(openRes.samples)
	rep.Failed = rep.Phases["sat"].Failed + rep.Phases["open"].Failed
	rep.Metrics = m.result()
	return nil
}

// openMetrics fills the open-phase end-to-end metrics. Latency is over the
// delivered requests of non-flooding tenants: a flooder's latency is set by
// its own backlog.
func openMetrics(w workloadDef, p phaseResult, m *metricSet, rep *runReport) {
	openDur := p.work()
	var lat stats.Sample
	var utility float64
	type tally struct{ sent, onTime int }
	tenants := make(map[string]*tally)
	for i, sm := range p.samples {
		rq := p.reqs[i]
		t := tenants[rq.Tenant]
		if t == nil {
			t = &tally{}
			tenants[rq.Tenant] = t
		}
		t.sent++
		if sm.kind == delivered && !slices.Contains(w.Flooders, rq.Tenant) {
			lat.Add(sm.latency.Seconds() * 1000)
		}
		if sm.onTime {
			t.onTime++
			utility += classWeight(rq.Class) / float64(len(rq.Tokens))
		}
	}
	c := p.counts()
	p90, _ := tailPercentile(&lat, 90)
	m.set("lat_p90_ms", p90)
	m.set("goodput_rps", float64(c.OnTime)/openDur)
	m.set("utility_per_s", utility/openDur)
	m.set("ontime_pct", pct(float64(c.OnTime), float64(c.Sent)))

	// The median and the tail are reported but carry no bound: over ten seeds
	// their quartile spread is 6-59 % (P50, worst on tenant-flood, whose
	// good-tenant latencies are bimodal with the median on the cliff) and
	// 17-40 % (P99). P90 is the highest percentile steady on all four mixes.
	p50, _ := tailPercentile(&lat, 50)
	p99, used := tailPercentile(&lat, 99)
	rep.Notes = append(rep.Notes, fmt.Sprintf("latency over %d delivered of %d sent: P50 %.1f ms, P%.4g %.1f ms (no bound)", lat.N(), c.Sent, p50, used, p99))

	var goodSum float64
	var goodN int
	names := make([]string, 0, len(tenants))
	for name := range tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := tenants[name]
		share := pct(float64(t.onTime), float64(t.sent))
		if len(tenants) > 1 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("tenant %s: %d sent, %.1f%% on time", name, t.sent, share))
		}
		if !slices.Contains(w.Flooders, name) {
			goodSum += share
			goodN++
		}
	}
	m.set("good_tenants_ontime_pct", div(goodSum, float64(goodN)))
}
