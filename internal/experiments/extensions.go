package experiments

import (
	"fmt"

	"tcb/internal/batch"
	"tcb/internal/sched"
	"tcb/internal/sim"
	"tcb/internal/workload"
)

// ExtOverlap measures §4.2.2 end to end in the simulator: the engine
// busy-time per scheduled request under slotted ConcatBatching with and
// without early-cleaning overlap. Per-request service time is what the
// mechanism directly reduces (end-to-end throughput moves by the same
// ~1% but is noisier across discrete scheduling rounds).
func ExtOverlap(opt Options) (*Figure, error) {
	rates := []float64{250, 450, 1000, 1500}
	fig := &Figure{
		ID:     "ext-overlap",
		Title:  "Early-cleaning overlap: engine busy-ms per request, with/without §4.2.2",
		XLabel: "rate(req/s)",
		YLabel: "busy-ms/request",
		X:      rates,
	}
	for _, rate := range rates {
		trace, err := paperTrace(rate, 20, opt)
		if err != nil {
			return nil, err
		}
		for _, early := range []bool{false, true} {
			name := "slotted"
			if early {
				name = "slotted+overlap"
			}
			m, err := sim.Run(sim.System{
				Name:          name,
				Scheduler:     &sched.SlottedDAS{DAS: *expDAS()},
				Scheme:        batch.SlottedConcat,
				B:             PaperBatchRows,
				L:             PaperRowLen,
				Cost:          V100Params(),
				EarlyCleaning: early,
			}, trace)
			if err != nil {
				return nil, fmt.Errorf("rate %g early=%v: %w", rate, early, err)
			}
			if m.Scheduled == 0 {
				return nil, fmt.Errorf("rate %g early=%v: nothing scheduled", rate, early)
			}
			fig.AddPoint(name, 1000*m.BusySeconds/float64(m.Scheduled))
		}
	}
	return fig, fig.Validate()
}

// ExtBimodal stresses the paper's robustness claim ("ConcatBatching …
// is able to handle requests with arbitrary length distributions", §1)
// with a bimodal chat-vs-paragraph mix under FCFS: TurboBatching must
// either split launches per mode or pad across modes, while ConcatBatching
// is insensitive.
func ExtBimodal(opt Options) (*Figure, error) {
	rates := []float64{250, 1000, 1500}
	dist := workload.BimodalLengths{
		Low:          workload.NormalLengths{Mean: 10, Variance: 9, Min: 3, Max: 100},
		High:         workload.NormalLengths{Mean: 75, Variance: 25, Min: 3, Max: 100},
		HighFraction: 0.3,
	}
	fig := &Figure{
		ID:     "ext-bimodal",
		Title:  "Serving throughput on a bimodal workload (FCFS), " + dist.Name(),
		XLabel: "rate(req/s)",
		YLabel: "resp/s",
		X:      rates,
	}
	for _, rate := range rates {
		spec := workload.PaperSpec(rate, opt.Duration, opt.Seed)
		spec.DeadlineMin = expDeadlineMin
		spec.DeadlineMax = expDeadlineMax
		trace, err := workload.GenerateWithDist(spec, dist)
		if err != nil {
			return nil, err
		}
		for _, sysDef := range []struct {
			label  string
			scheme batch.Scheme
		}{
			{"FCFS-TNB", batch.Naive},
			{"FCFS-TTB", batch.Turbo},
			{"FCFS-TCB", batch.Concat},
		} {
			m, err := sim.Run(sim.System{
				Name:      sysDef.label,
				Scheduler: sched.FCFS{},
				Scheme:    sysDef.scheme,
				B:         PaperBatchRows,
				L:         PaperRowLen,
				Cost:      V100Params(),
			}, trace)
			if err != nil {
				return nil, fmt.Errorf("%s at %g: %w", sysDef.label, rate, err)
			}
			fig.AddPoint(sysDef.label, m.Throughput())
		}
	}
	return fig, fig.Validate()
}

// ExtEfficiency certifies DAS against the fractional upper bound of the
// offline optimum (sched.FractionalUpperBound): the reported ratio is a
// lower bound on ALG/OPT, far above the ηq/(ηq+1) worst case of
// Theorem 5.1 on realistic traces.
func ExtEfficiency(opt Options) (*Figure, error) {
	rates := []float64{100, 250, 450, 700}
	fig := &Figure{
		ID:     "ext-efficiency",
		Title:  "DAS efficiency: ALG / fractional upper bound",
		XLabel: "rate(req/s)",
		YLabel: "ratio",
		X:      rates,
	}
	for _, rate := range rates {
		trace, err := paperTrace(rate, 20, opt)
		if err != nil {
			return nil, err
		}
		// Offer the same engine-slot cadence the simulator would produce:
		// one slot per calibrated TCB batch time.
		slotSecs := 0.7 // ≈ V100Params batch time at B=64, L=100
		var slots []float64
		for t := 0.0; t < opt.Duration+expDeadlineMax; t += slotSecs {
			slots = append(slots, t)
		}
		ratio := sched.EfficiencyRatio(expDAS(), trace, slots, PaperBatchRows, PaperRowLen)
		fig.AddPoint("DAS/UB", ratio)
	}
	fig.Notes = append(fig.Notes,
		"ratio lower-bounds ALG/OPT; Theorem 5.1 guarantees only ηq/(ηq+1)")
	return fig, fig.Validate()
}

// ExtScaling measures multi-device scale-out: saturated DAS-TCB throughput
// vs accelerator count. The paper evaluates a single V100; this extension
// shows the scheduling/batching pipeline keeps near-linear scaling when one
// replica's devices share its pool and each decides as soon as it frees.
func ExtScaling(opt Options) (*Figure, error) {
	devices := []float64{1, 2, 4, 8}
	fig := &Figure{
		ID:     "ext-scaling",
		Title:  "Multi-device scale-out: saturated DAS-TCB throughput",
		XLabel: "devices",
		YLabel: "resp/s",
		X:      devices,
	}
	// Saturate even the 8-device configuration.
	trace, err := paperTrace(4000, 20, opt)
	if err != nil {
		return nil, err
	}
	for _, g := range devices {
		m, err := sim.Run(sim.System{
			Name:      fmt.Sprintf("DAS-TCB x%d", int(g)),
			Scheduler: expDAS(),
			Scheme:    batch.Concat,
			B:         PaperBatchRows,
			L:         PaperRowLen,
			Cost:      V100Params(),
			Devices:   int(g),
		}, trace)
		if err != nil {
			return nil, err
		}
		fig.AddPoint("throughput", m.Throughput())
	}
	return fig, fig.Validate()
}

// ExtLatency reports end-to-end latency percentiles (p50/p95) per batching
// scheme at a near-saturation arrival rate: the responsiveness counterpart
// to the throughput figures. Latency is completion minus arrival in
// simulated seconds, over scheduled requests.
func ExtLatency(opt Options) (*Figure, error) {
	const rate = 400
	fig := &Figure{
		ID:     "ext-latency",
		Title:  fmt.Sprintf("Latency percentiles at %d req/s (DAS scheduling)", rate),
		XLabel: "percentile",
		YLabel: "seconds",
		X:      []float64{50, 95},
	}
	trace, err := paperTrace(rate, 20, opt)
	if err != nil {
		return nil, err
	}
	for _, sysDef := range []struct {
		label  string
		scheme batch.Scheme
	}{
		{"DAS-TNB", batch.Naive},
		{"DAS-TTB", batch.Turbo},
		{"DAS-TCB", batch.Concat},
	} {
		m, err := sim.Run(sim.System{
			Name:      sysDef.label,
			Scheduler: expDAS(),
			Scheme:    sysDef.scheme,
			B:         PaperBatchRows,
			L:         PaperRowLen,
			Cost:      V100Params(),
		}, trace)
		if err != nil {
			return nil, err
		}
		if m.Latency.N() == 0 {
			return nil, fmt.Errorf("%s: no latency samples", sysDef.label)
		}
		fig.AddPoint(sysDef.label, m.Latency.Percentile(50))
		fig.AddPoint(sysDef.label, m.Latency.Percentile(95))
	}
	return fig, fig.Validate()
}

// ExtWeighted exercises the weighted-utility generalization (SLA tiers):
// 20% of requests are premium (Weight 5) and the figure reports the
// fraction of premium requests served by deadline under each scheduler at
// a saturating rate. DAS's utility-driven selection should protect the
// premium tier; FCFS and DEF are weight-blind.
func ExtWeighted(opt Options) (*Figure, error) {
	const rate = 800
	const premiumWeight = 5
	fig := &Figure{
		ID:     "ext-weighted",
		Title:  "SLA tiers: premium-served fraction at 800 req/s (20% premium, weight 5)",
		XLabel: "tier(0=std,1=premium)",
		YLabel: "served-fraction",
		X:      []float64{0, 1},
	}
	trace, err := paperTrace(rate, 20, opt)
	if err != nil {
		return nil, err
	}
	// Deterministically mark every 5th request premium.
	premium := make(map[int64]bool)
	for i, r := range trace {
		if i%5 == 0 {
			r.Weight = premiumWeight
			premium[r.ID] = true
		}
	}
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return expDAS() },
		func() sched.Scheduler { return sched.SJF{} },
		func() sched.Scheduler { return sched.FCFS{} },
	} {
		s := mk()
		// The sim reports aggregate counts only; the wrapper records which
		// requests were scheduled so they can be split by tier.
		served := make(map[int64]bool)
		if _, err := sim.Run(sim.System{
			Name:      s.Name(),
			Scheduler: &recordingScheduler{inner: s, served: served},
			Scheme:    batch.Concat,
			B:         PaperBatchRows,
			L:         PaperRowLen,
			Cost:      V100Params(),
		}, trace); err != nil {
			return nil, err
		}
		var stdTotal, stdServed, premTotal, premServed float64
		for _, r := range trace {
			if premium[r.ID] {
				premTotal++
				if served[r.ID] {
					premServed++
				}
			} else {
				stdTotal++
				if served[r.ID] {
					stdServed++
				}
			}
		}
		fig.AddPoint(s.Name(), stdServed/stdTotal)
		fig.AddPoint(s.Name(), premServed/premTotal)
	}
	return fig, fig.Validate()
}

// recordingScheduler wraps a scheduler and records which requests it
// scheduled (for per-tier accounting the aggregate metrics do not carry).
type recordingScheduler struct {
	inner  sched.Scheduler
	served map[int64]bool
}

func (r *recordingScheduler) Name() string { return r.inner.Name() }

func (r *recordingScheduler) Schedule(now float64, pending []*sched.Request, B, L int) sched.Decision {
	dec := r.inner.Schedule(now, pending, B, L)
	for _, req := range dec.Chosen() {
		r.served[req.ID] = true
	}
	return dec
}
