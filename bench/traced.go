package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"tcb/internal/cluster"
	"tcb/internal/cost"
	"tcb/internal/fair"
	"tcb/internal/stats"
	"tcb/internal/tensor"
)

// probeShare is the part of a traced run's seconds the model replay may use.
const probeShare = 0.1

// serveTotals sums the per-replica serve.Stats of a cluster snapshot.
type serveTotals struct {
	served                                    []int64 // per replica
	batches, missed, shed, retried            int64
	scheduleNs, computeNs, cleanupNs          int64
	hits, misses, evictions, saved, residentB int64
}

func totals(st cluster.Stats) serveTotals {
	var t serveTotals
	for _, r := range st.Replicas {
		s := r.Stats
		t.served = append(t.served, s.Served)
		t.batches += s.Batches
		t.missed += s.Missed
		t.shed += s.Shed
		t.retried += s.Retried
		t.scheduleNs += s.ScheduleNs
		t.computeNs += s.ComputeNs
		t.cleanupNs += s.CleanupNs
	}
	t.hits, t.misses = st.Prefix.Hits, st.Prefix.Misses
	t.evictions, t.saved, t.residentB = st.Prefix.Evictions, st.Prefix.TokensSaved, st.Prefix.ResidentBytes
	return t
}

// runTraced is the per-layer run: an untraced saturation half, then the same
// saturation half and a shorter open phase with every wrapper installed,
// then the layer probes. No end-to-end number comes from here.
func runTraced(opt runOptions, cfg sutConfig, clk *workClock, ph phases, sat, open []request, rep *runReport) error {
	plain, err := newSUT(cfg, traceHooks{})
	if err != nil {
		return err
	}
	plainW := runSat(plain, clk, append([]request(nil), sat...), ph, nil)
	plainRes := plainW.res
	plain.Drain()
	rep.Violations = append(rep.Violations, checkInvariants(plain, plainRes)...)

	tr := newTracer(sat, open)
	s, err := newSUT(cfg, tr.hooks())
	if err != nil {
		return err
	}
	tr.mu.Lock()
	tr.cost, tr.admit = s.cost.PredictBatchDuration, s.cost.PredictAdmissionDuration
	warmLaunches, warmScheds := len(tr.launches), len(tr.scheds)
	tr.mu.Unlock()

	// held[i]: request i declares a prefix that some replica already holds at
	// the moment it is sent — the routing-affinity opportunity.
	held := make([]bool, len(sat)+len(open))
	noteHeld := func(reqs []request, offset int) func(int) {
		return func(i int) {
			if rq := reqs[i]; rq.PrefixLen > 0 {
				held[offset+i] = s.prefixResident(rq.Tokens, rq.PrefixLen)
			}
		}
	}
	epoch := time.Now()
	before := s.Stats()
	satW := runSat(s, clk, sat, ph, noteHeld(sat, 0))
	satRes := satW.res
	openRes := runPhase(s, clk, open, secs(maxOpenWall*ph.open), noteHeld(open, len(sat)))
	open = openRes.reqs // what was sent
	loaded := s.Stats() // before Drain clears the prefix caches
	s.Drain()
	after := s.Stats()

	rep.Phases["sat-untraced"] = plainRes.counts()
	rep.Violations = append(rep.Violations, checkInvariants(s, satRes, openRes)...)
	rep.Violations = append(rep.Violations, checkGenerator(openRes)...)
	rep.Checked = checkOutputs(cfg, opt.Seed, &plainRes, &satRes, &openRes)
	rep.Phases["sat"], rep.Phases["open"] = satRes.counts(), openRes.counts()
	rep.Attempted = len(plainRes.samples) + len(satRes.samples) + len(open)
	rep.Failed = rep.Phases["sat-untraced"].Failed + rep.Phases["sat"].Failed + rep.Phases["open"].Failed

	// Everything below runs on a quiet process: the stack is drained. The
	// kernels' worker plan is pinned to one worker, as it is while serving
	// (each replica's pipeline reserves a core).
	launches, scheds := tr.launches[warmLaunches:], tr.scheds[warmScheds:]
	m := newMetricSet(perLayer)
	sb := &spanBuilder{epoch: epoch}
	tr.buildSpans(sb, []int{0, len(sat)}, satRes, openRes)
	release := tensor.Reserve(runtime.GOMAXPROCS(0) - 1)
	mp := replayLaunches(cfg, launches, time.Duration(probeShare*opt.Seconds*float64(time.Second)), sb)
	agg := aggregateLaunches(cfg, launches)
	tp := probeTensor(cfg, agg.meanLiveSegs(), agg.meanResident(), agg.encFlops, agg.decFlops)
	declared := loaded.Prefix.Hits+loaded.Prefix.Misses > before.Prefix.Hits+before.Prefix.Misses
	sp := probeSmall(cfg, s.cost, launches, declared)
	release()
	poolNS := probePoolOverhead()
	httpUS, err := probeHTTP(cfg, s.cost, open)
	if err != nil {
		rep.Violations = append(rep.Violations, err.Error())
	}

	b0, b1, b2 := totals(before), totals(loaded), totals(after)
	sent := float64(len(satRes.samples) + len(open))

	// cluster
	var submit stats.Sample
	for _, sm := range openRes.samples {
		submit.Add(float64(sm.submit.Nanoseconds()) / 1e3)
	}
	m.set("cluster.submit_us_p50", submit.Percentile(50))
	var servedMin, servedMax, servedSum float64
	for i := range b2.served {
		d := float64(b2.served[i] - b0.served[i])
		if i == 0 || d < servedMin {
			servedMin = d
		}
		servedMax = max(servedMax, d)
		servedSum += d
	}
	m.set("cluster.route_imbalance_pct", pct(servedMax-servedMin, servedSum))
	m.set("cluster.failovers", float64(after.Failovers-before.Failovers))
	m.set("cluster.probe_failures", float64(after.ProbeFailures-before.ProbeFailures))

	// serve
	var wait, deliver stats.Sample
	refusedN := 0
	for i, sm := range openRes.samples {
		rt := tr.reqs[len(sat)+i]
		if sm.kind == refused {
			refusedN++
		}
		if sm.kind != delivered || rt.seated.IsZero() {
			continue
		}
		wait.Add(rt.seated.Sub(sm.sent.Add(sm.submit)).Seconds() * 1000)
		if !rt.retired.IsZero() {
			deliver.Add(float64(rt.retireDone.Sub(rt.retired).Nanoseconds()) / 1e3)
		}
	}
	w50, _ := tailPercentile(&wait, 50)
	w99, _ := tailPercentile(&wait, 99)
	d50, _ := tailPercentile(&deliver, 50)
	m.set("serve.queue_wait_ms_p50", w50)
	m.set("serve.queue_wait_ms_p99", w99)
	m.set("serve.deliver_us_p50", d50)
	batches := float64(b2.batches - b0.batches)
	m.set("serve.schedule_us_per_batch", div(float64(b2.scheduleNs-b0.scheduleNs)/1e3, batches))
	m.set("serve.cleanup_us_per_batch", div(float64(b2.cleanupNs-b0.cleanupNs)/1e3, batches))
	stage := float64(b2.scheduleNs - b0.scheduleNs + b2.computeNs - b0.computeNs + b2.cleanupNs - b0.cleanupNs)
	m.set("serve.compute_share_pct", pct(float64(b2.computeNs-b0.computeNs), stage))
	m.set("serve.reqs_per_batch", div(servedSum, batches))
	m.set("serve.missed", float64(b2.missed-b0.missed))
	m.set("serve.refused", float64(refusedN+satRes.counts().Refused))
	m.set("serve.shed", float64(b2.shed-b0.shed))
	m.set("serve.retried", float64(b2.retried-b0.retried))
	m.set("serve.http_overhead_us", httpUS)

	// fair
	onTimeShare := make(map[string]float64)
	tenantSent := make(map[string]float64)
	var flooderDelivered, allDelivered float64
	for i, sm := range openRes.samples {
		name := open[i].Tenant
		tenantSent[name]++
		if sm.onTime {
			onTimeShare[name]++
		}
		if sm.kind == delivered {
			allDelivered++
			if slices.Contains(opt.Workload.Flooders, name) {
				flooderDelivered++
			}
		}
	}
	for name, n := range tenantSent {
		onTimeShare[name] /= n
	}
	m.set("fair.stamp_ns", sp.stampNS)
	m.set("fair.limiter_take_ns", sp.takeNS)
	m.set("fair.jain_goodput", fair.JainIndexMap(onTimeShare))
	m.set("fair.flooder_share_pct", pct(flooderDelivered, allDelivered))

	// sched
	var schedUS stats.Sample
	var pool, chose float64
	for _, c := range scheds {
		schedUS.Add(float64(c.end.Sub(c.start).Nanoseconds()) / 1e3)
		pool += float64(c.pool)
		chose += float64(c.chose)
	}
	s50, _ := tailPercentile(&schedUS, 50)
	s99, _ := tailPercentile(&schedUS, 99)
	m.set("sched.schedule_us_p50", s50)
	m.set("sched.schedule_us_p99", s99)
	m.set("sched.pool_len_mean", div(pool, float64(len(scheds))))
	m.set("sched.chosen_per_call", div(chose, float64(len(scheds))))

	// batch
	m.set("batch.pack_us", sp.packUS)
	m.set("batch.fill_pct", pct(agg.usedTokens, agg.totalTokens))
	m.set("batch.padded_tok_pct", pct(agg.totalTokens-agg.usedTokens, agg.totalTokens))

	// engine
	nl := float64(len(launches))
	m.set("engine.prepare_us_per_batch", div(agg.prepare.Seconds()*1e6, nl))
	m.set("engine.run_ms_per_batch", div(agg.run.Seconds()*1e3, nl))
	m.set("engine.us_per_token", div(agg.run.Seconds()*1e6, agg.inTokens+agg.outTokens))
	var satTokens float64
	for i, sm := range satRes.samples {
		if sm.kind == delivered {
			satTokens += float64(len(sat[i].Tokens) - tr.reqs[i].cachedLen + len(sm.output))
		}
	}
	m.set("engine.tok_per_s", div(satTokens, satRes.end.Sub(satRes.start).Seconds()))
	m.set("engine.steps_per_batch", div(agg.steps, nl))
	m.set("engine.occupancy_pct", pct(agg.liveTokSteps, agg.capTokSteps))
	m.set("engine.slot_idle_steps_per_batch", div(agg.slotIdle, nl))
	m.set("engine.refill_admitted_pct", pct(agg.admitted, agg.items+agg.admitted))
	m.set("engine.retired_early_pct", pct(agg.retiredEarly, agg.items+agg.admitted))

	// model
	m.set("model.encode_us_per_token", div(mp.encode.Seconds()*1e6, float64(mp.encTokens)))
	m.set("model.decode_us_per_step_seg", div(mp.decode.Seconds()*1e6, float64(mp.segSteps)))
	m.set("model.encode_share_pct", pct(mp.encode.Seconds(), (mp.encode+mp.decode).Seconds()))
	m.set("model.decode_share_pct", pct(mp.decode.Seconds(), (mp.encode+mp.decode).Seconds()))
	m.set("model.insert_segment_us", mp.insertUS)
	m.set("model.remove_segment_us", mp.removeUS)
	m.set("model.build_prefix_kv_us", median(mp.buildKV))

	// tensor
	m.set("tensor.peak_gflops", tp.peakGFLOPS)
	m.set("tensor.stream_gbps", tp.streamGBps)
	m.set("tensor.gemm_gflops_wide", tp.wide)
	m.set("tensor.gemm_gflops_scalar", tp.scalar)
	m.set("tensor.gemm_gflops_int8", tp.int8)
	m.set("tensor.gemm_roofline_pct", tp.rooflinePct)
	m.set("tensor.attend_gflops", tp.attendGFLOPS)
	m.set("tensor.attend_cached_us_per_seg", tp.attendCachedUSPerSeg)
	m.set("tensor.wide_calls_per_req", float64(loaded.Kernels.Wide-before.Kernels.Wide)/sent)
	m.set("tensor.int8_calls_per_req", float64(loaded.Kernels.Int8-before.Kernels.Int8)/sent)
	m.set("tensor.scalar_calls_per_req", float64(loaded.Kernels.Scalar-before.Kernels.Scalar)/sent)
	m.set("tensor.pool_run_overhead_ns", poolNS)

	// prefixcache
	var inTokens, routable, routed float64
	for i, rq := range append(append([]request(nil), sat...), open...) {
		if i < len(sat) && i >= len(satRes.samples) {
			continue // generated for the closed loop but never sent
		}
		inTokens += float64(len(rq.Tokens))
		if held[i] {
			routable++
			if tr.reqs[i].cachedLen > 0 {
				routed++
			}
		}
	}
	hits, misses := float64(b1.hits-b0.hits), float64(b1.misses-b0.misses)
	m.set("prefixcache.hit_pct", pct(hits, hits+misses))
	m.set("prefixcache.tokens_saved_pct", pct(float64(b1.saved-b0.saved), inTokens))
	m.set("prefixcache.evictions", float64(b1.evictions-b0.evictions))
	m.set("prefixcache.resident_mb", float64(b1.residentB)/(1<<20))
	m.set("prefixcache.acquire_us", sp.acquireUS)
	m.set("prefixcache.insert_us", sp.insertUS)
	m.set("prefixcache.affinity_pct", pct(routed, routable))

	// gpu
	peak, outstanding := s.ledgerTotals()
	m.set("gpu.peak_reserved_mb", float64(peak)/(1<<20))
	m.set("gpu.ledger_ns_per_op", sp.ledgerNS)
	m.set("gpu.outstanding_after_drain", float64(outstanding))

	// cost
	mape, pearson := costFidelity(launches)
	m.set("cost.batch_mape_pct", mape)
	m.set("cost.batch_pearson", pearson)
	m.set("cost.predict_ns", sp.predictNS)

	// bench
	lagP99, latePct := lagStats(openRes)
	m.set("bench.gen_lag_p99_ms", lagP99)
	m.set("bench.late_sends_pct", latePct)
	plainRPS, tracedRPS := median(plainW.rps), median(satW.rps)
	m.set("bench.trace_overhead_pct", pct(plainRPS-tracedRPS, plainRPS))
	m.set("bench.samples", float64(openRes.counts().Delivered))
	rep.Metrics = m.result()
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("sat_rps untraced %.1f, traced %.1f; %d launches, %d replayed through the model layer", plainRPS, tracedRPS, len(launches), mp.replayed),
		"tensor.gemm_*: FLOPs and bytes are computed from the GEMM shapes, not measured; tensor.peak_gflops is a scalar Go multiply-add loop, tensor.stream_gbps a 32 MiB copy")

	spans := sb.spans
	summary := summarise(spans)
	for _, lt := range summary {
		rep.Notes = append(rep.Notes, fmt.Sprintf("span %-16s n=%-6d total %10.1f ms  self %10.1f ms", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS))
	}
	if opt.TraceDir != "" {
		if err := writeTrace(opt.TraceDir, opt.Workload.Name, traceFile{Header: rep.Header, Summary: summary, Spans: spans}); err != nil {
			return err
		}
	}
	return nil
}

// launchAgg totals what the runner wrapper saw over the traced launches.
type launchAgg struct {
	prepare, run                  time.Duration
	items, admitted, retiredEarly float64
	inTokens, outTokens           float64
	usedTokens, totalTokens       float64
	steps, slotIdle               float64
	liveTokSteps, capTokSteps     float64
	reqSteps                      float64
	encFlops, decFlops            float64
}

func aggregateLaunches(cfg sutConfig, launches []*launchTrace) launchAgg {
	var a launchAgg
	perTok := cost.TokenFLOPs(cfg.Model)
	encShare := float64(cfg.Model.EncLayers) / float64(cfg.Model.EncLayers+2*cfg.Model.DecLayers)
	for _, l := range launches {
		a.prepare += l.prepEnd.Sub(l.prepStart)
		a.run += l.runEnd.Sub(l.runStart)
		a.items += float64(l.b.NumItems())
		a.admitted += float64(l.admitted)
		a.usedTokens += float64(l.b.UsedTokens())
		a.totalTokens += float64(l.b.TotalTokens())
		a.inTokens += float64(l.b.UsedTokens() + l.admitToks)
		a.outTokens += float64(l.outTokens)
		a.reqSteps += float64(l.reqSteps)
		// Encoder GEMMs run over whole padded rows at launch and over
		// pad-free rows per admission; decoder GEMMs once per segment-step.
		a.encFlops += float64(l.b.TotalTokens()+l.admitToks) * perTok * encShare
		a.decFlops += float64(l.reqSteps) * perTok * (1 - encShare)
		if l.rep != nil && l.rep.Refill != nil {
			r := l.rep.Refill
			a.steps += float64(r.Steps)
			a.slotIdle += float64(r.SlotIdleSteps)
			a.liveTokSteps += float64(r.LiveTokenSteps)
			a.capTokSteps += float64(r.CapacityTokenSteps)
			a.retiredEarly += float64(r.RetiredEarly)
		}
	}
	return a
}

// meanLiveSegs is the mean number of segments advanced per decode step.
func (a launchAgg) meanLiveSegs() int { return int(div(a.reqSteps, a.steps) + 0.5) }

// meanResident is the mean resident input length of a seated request.
func (a launchAgg) meanResident() int { return int(div(a.inTokens, a.items+a.admitted) + 0.5) }

// costFidelity compares the cost model's prediction for each launch (its
// initial batch plus every admission it seated) with the duration the runner
// wrapper measured: mean absolute percentage error and Pearson correlation.
func costFidelity(launches []*launchTrace) (mapePct, pearson float64) {
	var xs, ys []float64
	var ape float64
	for _, l := range launches {
		meas := l.runEnd.Sub(l.runStart).Seconds()
		if meas <= 0 || l.err != nil {
			continue
		}
		pred := l.predicted.Seconds()
		xs, ys = append(xs, pred), append(ys, meas)
		ape += math.Abs(pred-meas) / meas
	}
	if len(xs) == 0 {
		return 0, 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i] / float64(len(xs))
		my += ys[i] / float64(len(xs))
	}
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return 100 * ape / float64(len(xs)), div(sxy, math.Sqrt(sxx*syy))
}
