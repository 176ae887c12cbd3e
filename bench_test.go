// Benchmarks regenerating every figure of the paper's evaluation (§6.2)
// plus the ablations DESIGN.md calls out. Each benchmark runs the
// corresponding experiment and reports the figure's headline numbers as
// custom metrics, so `go test -bench=. -benchmem` reproduces the paper's
// evaluation end to end. Durations are kept short per iteration; the
// shapes are what is under test (see EXPERIMENTS.md for the full-scale
// paper-vs-measured record).
package tcb_test

import (
	"testing"

	"tcb/internal/experiments"
)

// benchOpt keeps per-iteration experiment cost bounded.
func benchOpt() experiments.Options { return experiments.Options{Duration: 3, Seed: 1} }

// reportSaturated reports each series' value at the final (saturated) x.
func reportSaturated(b *testing.B, fig, unit string, run func() (*experiments.Figure, error)) {
	b.Helper()
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		f, err := run()
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	for _, s := range last.Series {
		b.ReportMetric(s.Y[len(s.Y)-1], s.Name+"_"+unit)
	}
}

// BenchmarkFig09UtilityVsRate regenerates Fig. 9: total utility vs arrival
// rate for DAS-{TNB,TTB,TCB}; reported metrics are the saturated (1500
// req/s) utilities. Paper: TCB 2.20×/1.29× over TNB/TTB after saturation.
func BenchmarkFig09UtilityVsRate(b *testing.B) {
	reportSaturated(b, "fig09", "utility", func() (*experiments.Figure, error) {
		return experiments.Fig09(benchOpt())
	})
}

// BenchmarkFig10ThroughputVsRate regenerates Fig. 10: serving throughput vs
// arrival rate. Paper: maximum gaps 2.22× (TNB) and 1.48× (TTB).
func BenchmarkFig10ThroughputVsRate(b *testing.B) {
	reportSaturated(b, "fig10", "resp_per_s", func() (*experiments.Figure, error) {
		return experiments.Fig10(benchOpt())
	})
}

// BenchmarkFig11FCFSVar20 regenerates Fig. 11: throughput under FCFS with
// length variance 20. Paper: TCB 3.33×/1.52× over TNB/TTB at maximum.
func BenchmarkFig11FCFSVar20(b *testing.B) {
	reportSaturated(b, "fig11", "resp_per_s", func() (*experiments.Figure, error) {
		return experiments.Fig11(benchOpt())
	})
}

// BenchmarkFig12FCFSVar100 regenerates Fig. 12: variance 100, where the
// TCB:TTB gap widens. Paper: gap grows to 1.72×.
func BenchmarkFig12FCFSVar100(b *testing.B) {
	reportSaturated(b, "fig12", "resp_per_s", func() (*experiments.Figure, error) {
		return experiments.Fig12(benchOpt())
	})
}

// slottedBench measures Fig. 13/14-style speedups on the real engine at a
// reduced model scale (full scale is cmd/tcb-bench's job) and reports the
// best speedup across slot counts.
func slottedBench(b *testing.B, rows int) {
	opt := experiments.DefaultSlottedOptions(rows)
	opt.RowLen = 200
	opt.ReqLen = 20
	opt.SlotCounts = []int{1, 2, 5, 10}
	opt.Reps = 1
	var best float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.SlottedSpeedup(opt)
		if err != nil {
			b.Fatal(err)
		}
		best = 1.0
		for _, s := range fig.Series {
			for _, y := range s.Y {
				if y > best {
					best = y
				}
			}
		}
	}
	b.ReportMetric(best, "max_speedup")
}

// BenchmarkFig13SlottedB10 regenerates Fig. 13 (batch size 10). Paper: up
// to ~1.18× from slotting.
func BenchmarkFig13SlottedB10(b *testing.B) { slottedBench(b, 10) }

// BenchmarkFig14SlottedB32 regenerates Fig. 14 (batch size 32). Paper: up
// to 2.31× at 7 slots.
func BenchmarkFig14SlottedB32(b *testing.B) { slottedBench(b, 32) }

// reportMean reports each series' mean across the sweep.
func reportMean(b *testing.B, run func() (*experiments.Figure, error)) {
	b.Helper()
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		f, err := run()
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	for _, s := range last.Series {
		var sum float64
		for _, y := range s.Y {
			sum += y
		}
		b.ReportMetric(sum/float64(len(s.Y)), s.Name+"_utility")
	}
}

// BenchmarkFig15aBatchSize regenerates Fig. 15a: utility vs batch size for
// DAS/SJF/FCFS/DEF on the TCB engine. Paper: DAS best at all batch sizes.
func BenchmarkFig15aBatchSize(b *testing.B) {
	reportMean(b, func() (*experiments.Figure, error) { return experiments.Fig15a(benchOpt()) })
}

// BenchmarkFig15bVariance regenerates Fig. 15b: utility vs length variance
// at batch size 16.
func BenchmarkFig15bVariance(b *testing.B) {
	reportMean(b, func() (*experiments.Figure, error) { return experiments.Fig15b(benchOpt()) })
}

// BenchmarkFig15cRowLength regenerates Fig. 15c: utility vs batch row
// length. Paper: DAS ≈ 40% above SJF.
func BenchmarkFig15cRowLength(b *testing.B) {
	reportMean(b, func() (*experiments.Figure, error) { return experiments.Fig15c(benchOpt()) })
}

// BenchmarkFig16DASOverhead regenerates Fig. 16: DAS runtime as a
// percentage of batch inference time, at 100–400 req/s. Paper: ≤ 2%.
func BenchmarkFig16DASOverhead(b *testing.B) {
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig16(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	v, err := last.Get("DAS/batch (%)", len(last.X)-1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v, "overhead_pct_at_400rps")
}

// BenchmarkAblationEtaSweep sweeps DAS's η (q = 1−η).
func BenchmarkAblationEtaSweep(b *testing.B) {
	reportMean(b, func() (*experiments.Figure, error) { return experiments.AblationEta(benchOpt()) })
}

// BenchmarkAblationSlotPolicy compares Algorithm 2's adaptive slot size
// against fixed sizes.
func BenchmarkAblationSlotPolicy(b *testing.B) {
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		f, err := experiments.AblationSlotPolicy(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	adaptive, err := last.Get("utility", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(adaptive, "adaptive_utility")
}

// BenchmarkAblationEarlyCleaning measures §4.2.2's byte-step savings on
// the real engine.
func BenchmarkAblationEarlyCleaning(b *testing.B) {
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		f, err := experiments.AblationEarlyCleaning(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	i := len(last.X) - 1
	whole, _ := last.Get("whole-batch", i)
	early, _ := last.Get("early-slot", i)
	if whole > 0 {
		b.ReportMetric(early/whole, "bytesteps_ratio")
	}
}

// BenchmarkAblationPacking compares priority first-fit packing with FFD.
func BenchmarkAblationPacking(b *testing.B) {
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		f, err := experiments.AblationPacking()
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	i := len(last.X) - 1
	ff, _ := last.Get("first-fit", i)
	ffd, _ := last.Get("ffd", i)
	b.ReportMetric(ff, "firstfit_utilization")
	b.ReportMetric(ffd, "ffd_utilization")
}

// BenchmarkExtOverlap measures §4.2.2's end-to-end effect in the simulator
// (busy-ms per request with and without early-cleaning overlap).
func BenchmarkExtOverlap(b *testing.B) {
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		f, err := experiments.ExtOverlap(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	i := len(last.X) - 1
	plain, _ := last.Get("slotted", i)
	overlap, _ := last.Get("slotted+overlap", i)
	b.ReportMetric(plain, "busy_ms_per_req")
	b.ReportMetric(overlap, "busy_ms_per_req_overlap")
}

// BenchmarkExtBimodal runs the bimodal-workload robustness sweep.
func BenchmarkExtBimodal(b *testing.B) {
	reportSaturated(b, "ext-bimodal", "resp_per_s", func() (*experiments.Figure, error) {
		return experiments.ExtBimodal(benchOpt())
	})
}

// BenchmarkExtEfficiency certifies DAS against the fractional upper bound.
func BenchmarkExtEfficiency(b *testing.B) {
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		f, err := experiments.ExtEfficiency(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	v, _ := last.Get("DAS/UB", len(last.X)-1)
	b.ReportMetric(v, "efficiency_ratio")
}

// BenchmarkExtScaling measures multi-device scale-out.
func BenchmarkExtScaling(b *testing.B) {
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		f, err := experiments.ExtScaling(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	one, _ := last.Get("throughput", 0)
	eight, _ := last.Get("throughput", len(last.X)-1)
	if one > 0 {
		b.ReportMetric(eight/one, "speedup_8_devices")
	}
}

// BenchmarkExtLatency reports p95 latency per scheme at 400 req/s.
func BenchmarkExtLatency(b *testing.B) {
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		f, err := experiments.ExtLatency(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	for _, s := range last.Series {
		b.ReportMetric(s.Y[1], s.Name+"_p95_s")
	}
}

// BenchmarkExtWeighted reports DAS's premium-served fraction under SLA
// tiers.
func BenchmarkExtWeighted(b *testing.B) {
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		f, err := experiments.ExtWeighted(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	v, _ := last.Get("DAS", 1)
	b.ReportMetric(v, "das_premium_served_frac")
}
