package experiments

import (
	"bytes"
	"strings"
	"testing"

	"tcb/internal/engine"
	"tcb/internal/model"
)

// fastOpt keeps unit-test experiment runs short; shapes hold at this scale.
func fastOpt() Options { return Options{Duration: 1.5, Seed: 1} }

func TestFigureAddGetValidate(t *testing.T) {
	f := &Figure{ID: "t", X: []float64{1, 2}}
	f.AddPoint("a", 10)
	f.AddPoint("a", 20)
	f.AddPoint("b", 30)
	if f.Validate() == nil {
		t.Fatal("series b is short; Validate must fail")
	}
	f.AddPoint("b", 40)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	v, err := f.Get("a", 1)
	if err != nil || v != 20 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	if _, err := f.Get("missing", 0); err == nil {
		t.Fatal("missing series should error")
	}
	if _, err := f.Get("a", 5); err == nil {
		t.Fatal("out-of-range index should error")
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{ID: "t", Title: "demo", XLabel: "x", X: []float64{1, 1000}}
	f.AddPoint("y", 0.5)
	f.AddPoint("y", 123456)
	f.Notes = append(f.Notes, "a note")
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"t: demo", "x", "y", "0.5", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestV100ParamsValid(t *testing.T) {
	if err := V100Params().Validate(); err != nil {
		t.Fatal(err)
	}
}

// Figs. 9–10 headline: after saturation, DAS-TCB beats DAS-TTB beats
// DAS-TNB in both utility and throughput.
func TestFig0910Shape(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Options) (*Figure, error)
	}{
		{"fig09", Fig09},
		{"fig10", Fig10},
	} {
		fig, err := tc.run(fastOpt())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		last := len(fig.X) - 1 // rate 1500: all systems saturated
		tnb, _ := fig.Get("DAS-TNB", last)
		ttb, _ := fig.Get("DAS-TTB", last)
		tcb, _ := fig.Get("DAS-TCB", last)
		if !(tcb > ttb && ttb > tnb) {
			t.Fatalf("%s: saturated ordering wrong: TCB %v, TTB %v, TNB %v",
				tc.name, tcb, ttb, tnb)
		}
		if tcb/tnb < 1.3 {
			t.Fatalf("%s: TCB/TNB gap %v too small", tc.name, tcb/tnb)
		}
	}
}

func TestFig09MonotoneBeforeSaturation(t *testing.T) {
	fig, err := Fig09(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	// Utility grows with rate in the unsaturated regime (first 4 points,
	// 40→180 req/s) for every system.
	for _, s := range fig.Series {
		for i := 1; i < 4; i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Fatalf("%s: utility fell from %v to %v between rates %v and %v",
					s.Name, s.Y[i-1], s.Y[i], fig.X[i-1], fig.X[i])
			}
		}
	}
}

// Figs. 11–12: under FCFS the TCB:TTB gap widens when variance grows from
// 20 to 100 (the paper: 1.52× → 1.72×).
func TestFig1112VarianceWidensGap(t *testing.T) {
	f11, err := Fig11(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	f12, err := Fig12(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	last := len(f11.X) - 1
	gap := func(f *Figure) float64 {
		tcb, _ := f.Get("FCFS-TCB", last)
		ttb, _ := f.Get("FCFS-TTB", last)
		return tcb / ttb
	}
	g11, g12 := gap(f11), gap(f12)
	if g11 <= 1 {
		t.Fatalf("fig11: TCB should beat TTB, gap %v", g11)
	}
	if g12 < g11 {
		t.Fatalf("variance 100 should widen the gap: %v < %v", g12, g11)
	}
}

// Figs. 13–14 on a reduced setting: slotting speeds up the real engine,
// and a larger batch gains at least as much (paper: 1.18× vs 2.31×).
func TestSlottedSpeedupShape(t *testing.T) {
	opt := DefaultSlottedOptions(2)
	opt.RowLen = 120
	opt.ReqLen = 10
	opt.SlotCounts = []int{1, 2, 4, 6}
	opt.Reps = 2
	opt.Model.DModel = 32
	opt.Model.NumHeads = 2
	opt.Model.DFF = 64
	opt.Model.EncLayers = 1
	fig, err := SlottedSpeedup(opt)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := fig.Get("speedup", 0)
	if first != 1 {
		t.Fatalf("1 slot must be the 1× baseline, got %v", first)
	}
	if len(fig.X) != len(opt.SlotCounts) {
		t.Fatalf("measured %v slot counts, want all of %v", fig.X, opt.SlotCounts)
	}
	// The speed-up is wall-clock (fig13 reports it); what it comes from is
	// deterministic: the score entries the engine executes fall strictly
	// with every slot count the figure adds.
	items, tokens := slottedContent(opt)
	eng := engine.New(model.New(opt.Model, opt.Seed), 0)
	prev := int64(-1)
	for _, k := range fig.X {
		b, err := slottedBatch(items, opt, int(k))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(b, tokens)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && rep.EncodedScores >= prev {
			t.Fatalf("%v slots executed %d scores, not fewer than the previous count's %d", k, rep.EncodedScores, prev)
		}
		prev = rep.EncodedScores
	}
}

// The figure's baseline must stay the paper's pure ConcatBatching cost — one
// dense RowLen × RowLen score block per row — now that the engine's own
// Concat scheme attends per request: the engine executes rows · RowLen²
// scores at one slot and n · ReqLen² at one request per slot.
func TestSlottedBaselineIsDenseRow(t *testing.T) {
	opt := DefaultSlottedOptions(3)
	opt.RowLen, opt.ReqLen = 120, 10
	perRow := opt.RowLen / opt.ReqLen
	items, tokens := slottedContent(opt)
	n := len(items)
	eng := engine.New(model.New(opt.Model, opt.Seed), 0)
	for _, c := range []struct{ slots, wantArea int }{
		{1, opt.BatchRows * opt.RowLen * opt.RowLen},
		{perRow, n * opt.ReqLen * opt.ReqLen},
	} {
		b, err := slottedBatch(items, opt, c.slots)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.ScoreArea(); got != c.wantArea {
			t.Fatalf("%d slots: layout score area %d, want %d", c.slots, got, c.wantArea)
		}
		rep, err := eng.Run(b, tokens)
		if err != nil {
			t.Fatal(err)
		}
		if rep.EncodedScores != int64(c.wantArea) || rep.EncodedTokens != int64(n*opt.ReqLen) {
			t.Fatalf("%d slots: engine ran %d tokens / %d scores, want %d / %d",
				c.slots, rep.EncodedTokens, rep.EncodedScores, n*opt.ReqLen, c.wantArea)
		}
	}
}

func TestSlottedSpeedupRejectsBadOptions(t *testing.T) {
	opt := DefaultSlottedOptions(2)
	opt.ReqLen = 7 // does not divide 400
	if _, err := SlottedSpeedup(opt); err == nil {
		t.Fatal("non-divisible ReqLen should fail")
	}
}

// Fig. 15: DAS-TCB dominates the baseline schedulers on aggregate utility
// across each sweep, and stays within noise of the best at every single
// point (the paper's §6.2.4 claim; single points at tiny batch sizes are
// noisy at test-scale trace lengths).
func TestFig15DASWins(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Options) (*Figure, error)
	}{
		{"fig15a", Fig15a},
		{"fig15b", Fig15b},
		{"fig15c", Fig15c},
	} {
		// Deadline-aware effects need traces spanning several deadline
		// windows; 1.5 s is too short for a 3 s max deadline.
		fig, err := tc.run(Options{Duration: 5, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := map[string]float64{}
		for i := range fig.X {
			das, _ := fig.Get("DAS-TCB", i)
			sum["DAS-TCB"] += das
			for _, other := range []string{"SJF-TCB", "FCFS-TCB", "DEF-TCB"} {
				v, err := fig.Get(other, i)
				if err != nil {
					t.Fatal(err)
				}
				sum[other] += v
				if das < 0.90*v {
					t.Fatalf("%s x=%v: DAS %v far below %s %v",
						tc.name, fig.X[i], das, other, v)
				}
			}
		}
		for _, other := range []string{"FCFS-TCB", "DEF-TCB"} {
			if sum["DAS-TCB"] <= sum[other] {
				t.Fatalf("%s: DAS aggregate %v should beat %s %v",
					tc.name, sum["DAS-TCB"], other, sum[other])
			}
		}
		if sum["DAS-TCB"] < 0.97*sum["SJF-TCB"] {
			t.Fatalf("%s: DAS aggregate %v too far below SJF %v",
				tc.name, sum["DAS-TCB"], sum["SJF-TCB"])
		}
	}
}

func TestFig16OverheadSmallAndRecorded(t *testing.T) {
	fig, err := Fig16(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	for i := range fig.X {
		v, _ := fig.Get("DAS/batch (%)", i)
		if v < 0 || v > 10 {
			t.Fatalf("overhead ratio %v%% at rate %v out of sane range", v, fig.X[i])
		}
	}
}

func TestAblationEta(t *testing.T) {
	fig, err := AblationEta(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	for i := range fig.X {
		if v, _ := fig.Get("utility", i); v <= 0 {
			t.Fatalf("eta %v produced non-positive utility", fig.X[i])
		}
	}
}

func TestAblationSlotPolicyAdaptiveCompetitive(t *testing.T) {
	fig, err := AblationSlotPolicy(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	adaptive, _ := fig.Get("utility", 0)
	best, worst := 0.0, 1e18
	for i := 1; i < len(fig.X); i++ {
		v, _ := fig.Get("utility", i)
		if v > best {
			best = v
		}
		if v < worst {
			worst = v
		}
	}
	// Finding (recorded in EXPERIMENTS.md): with the calibrated cost model
	// attention is a small share of batch time at L=100, so Algorithm 2's
	// aggressive slot size trades away more capacity than the redundancy
	// it saves; large fixed slots win. The adaptive rule must still land
	// well inside the fixed-size range — far above the worst choice.
	if adaptive < 0.75*best {
		t.Fatalf("adaptive slot size %v too far below best fixed %v", adaptive, best)
	}
	if adaptive < 2*worst {
		t.Fatalf("adaptive slot size %v should clear the worst fixed choice %v", adaptive, worst)
	}
}

func TestAblationEarlyCleaning(t *testing.T) {
	fig, err := AblationEarlyCleaning(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	for i := range fig.X {
		whole, _ := fig.Get("whole-batch", i)
		early, _ := fig.Get("early-slot", i)
		if early > whole {
			t.Fatalf("early cleaning used more byte-steps (%v > %v) at B=%v",
				early, whole, fig.X[i])
		}
	}
}

func TestAblationPacking(t *testing.T) {
	fig, err := AblationPacking()
	if err != nil {
		t.Fatal(err)
	}
	for i := range fig.X {
		ff, _ := fig.Get("first-fit", i)
		ffd, _ := fig.Get("ffd", i)
		if ff <= 0 || ff > 1 || ffd <= 0 || ffd > 1 {
			t.Fatalf("utilizations out of range: %v, %v", ff, ffd)
		}
	}
}

func TestRunAndRenderFilters(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAndRender(&buf, fastOpt(), "ablation-packing"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ablation-packing") {
		t.Fatal("filtered run missing requested figure")
	}
	if err := RunAndRender(&buf, fastOpt(), "no-such-figure"); err == nil {
		t.Fatal("unknown id should error")
	}
}

// Runner IDs are how tcb-bench, its -gate table and CI select experiments, so
// each names exactly one runner; the retired int8 and fused-vs-per-row A/Bs
// are unknown ids now, not silently empty figures.
func TestRunnerIDsUniqueAndRetiredGone(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range All(fastOpt()) {
		if r.ID == "" || seen[r.ID] {
			t.Fatalf("runner id %q empty or duplicated", r.ID)
		}
		seen[r.ID] = true
	}
	for _, id := range []string{"ext-quantized", "ext-fused-decode"} {
		if seen[id] {
			t.Errorf("%s is retired but still in All", id)
		}
		if err := RunAndRender(&bytes.Buffer{}, fastOpt(), id); err == nil {
			t.Errorf("%s: RunAndRender accepted a retired id", id)
		}
	}
}

func TestDefaultSlottedOptionsValid(t *testing.T) {
	opt := DefaultSlottedOptions(10)
	if err := opt.Model.Validate(); err != nil {
		t.Fatal(err)
	}
	if opt.RowLen != 400 || len(opt.SlotCounts) != 7 {
		t.Fatalf("paper setting wrong: %+v", opt)
	}
	var _ = model.PaperConfig(100) // paper dims referenced by docs
}

func TestExtOverlapNeverHurts(t *testing.T) {
	fig, err := ExtOverlap(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	gained := false
	for i := range fig.X {
		plain, _ := fig.Get("slotted", i)
		overlap, _ := fig.Get("slotted+overlap", i)
		// Busy-ms per request: lower is better; overlap can only subtract
		// from each batch's time (the request mix is identical only up to
		// scheduling noise, hence the small tolerance).
		if overlap > plain*1.01 {
			t.Fatalf("overlap raised service time at rate %v: %v > %v",
				fig.X[i], overlap, plain)
		}
		if overlap < plain-1e-9 {
			gained = true
		}
	}
	if !gained {
		t.Fatal("early-cleaning overlap produced no gain at any rate")
	}
}

func TestExtBimodalTCBWins(t *testing.T) {
	fig, err := ExtBimodal(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	last := len(fig.X) - 1
	tnb, _ := fig.Get("FCFS-TNB", last)
	ttb, _ := fig.Get("FCFS-TTB", last)
	tcb, _ := fig.Get("FCFS-TCB", last)
	if !(tcb > ttb && tcb > tnb) {
		t.Fatalf("bimodal saturated ordering wrong: TCB %v, TTB %v, TNB %v", tcb, ttb, tnb)
	}
}

func TestExtEfficiencyAboveWorstCase(t *testing.T) {
	fig, err := ExtEfficiency(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	worst := expDAS().CompetitiveRatio()
	for i := range fig.X {
		r, _ := fig.Get("DAS/UB", i)
		if r <= worst {
			t.Fatalf("efficiency %v at rate %v not above worst case %v", r, fig.X[i], worst)
		}
		if r > 1+1e-9 {
			t.Fatalf("efficiency %v exceeds 1 — UB violated", r)
		}
	}
}

func TestExtScalingNearLinear(t *testing.T) {
	fig, err := ExtScaling(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	one, _ := fig.Get("throughput", 0)
	two, _ := fig.Get("throughput", 1)
	four, _ := fig.Get("throughput", 2)
	if two < 1.6*one {
		t.Fatalf("2 devices: %v, want ≥1.6× of %v", two, one)
	}
	if four < 1.4*two {
		t.Fatalf("4 devices: %v, want ≥1.4× of %v", four, two)
	}
}

func TestWriteCSV(t *testing.T) {
	f := &Figure{ID: "t", XLabel: "x", X: []float64{1, 2}}
	f.AddPoint("a", 10)
	f.AddPoint("a", 20.5)
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "x,a\n1,10\n2,20.5\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
	// Invalid figure must be rejected.
	f.AddPoint("b", 1)
	if err := f.WriteCSV(&buf); err == nil {
		t.Fatal("ragged figure should fail CSV export")
	}
}

func TestExtLatencyOrderedPercentiles(t *testing.T) {
	fig, err := ExtLatency(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if s.Y[0] > s.Y[1] {
			t.Fatalf("%s: p50 %v > p95 %v", s.Name, s.Y[0], s.Y[1])
		}
		if s.Y[0] <= 0 {
			t.Fatalf("%s: non-positive latency", s.Name)
		}
	}
	// At 400 req/s TNB is past saturation while TCB is not: TCB's tail
	// latency must be lower.
	tnb, _ := fig.Get("DAS-TNB", 1)
	tcb, _ := fig.Get("DAS-TCB", 1)
	if tcb >= tnb {
		t.Fatalf("TCB p95 %v should beat TNB p95 %v at 400 req/s", tcb, tnb)
	}
}

func TestExtWeightedDASProtectsPremium(t *testing.T) {
	fig, err := ExtWeighted(Options{Duration: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dasStd, _ := fig.Get("DAS", 0)
	dasPrem, _ := fig.Get("DAS", 1)
	fcfsPrem, _ := fig.Get("FCFS", 1)
	if dasPrem <= dasStd {
		t.Fatalf("DAS should serve premium (%v) above standard (%v)", dasPrem, dasStd)
	}
	if dasPrem <= fcfsPrem {
		t.Fatalf("DAS premium fraction %v should beat weight-blind FCFS %v", dasPrem, fcfsPrem)
	}
}

// ext-fairness shape: the WFQ window must restore most of the well-behaved
// tenants' baseline goodput under a 10× flood, and split it evenly, while
// the tenant-blind pool must visibly starve them.
func TestExtFairnessIsolatesFlood(t *testing.T) {
	fig, err := ExtFairness(Options{Duration: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	unfairRatio, _ := fig.Get("ratio", 1)
	fairRatio, _ := fig.Get("ratio", 2)
	fairJain, _ := fig.Get("jain-good", 2)
	if fairRatio < 0.9 {
		t.Fatalf("fair flood ratio %v below the 0.9 gate", fairRatio)
	}
	if fairJain < 0.9 {
		t.Fatalf("fair flood jain %v below the 0.9 gate", fairJain)
	}
	if unfairRatio > 0.8*fairRatio {
		t.Fatalf("tenant-blind pool should starve good tenants: unfair %v vs fair %v",
			unfairRatio, fairRatio)
	}
	baseline, _ := fig.Get("ratio", 0)
	if baseline != 1 {
		t.Fatalf("baseline ratio must be 1, got %v", baseline)
	}
}

func TestMultiSeedAveragingDiffers(t *testing.T) {
	// Averaging over 2 seeds must produce values between single-seed runs
	// (exactly their mean) — catch accidental seed reuse.
	a, err := Fig11(Options{Duration: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig11(Options{Duration: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	avg, err := Fig11(Options{Duration: 1, Seed: 1, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	for si := range avg.Series {
		for i := range avg.X {
			want := (a.Series[si].Y[i] + b.Series[si].Y[i]) / 2
			got := avg.Series[si].Y[i]
			if diff := got - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%s[%d]: avg %v != mean %v", avg.Series[si].Name, i, got, want)
			}
		}
	}
}

func TestExtPipeline(t *testing.T) {
	fig, err := ExtPipeline(fastOpt())
	if err != nil {
		t.Fatal(err) // includes the internal pipelined-vs-serial token check
	}
	for i := range fig.X {
		for _, series := range []string{"serial", "pipelined"} {
			tput, _ := fig.Get(series, i)
			if tput <= 0 {
				t.Fatalf("%s throughput %v at B=%v", series, tput, fig.X[i])
			}
		}
		sp, _ := fig.Get("speedup", i)
		if sp <= 0 {
			t.Fatalf("speedup %v at B=%v", sp, fig.X[i])
		}
	}
}
