package sim

import (
	"testing"
	"testing/quick"

	"tcb/internal/batch"
	"tcb/internal/cost"
	"tcb/internal/model"
	"tcb/internal/sched"
	"tcb/internal/stats"
	"tcb/internal/workload"
)

// testCost simulates a slow device so the systems saturate within the
// rates the tests probe (TCB capacity ≈ 450 req/s, TNB ≈ 250 req/s here).
func testCost() cost.Params {
	return cost.Params{
		PerTokenSeconds: 1e-4,
		PerScoreSeconds: 1e-7,
		PerBatchSeconds: 2e-3,
	}
}

func system(name string, s sched.Scheduler, scheme batch.Scheme) System {
	return System{
		Name: name, Scheduler: s, Scheme: scheme,
		B: 8, L: 100, Cost: testCost(),
	}
}

func trace(t *testing.T, rate, duration float64, variance float64, seed uint64) []*sched.Request {
	t.Helper()
	spec := workload.PaperSpec(rate, duration, seed)
	spec.VarLen = variance
	reqs, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestValidate(t *testing.T) {
	bad := System{Name: "x"}
	if bad.Validate() == nil {
		t.Fatal("system without scheduler must fail")
	}
	bad = System{Name: "x", Scheduler: sched.FCFS{}, B: 0, L: 10, Cost: testCost()}
	if bad.Validate() == nil {
		t.Fatal("B=0 must fail")
	}
	good := system("ok", sched.FCFS{}, batch.Concat)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunDrainsTrace(t *testing.T) {
	reqs := trace(t, 100, 2, 20, 1)
	m, err := Run(system("tcb", sched.NewDAS(), batch.Concat), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Generated != len(reqs) {
		t.Fatalf("generated = %d, want %d", m.Generated, len(reqs))
	}
	if m.Scheduled+m.Expired != m.Generated {
		t.Fatalf("scheduled %d + expired %d != generated %d",
			m.Scheduled, m.Expired, m.Generated)
	}
	if m.SimSeconds <= 0 || m.Batches == 0 {
		t.Fatalf("degenerate run: %+v", m)
	}
	if m.Utility <= 0 {
		t.Fatal("some utility must accrue at a feasible rate")
	}
	if m.SchedulerRuns == 0 || m.SchedulerWall <= 0 {
		t.Fatal("scheduler overhead must be recorded")
	}
}

func TestLowRateAllServed(t *testing.T) {
	// At a trivially low rate every request should be scheduled.
	reqs := trace(t, 20, 2, 20, 2)
	for _, scheme := range []batch.Scheme{batch.Naive, batch.Turbo, batch.Concat} {
		m, err := Run(system(scheme.String(), sched.NewDAS(), scheme), reqs)
		if err != nil {
			t.Fatal(err)
		}
		if m.Expired != 0 {
			t.Fatalf("%v: %d requests expired at low rate", scheme, m.Expired)
		}
	}
}

func TestConcatBeatsNaiveAtHighRate(t *testing.T) {
	// The core claim (Figs. 9–10): at saturation, ConcatBatching yields
	// more utility and throughput than NaiveBatching under the same DAS.
	reqs := trace(t, 2000, 2, 20, 3)
	concat, err := Run(system("DAS-TCB", sched.NewDAS(), batch.Concat), reqs)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Run(system("DAS-TNB", sched.NewDAS(), batch.Naive), reqs)
	if err != nil {
		t.Fatal(err)
	}
	turbo, err := Run(system("DAS-TTB", sched.NewDAS(), batch.Turbo), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if concat.Utility <= naive.Utility {
		t.Fatalf("TCB utility %v should beat TNB %v", concat.Utility, naive.Utility)
	}
	if concat.Utility <= turbo.Utility {
		t.Fatalf("TCB utility %v should beat TTB %v", concat.Utility, turbo.Utility)
	}
	if concat.Throughput() <= naive.Throughput() {
		t.Fatalf("TCB throughput %v should beat TNB %v",
			concat.Throughput(), naive.Throughput())
	}
}

func TestTurboBeatsNaive(t *testing.T) {
	// TTB reduces padding vs TNB (Fig. 1b vs 1a), so it should process the
	// same overload with less padded work.
	reqs := trace(t, 2000, 2, 20, 4)
	naive, err := Run(system("TNB", sched.NewDAS(), batch.Naive), reqs)
	if err != nil {
		t.Fatal(err)
	}
	turbo, err := Run(system("TTB", sched.NewDAS(), batch.Turbo), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if turbo.Utilization() <= naive.Utilization() {
		t.Fatalf("TTB utilization %v should beat TNB %v",
			turbo.Utilization(), naive.Utilization())
	}
	if turbo.Utility < naive.Utility {
		t.Fatalf("TTB utility %v should be at least TNB %v", turbo.Utility, naive.Utility)
	}
}

func TestSlottedAtLeastAsFastAsPure(t *testing.T) {
	reqs := trace(t, 2000, 2, 20, 5)
	pure, err := Run(system("pure", sched.NewDAS(), batch.Concat), reqs)
	if err != nil {
		t.Fatal(err)
	}
	slotted, err := Run(System{
		Name: "slotted", Scheduler: sched.NewSlottedDAS(), Scheme: batch.SlottedConcat,
		B: 8, L: 100, Cost: testCost(),
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Slotting reduces per-batch time; with the same admission pressure it
	// should not lose utility.
	if slotted.Utility < 0.95*pure.Utility {
		t.Fatalf("slotted utility %v too far below pure %v", slotted.Utility, pure.Utility)
	}
}

func TestHigherVarianceHurtsTurboMore(t *testing.T) {
	// Fig. 12's mechanism: higher length variance widens Turbo's groups
	// (more padding), while Concat is insensitive. Compare utilization
	// degradation.
	low := trace(t, 1500, 2, 20, 6)
	high := trace(t, 1500, 2, 100, 6)
	turboLow, err := Run(system("TTB", sched.FCFS{}, batch.Turbo), low)
	if err != nil {
		t.Fatal(err)
	}
	turboHigh, err := Run(system("TTB", sched.FCFS{}, batch.Turbo), high)
	if err != nil {
		t.Fatal(err)
	}
	concatLow, err := Run(system("TCB", sched.FCFS{}, batch.Concat), low)
	if err != nil {
		t.Fatal(err)
	}
	concatHigh, err := Run(system("TCB", sched.FCFS{}, batch.Concat), high)
	if err != nil {
		t.Fatal(err)
	}
	turboDrop := turboLow.Throughput() / turboHigh.Throughput()
	concatDrop := concatLow.Throughput() / concatHigh.Throughput()
	if turboDrop < concatDrop {
		t.Fatalf("variance should hurt TTB (%v×) at least as much as TCB (%v×)",
			turboDrop, concatDrop)
	}
}

func TestThroughputSaturates(t *testing.T) {
	// Beyond saturation, throughput must stop growing with arrival rate
	// (the "system saturation" of §6.2.1).
	t1, err := Run(system("tcb", sched.NewDAS(), batch.Concat), trace(t, 3000, 2, 20, 7))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Run(system("tcb", sched.NewDAS(), batch.Concat), trace(t, 6000, 2, 20, 7))
	if err != nil {
		t.Fatal(err)
	}
	if t2.Throughput() > 1.25*t1.Throughput() {
		t.Fatalf("throughput kept growing past saturation: %v -> %v",
			t1.Throughput(), t2.Throughput())
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := &Metrics{Scheduled: 10, SimSeconds: 2, UsedTokens: 80, PaddedTokens: 20}
	if m.Throughput() != 5 {
		t.Fatalf("throughput = %v", m.Throughput())
	}
	if m.Utilization() != 0.8 {
		t.Fatalf("utilization = %v", m.Utilization())
	}
	empty := &Metrics{}
	if empty.Throughput() != 0 || empty.Utilization() != 1 {
		t.Fatal("empty metrics edge cases wrong")
	}
}

func TestOverlongRequestsExpireNotLivelock(t *testing.T) {
	// Requests longer than L can never be scheduled; the simulator must
	// drop them rather than loop forever.
	reqs := []*sched.Request{
		{ID: 1, Arrival: 0, Deadline: 10, Len: 500},
		{ID: 2, Arrival: 0, Deadline: 10, Len: 20},
	}
	m, err := Run(system("tcb", sched.NewDAS(), batch.Concat), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scheduled != 1 || m.Expired != 1 {
		t.Fatalf("scheduled/expired = %d/%d, want 1/1", m.Scheduled, m.Expired)
	}
}

func TestDeterministicRuns(t *testing.T) {
	reqs := trace(t, 500, 2, 20, 8)
	a, err := Run(system("tcb", sched.NewDAS(), batch.Concat), reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(system("tcb", sched.NewDAS(), batch.Concat), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Utility != b.Utility || a.Scheduled != b.Scheduled || a.SimSeconds != b.SimSeconds {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestCostParamsFromModelConfig(t *testing.T) {
	// End-to-end smoke with the derived default cost model.
	p := cost.DefaultParams(model.TestConfig(100))
	sys := System{Name: "tcb", Scheduler: sched.NewDAS(), Scheme: batch.Concat,
		B: 8, L: 100, Cost: p}
	m, err := Run(sys, trace(t, 300, 1, 20, 9))
	if err != nil {
		t.Fatal(err)
	}
	if m.Scheduled == 0 {
		t.Fatal("nothing scheduled under default cost params")
	}
}

func TestMultiDeviceThroughputScales(t *testing.T) {
	reqs := trace(t, 4000, 2, 20, 10)
	get := func(devices int) float64 {
		sys := system("tcb", sched.NewDAS(), batch.Concat)
		sys.Devices = devices
		m, err := Run(sys, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return m.Throughput()
	}
	t1, t2, t4 := get(1), get(2), get(4)
	if t2 < 1.6*t1 {
		t.Fatalf("2 devices should ~double throughput: %v vs %v", t2, t1)
	}
	if t4 < 1.5*t2 {
		t.Fatalf("4 devices should keep scaling: %v vs %v", t4, t2)
	}
}

func TestMultiDeviceSingleEquivalence(t *testing.T) {
	// Devices=1 must reproduce the default path exactly.
	reqs := trace(t, 800, 2, 20, 11)
	a, err := Run(system("tcb", sched.NewDAS(), batch.Concat), reqs)
	if err != nil {
		t.Fatal(err)
	}
	sys := system("tcb", sched.NewDAS(), batch.Concat)
	sys.Devices = 1
	b, err := Run(sys, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Utility != b.Utility || a.Scheduled != b.Scheduled || a.SimSeconds != b.SimSeconds {
		t.Fatalf("Devices=1 diverges from default: %+v vs %+v", a, b)
	}
}

func TestMultiDeviceConservation(t *testing.T) {
	reqs := trace(t, 2000, 2, 20, 12)
	sys := system("tcb", sched.NewDAS(), batch.Concat)
	sys.Devices = 3
	m, err := Run(sys, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scheduled+m.Expired != m.Generated {
		t.Fatalf("conservation broken: %d + %d != %d", m.Scheduled, m.Expired, m.Generated)
	}
	// Busy time can exceed wall time with parallel devices.
	if m.BusySeconds <= m.SimSeconds {
		t.Fatalf("3 saturated devices should accumulate busy %v > wall %v",
			m.BusySeconds, m.SimSeconds)
	}
}

// Property: across random configurations and traces, the simulator
// conserves requests, accrues non-negative metrics, and never schedules a
// request after its deadline (the sim asserts Eq. 12 by construction, but
// the latency floor check catches clock bugs).
func TestSimInvariantsProperty(t *testing.T) {
	f := func(seed uint16, rateRaw, bRaw, schemeRaw uint8) bool {
		rate := float64(rateRaw%200)*10 + 50
		B := int(bRaw%16) + 1
		schemes := []batch.Scheme{batch.Naive, batch.Turbo, batch.Concat}
		scheme := schemes[int(schemeRaw)%len(schemes)]
		spec := workload.PaperSpec(rate, 1, uint64(seed)+1)
		reqs, err := workload.Generate(spec)
		if err != nil || len(reqs) == 0 {
			return true
		}
		m, err := Run(System{
			Name: "prop", Scheduler: sched.NewDAS(), Scheme: scheme,
			B: B, L: 100, Cost: testCost(),
		}, reqs)
		if err != nil {
			return false
		}
		if m.Scheduled+m.Expired != m.Generated {
			return false
		}
		if m.Utility < 0 || m.BusySeconds < 0 || m.SimSeconds < 0 {
			return false
		}
		if m.UsedTokens < 0 || m.PaddedTokens < 0 {
			return false
		}
		// Latency is completion − arrival: strictly positive.
		if m.Latency.N() > 0 && m.Latency.Percentile(0) <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBacklogGrowsPastSaturation(t *testing.T) {
	calm, err := Run(system("tcb", sched.NewDAS(), batch.Concat), trace(t, 100, 2, 20, 21))
	if err != nil {
		t.Fatal(err)
	}
	stormy, err := Run(system("tcb", sched.NewDAS(), batch.Concat), trace(t, 3000, 2, 20, 21))
	if err != nil {
		t.Fatal(err)
	}
	if calm.Backlog == (stats.Running{}) || stormy.Backlog == (stats.Running{}) {
		t.Fatal("backlog not sampled")
	}
	if stormy.Backlog.Mean() < 5*calm.Backlog.Mean() {
		t.Fatalf("saturated backlog %v should dwarf calm backlog %v",
			stormy.Backlog.Mean(), calm.Backlog.Mean())
	}
}

// Utilization returns the fraction of processed tokens that were real.
func (m *Metrics) Utilization() float64 {
	total := m.UsedTokens + m.PaddedTokens
	if total == 0 {
		return 1
	}
	return float64(m.UsedTokens) / float64(total)
}
