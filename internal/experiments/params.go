package experiments

import (
	"tcb/internal/cost"
	"tcb/internal/sched"
	"tcb/internal/workload"
)

// Options tunes experiment scale without changing shape: shorter durations
// for tests and benches, longer for the published tables.
type Options struct {
	Duration float64 // trace length in simulated seconds per data point
	Seed     uint64
	// Seeds > 1 averages each simulated data point over that many
	// workload seeds (Seed, Seed+1, …), trading runtime for smoother
	// curves. 0 and 1 both mean a single seed. Real-engine figures
	// (13–14) ignore it — their noise is wall-clock, handled by Reps.
	Seeds int
}

// seedList expands Options into the workload seeds to average over.
func (o Options) seedList() []uint64 {
	n := o.Seeds
	if n < 1 {
		n = 1
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = o.Seed + uint64(i)
	}
	return out
}

// V100Params returns the cost-model constants calibrated so the simulated
// serving system reproduces the *shapes* of the paper's V100 measurements
// at the §6.1 configuration (B = 64 rows of L = 100 tokens, lengths 3–100
// with mean 20):
//
//   - DAS-TCB saturates near 430 req/s (paper: 450);
//   - DAS-TNB near 220 req/s (paper: ~200, saturating by 350);
//   - the TCB:TTB throughput gap lands near 1.6× (paper: 1.48×) and
//     TCB:TNB near 1.9× (paper: 2.22×).
//
// The absolute times are not the paper's (our substrate is a simulator —
// see DESIGN.md §2); the constants were fixed once against these shape
// targets and are used unchanged by every experiment.
func V100Params() cost.Params {
	return cost.Params{
		PerTokenSeconds:        5.5e-5,
		PerScoreSeconds:        5e-8,
		PerBatchSeconds:        20e-3,
		DecodeRounds:           20,
		PerSegmentRoundSeconds: 3.7e-5,
		PerRoundSeconds:        3.7e-3,
		LoadFraction:           0.35,
	}
}

// Paper §6 constants.
const (
	PaperBatchRows = 64  // batch size for TNB and TCB (Figs. 9–12)
	PaperRowLen    = 100 // max input length of the workload rows
)

// Deadline offsets for the experiment traces. The paper does not publish
// its deadline distribution; [0.5 s, 3.0 s] gives each request a handful of
// batch slots of slack, the regime in which deadline-aware scheduling can
// actually rescue requests (with sub-slot deadlines every scheduler
// degenerates to one-shot greedy and the comparison is vacuous).
const (
	expDeadlineMin = 0.5
	expDeadlineMax = 3.0
)

// expDAS returns the DAS configuration the experiments use: η = 0.3,
// q = 0.7. η is a tunable system parameter (§5.2, unpublished in the
// evaluation); this setting weights the deadline-aware set more heavily and
// dominates the η sweep (see AblationEta), so it is the natural operating
// point.
func expDAS() *sched.DAS { return &sched.DAS{Eta: 0.3, Q: 0.7} }

// paperTrace generates the §6.2.1 workload at the given rate and variance.
func paperTrace(rate, variance float64, opt Options) ([]*sched.Request, error) {
	spec := workload.PaperSpec(rate, opt.Duration, opt.Seed)
	spec.VarLen = variance
	spec.DeadlineMin = expDeadlineMin
	spec.DeadlineMax = expDeadlineMax
	return workload.Generate(spec)
}
