package experiments

import (
	"fmt"

	"tcb/internal/batch"
	"tcb/internal/fair"
	"tcb/internal/sim"
	"tcb/internal/workload"
)

// ext-fairness workload shape: three well-behaved tenants at a base rate
// whose combined demand fits under one replica's capacity (~430 resp/s at
// the §6.1 configuration), plus one flooder at 10× the base rate that
// pushes total demand far past saturation.
const (
	extFairGoodTenants = 3
	extFairBaseRate    = 100
	extFairFloodFactor = 10
)

// ExtFairness measures multi-tenant isolation under an adversarial flood.
// Three scenarios over the same DAS-TCB replica:
//
//	0 — no flooder, WFQ on: the no-flood baseline the gate normalizes by;
//	1 — flooder at 10×, WFQ off: the tenant-blind scheduler splits capacity
//	    by backlog, so the flooder takes ~10/13 of it and starves the
//	    well-behaved tenants;
//	2 — flooder at 10×, WFQ on: the fair window caps the flooder at its
//	    1/4 share and the good tenants (each under their share) keep
//	    nearly their full baseline goodput.
//
// Series: good-resp/s (combined goodput of the well-behaved tenants),
// ratio (good-resp/s over the baseline scenario), and jain-good (Jain's
// fairness index over the well-behaved tenants' scheduled counts). The CI
// gate (tcb-bench -gate) requires both ratio and jain-good at
// scenario 2 to clear the gate value.
func ExtFairness(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "ext-fairness",
		Title:  "Multi-tenant fairness: 3 tenants + 10x flooder, WFQ window on/off",
		XLabel: "scenario",
		YLabel: "resp/s",
		X:      []float64{0, 1, 2},
		Notes: []string{
			"scenario 0: no flooder, fair on (baseline); 1: flooder, fair off; 2: flooder, fair on",
			"ratio normalizes the well-behaved tenants' goodput by scenario 0",
			"gate: scenario 2 must hold ratio and jain-good at or above -gate",
		},
	}
	scenarios := []struct {
		flood  float64
		fairOn bool
	}{
		{0, true},
		{extFairFloodFactor, false},
		{extFairFloodFactor, true},
	}
	var base float64
	for si, sc := range scenarios {
		var goodSched, jain float64
		for _, seed := range opt.seedList() {
			streams := workload.AdversarialMix(extFairBaseRate, opt.Duration, seed,
				extFairGoodTenants, sc.flood)
			for i := range streams {
				streams[i].Spec.DeadlineMin = expDeadlineMin
				streams[i].Spec.DeadlineMax = expDeadlineMax
			}
			trace, err := workload.GenerateMix(streams)
			if err != nil {
				return nil, err
			}
			m, err := sim.Run(sim.System{
				Name:      fmt.Sprintf("DAS-TCB scenario %d", si),
				Scheduler: expDAS(),
				Scheme:    batch.Concat,
				B:         PaperBatchRows,
				L:         PaperRowLen,
				Cost:      V100Params(),
				Fair:      sc.fairOn,
			}, trace)
			if err != nil {
				return nil, err
			}
			good := make(map[string]int, extFairGoodTenants)
			for name, tm := range m.Tenants {
				if name == "flooder" {
					continue
				}
				good[name] = tm.Scheduled
				goodSched += float64(tm.Scheduled)
			}
			jain += fair.JainIndexMap(good)
		}
		n := float64(len(opt.seedList()))
		goodSched /= n
		jain /= n
		// The good streams are seed-identical across scenarios, so the
		// scheduled-count ratio compares the same requests with and without
		// the flood (a goodput-rate ratio would be skewed by the flood
		// run's longer drain tail).
		if sc.flood == 0 {
			base = goodSched
		}
		fig.AddPoint("good-resp/s", goodSched/opt.Duration)
		if base > 0 {
			fig.AddPoint("ratio", goodSched/base)
		} else {
			fig.AddPoint("ratio", 0)
		}
		fig.AddPoint("jain-good", jain)
	}
	return fig, fig.Validate()
}
