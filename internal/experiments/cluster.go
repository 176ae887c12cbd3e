package experiments

import (
	"fmt"

	"tcb/internal/batch"
	"tcb/internal/cluster"
	"tcb/internal/sim"
)

// ExtCluster measures multi-replica scale-out with the failure machinery
// engaged: DAS-TCB replicas behind least-loaded routing, replayed over a
// trace that saturates a single replica (~430 resp/s capacity at the §6.1
// configuration). The N=3 point additionally scripts a mid-run replica
// kill with later recovery, so the reported throughput includes the cost
// of failing the victim's queue over to the survivors — and the run
// errors out if any request is lost, making the zero-lost invariant part
// of the figure itself. The speedup series (vs N=1) at N=2 is the CI
// gate: a cluster must never serve less than one replica.
func ExtCluster(opt Options) (*Figure, error) {
	replicas := []float64{1, 2, 3}
	fig := &Figure{
		ID:     "ext-cluster",
		Title:  "Multi-replica cluster: saturated DAS-TCB throughput (N=3 with mid-run kill+recover)",
		XLabel: "replicas",
		YLabel: "resp/s",
		X:      replicas,
	}
	var base float64
	for _, n := range replicas {
		var tput float64
		for _, seed := range opt.seedList() {
			o := opt
			o.Seed = seed
			// Saturate a single replica so extra replicas have headroom
			// to convert into throughput.
			trace, err := paperTrace(1500, 20, o)
			if err != nil {
				return nil, err
			}
			cs := sim.ClusterSystem{
				Template: sim.System{
					Name:      fmt.Sprintf("DAS-TCB x%d", int(n)),
					Scheduler: expDAS(),
					Scheme:    batch.Concat,
					B:         PaperBatchRows,
					L:         PaperRowLen,
					Cost:      V100Params(),
				},
				Replicas: int(n),
				Route:    cluster.LeastLoaded,
			}
			if int(n) == 3 {
				// Kill one replica a quarter of the way in, bring it back
				// at the three-quarter mark.
				cs.Faults = []sim.Fault{{
					Replica: 2, At: 0.25 * o.Duration, RecoverAt: 0.75 * o.Duration,
				}}
			}
			m, err := sim.RunCluster(cs, trace)
			if err != nil {
				return nil, err
			}
			if m.Lost != 0 {
				return nil, fmt.Errorf("ext-cluster: N=%d seed %d lost %d requests", int(n), seed, m.Lost)
			}
			tput += m.Throughput()
		}
		tput /= float64(len(opt.seedList()))
		if n == 1 {
			base = tput
		}
		fig.AddPoint("throughput", tput)
		if base > 0 {
			fig.AddPoint("speedup", tput/base)
		} else {
			fig.AddPoint("speedup", 0)
		}
	}
	return fig, fig.Validate()
}
