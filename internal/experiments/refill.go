package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/model"
	"tcb/internal/rng"
	"tcb/internal/sched"
	"tcb/internal/serve"
	"tcb/internal/stats"
	"tcb/internal/vocab"
)

// ExtRefill is the continuous-batching A/B: the same Poisson-arrival
// workload with heavy-tailed lengths is served by a no-refill server and a
// refill-enabled one (serve.Config.Refill) over the same model, and the
// figure reports throughput, P99 latency and the speedup. A third pipelined
// + refill run confirms the two features compose; every run cross-checks
// per-request outputs against the no-refill baseline — concatenation
// isolation means refill must never change an answer, only when it arrives.
//
// Why refill wins here: OutputCap ties each request's generation to its
// input length, and the length mixture is heavy-tailed (mostly short, some
// long), so in a no-refill batch the short requests finish early and their
// slots idle until the longest member retires. Refill feeds the backlog
// into those slots between decode steps, so the same token work completes
// in fewer total steps — a utilization win that holds even on one core.
//
// The server runs FCFS, the regime continuous batching targets: arrival
// order mixes lengths inside every batch, so batch-at-a-time pays the
// convoy tax on each launch. (DAS's utility ordering groups shorts together
// and de-convoys batches before refill ever gets a chance — that scheduling
// effect has its own experiments; this one isolates the refill mechanism.
// Refill admission itself still pulls from the queue utility-ordered.)
func ExtRefill(opt Options) (*Figure, error) {
	cfg := model.Config{
		VocabSize: 64, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 256, Eps: 1e-5,
	}
	const (
		rowLen   = 64
		shortLen = 4
		longLen  = 48
		maxNew   = longLen
		// Poisson arrivals well above the service rate: the queue stays
		// saturated and the measurement is steady-state throughput, the
		// regime continuous batching targets.
		arrivalRate = 5000.0 // req/s
	)
	rounds := int(opt.Duration)
	if rounds < 1 {
		rounds = 1
	}
	m := model.New(cfg, opt.Seed+300)

	fig := &Figure{
		ID:     "ext-refill",
		Title:  "Continuous batching: mid-flight slot refill vs batch-at-a-time (real engine)",
		XLabel: "batch-rows",
		YLabel: "req/s",
	}
	for _, B := range []int{4, 6} {
		// Per-mode runs must be long enough (hundreds of ms) that scheduling
		// noise averages out within a run instead of swallowing it whole.
		n := B * 256 * rounds
		// The first portion is queued before Start so the opening launch
		// forms at full B×L size — a refill-enabled launch is a persistent
		// execution context whose capacity is fixed when it launches, so an
		// arrival-starved opening batch would cap the whole run.
		backlog := n / 2
		src := rng.New(opt.Seed + 300)
		reqs := make([][]int, n)
		gaps := make([]time.Duration, n)
		for i := range reqs {
			// Heavy-tailed lengths: mostly short, a long tail that pins
			// whole batches open without refill.
			length := shortLen
			if src.Float64() < 0.15 {
				length = longLen
			}
			seq := make([]int, length)
			for j := range seq {
				seq[j] = src.IntRange(vocab.FirstWordID, cfg.VocabSize-1)
			}
			reqs[i] = seq
			gaps[i] = time.Duration(src.Exp(arrivalRate) * float64(time.Second))
		}

		runMode := func(refill, pipeline bool) (tput, p99ms float64, outs [][]int, st serve.Stats, err error) {
			eng := engine.New(m, maxNew)
			eng.OutputCap = func(inputLen int) int { return inputLen }
			s, err := serve.New(serve.Config{
				Engine: eng, Scheduler: sched.FCFS{}, Scheme: batch.Concat,
				B: B, L: rowLen, Poll: 200 * time.Microsecond,
				QueueCap: n + 1, Refill: refill, Pipeline: pipeline,
			})
			if err != nil {
				return 0, 0, nil, st, err
			}
			chans := make([]<-chan serve.Response, n)
			// Saturating backlog queued up front, identical across modes.
			for i := 0; i < backlog; i++ {
				ch, err := s.Submit(reqs[i], time.Hour)
				if err != nil {
					return 0, 0, nil, st, fmt.Errorf("submit %d: %w", i, err)
				}
				chans[i] = ch
			}
			start := time.Now()
			s.Start()
			// Feeder: the rest arrive as a Poisson stream from the
			// pregenerated gap sequence, identical across modes.
			var feedErr error
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := backlog; i < n; i++ {
					time.Sleep(gaps[i])
					ch, err := s.Submit(reqs[i], time.Hour)
					if err != nil {
						feedErr = fmt.Errorf("submit %d: %w", i, err)
						return
					}
					chans[i] = ch
				}
			}()
			wg.Wait()
			if feedErr != nil {
				s.Stop()
				return 0, 0, nil, st, feedErr
			}
			s.Drain()
			wall := time.Since(start).Seconds()
			outs = make([][]int, n)
			var lat stats.Sample
			for i, ch := range chans {
				resp := <-ch
				if resp.Err != nil {
					return 0, 0, nil, st, fmt.Errorf("request %d: %w", i, resp.Err)
				}
				outs[i] = resp.Output
				lat.Add(resp.Served.Sub(resp.Queued).Seconds())
			}
			st = s.Stats()
			return float64(n) / wall, lat.Percentile(99) * 1e3, outs, st, nil
		}

		// Outputs are deterministic per mode, but wall time on a shared core
		// is not, and interference arrives in bursts longer than one run. So
		// measure in back-to-back (no-refill, refill) pairs — a burst that
		// covers a whole pair slows both sides and cancels out of the pair's
		// ratio — and report the pair with the median ratio of three.
		type pair struct {
			baseTput, baseP99, refTput, refP99 float64
			baseOuts, refOuts                  [][]int
			st                                 serve.Stats
		}
		pairs := make([]pair, 3)
		for k := range pairs {
			var err error
			pr := &pairs[k]
			pr.baseTput, pr.baseP99, pr.baseOuts, _, err = runMode(false, false)
			if err != nil {
				return nil, fmt.Errorf("ext-refill: no-refill B=%d: %w", B, err)
			}
			pr.refTput, pr.refP99, pr.refOuts, pr.st, err = runMode(true, false)
			if err != nil {
				return nil, fmt.Errorf("ext-refill: refill B=%d: %w", B, err)
			}
			if err := sameOutputs(pr.baseOuts, pr.refOuts); err != nil {
				return nil, fmt.Errorf("ext-refill: refill B=%d: %w", B, err)
			}
		}
		sort.Slice(pairs, func(i, j int) bool {
			return pairs[i].refTput/pairs[i].baseTput < pairs[j].refTput/pairs[j].baseTput
		})
		med := pairs[1]
		baseTput, baseP99, baseOuts := med.baseTput, med.baseP99, med.baseOuts
		refTput, refP99, st := med.refTput, med.refP99, med.st
		fig.X = append(fig.X, float64(B))
		fig.AddPoint("no-refill", baseTput)
		fig.AddPoint("p99-no-refill-ms", baseP99)
		// Refill composes with the three-stage pipeline: same answers again.
		_, _, pipeOuts, _, err := runMode(true, true)
		if err != nil {
			return nil, fmt.Errorf("ext-refill: refill+pipeline B=%d: %w", B, err)
		}
		if err := sameOutputs(baseOuts, pipeOuts); err != nil {
			return nil, fmt.Errorf("ext-refill: refill+pipeline B=%d: %w", B, err)
		}
		fig.AddPoint("refill", refTput)
		fig.AddPoint("p99-refill-ms", refP99)
		fig.AddPoint("speedup", refTput/baseTput)
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"B=%d refill: %d admitted mid-flight, %d retired early, occupancy %.0f%%, slot-idle steps %d",
			B, st.RefillsAdmitted, st.SegmentsRetiredEarly, st.BatchOccupancyPct, st.SlotIdleSteps))
	}
	fig.Notes = append(fig.Notes,
		"Poisson arrivals, heavy-tailed lengths (85% short / 15% long), OutputCap = input length;",
		"per-request outputs verified identical across no-refill, refill, and refill+pipeline")
	return fig, fig.Validate()
}

// sameOutputs checks two runs' per-request outputs for exact token equality.
func sameOutputs(a, b [][]int) error {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("request %d outputs diverge (%d vs %d tokens)", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return fmt.Errorf("request %d token %d diverges", i, j)
			}
		}
	}
	return nil
}
