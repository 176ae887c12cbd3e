package experiments

import (
	"fmt"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/model"
	"tcb/internal/rng"
	"tcb/internal/sched"
	"tcb/internal/serve"
	"tcb/internal/vocab"
)

// ExtPipeline measures the three-stage serve pipeline end to end: the same
// Fig. 13/14-style workload (rows of RowLen tokens fully packed with
// ReqLen-token requests, batch sizes 10 and 32) is pushed through a serial
// serve.Server and a pipelined one over the same model, and the figure
// reports both throughputs plus the speedup. Every run cross-checks
// per-request outputs between the two modes — the pipeline's claim is
// overlap, never different answers.
//
// The overlap this measures is stage A's scheduling + layout + host-side
// staging and stage C's delivery + cleaning-simulation running under batch
// t's compute; on a single-core runner (GOMAXPROCS=1) there is nothing to
// overlap onto and the speedup sits at ~1×.
func ExtPipeline(opt Options) (*Figure, error) {
	cfg := model.Config{
		VocabSize: 64, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 512, Eps: 1e-5,
	}
	const (
		rowLen = 400
		reqLen = 20
		maxNew = 2
	)
	// Batches per point: enough rounds that the pipeline has neighbours to
	// overlap; Duration scales it up for published runs.
	rounds := int(opt.Duration)
	if rounds < 2 {
		rounds = 2
	}
	m := model.New(cfg, opt.Seed+200)

	fig := &Figure{
		ID:     "ext-pipeline",
		Title:  "Pipelined vs serial serving throughput (real engine, Fig. 13/14 workload)",
		XLabel: "batch-rows",
		YLabel: "req/s",
	}
	for _, B := range []int{10, 32} {
		n := B * (rowLen / reqLen) * rounds
		src := rng.New(opt.Seed + 200)
		reqs := make([][]int, n)
		for i := range reqs {
			seq := make([]int, reqLen)
			for j := range seq {
				seq[j] = src.IntRange(vocab.FirstWordID, cfg.VocabSize-1)
			}
			reqs[i] = seq
		}

		runMode := func(pipeline bool) (float64, [][]int, *serve.Stats, error) {
			eng := engine.New(m, maxNew)
			s, err := serve.New(serve.Config{
				Engine: eng, Scheduler: sched.NewDAS(), Scheme: batch.Concat,
				B: B, L: rowLen, Poll: 200 * time.Microsecond,
				QueueCap: n + 1, Pipeline: pipeline,
			})
			if err != nil {
				return 0, nil, nil, err
			}
			chans := make([]<-chan serve.Response, n)
			// Whole backlog queued up front: the measurement is saturated
			// steady-state throughput, not arrival-limited latency.
			for i, seq := range reqs {
				ch, err := s.Submit(seq, time.Hour)
				if err != nil {
					return 0, nil, nil, fmt.Errorf("submit %d: %w", i, err)
				}
				chans[i] = ch
			}
			start := time.Now()
			s.Start()
			s.Drain()
			wall := time.Since(start).Seconds()
			outs := make([][]int, n)
			for i, ch := range chans {
				resp := <-ch
				if resp.Err != nil {
					return 0, nil, nil, fmt.Errorf("request %d: %w", i, resp.Err)
				}
				outs[i] = resp.Output
			}
			st := s.Stats()
			return float64(n) / wall, outs, &st, nil
		}

		serialTput, serialOuts, _, err := runMode(false)
		if err != nil {
			return nil, fmt.Errorf("ext-pipeline: serial B=%d: %w", B, err)
		}
		fig.X = append(fig.X, float64(B))
		fig.AddPoint("serial", serialTput)
		pipeTput, pipeOuts, st, err := runMode(true)
		if err != nil {
			return nil, fmt.Errorf("ext-pipeline: pipelined B=%d: %w", B, err)
		}
		for i := range serialOuts {
			if len(pipeOuts[i]) != len(serialOuts[i]) {
				return nil, fmt.Errorf("ext-pipeline: request %d serial/pipelined outputs diverge", i)
			}
			for j := range serialOuts[i] {
				if pipeOuts[i][j] != serialOuts[i][j] {
					return nil, fmt.Errorf("ext-pipeline: request %d token %d diverges", i, j)
				}
			}
		}
		fig.AddPoint("pipelined", pipeTput)
		fig.AddPoint("speedup", pipeTput/serialTput)
		// Stage-utilization breakdown: under the pipeline the three accrue
		// concurrently, so schedule+cleanup time is overlap won back, not
		// wall time added.
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"B=%d pipelined stage ms: schedule %.1f, compute %.1f, cleanup %.1f (overlapped)",
			B,
			float64(st.ScheduleNs)/1e6,
			float64(st.ComputeNs)/1e6,
			float64(st.CleanupNs)/1e6))
	}
	fig.Notes = append(fig.Notes,
		"wall-clock over a pre-queued backlog; per-request outputs verified identical across modes")
	return fig, fig.Validate()
}
