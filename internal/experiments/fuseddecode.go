package experiments

import (
	"fmt"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/model"
	"tcb/internal/rng"
	"tcb/internal/vocab"
)

// ExtFusedDecode is this repository's extension experiment for the fused
// batch-wide decoder: for growing batch sizes it decodes the same concat
// batch through the per-row cached decoder (one small-GEMM stream per row)
// and through the fused decoder (one GEMM per layer per step across all
// rows), reporting both wall-clock times and the speedup. Outputs are
// token-identical by construction — verified on every run — so the figure
// isolates the GEMM-shape effect TCB's batching argument rests on.
func ExtFusedDecode(opt Options) (*Figure, error) {
	// Decode-heavy setting: short prefill, long generation, and a model
	// large enough (128-wide, 64 KiB weight matrices) that streaming each
	// layer's weights once per step across all rows — instead of once per
	// row — is the dominant cost difference.
	cfg := model.Config{
		VocabSize: 64, DModel: 128, NumHeads: 4, DFF: 256,
		EncLayers: 1, DecLayers: 2, MaxLen: 256, Eps: 1e-5,
	}
	const (
		rowLen = 40
		reqLen = 10
		maxNew = 24
		reps   = 3
	)
	m := model.New(cfg, opt.Seed+100)
	fused := engine.New(m, maxNew)
	fused.UseCache = true
	fused.Quantize = opt.Quantize
	perRow := engine.New(m, maxNew)
	perRow.UseCache = true
	perRow.FuseDecode = false
	perRow.Quantize = opt.Quantize

	src := rng.New(opt.Seed + 100)
	fig := &Figure{
		ID:     "ext-fused-decode",
		Title:  "Fused batch-wide decode vs per-row cached decode (real engine)",
		XLabel: "batch-rows",
		YLabel: "seconds",
	}
	for _, B := range []int{1, 2, 4, 8} {
		n := B * (rowLen / reqLen)
		items := make([]batch.Item, n)
		tokens := make(map[int64][]int, n)
		for i := 0; i < n; i++ {
			id := int64(i + 1)
			items[i] = batch.Item{ID: id, Len: reqLen}
			seq := make([]int, reqLen)
			for j := range seq {
				seq[j] = src.IntRange(vocab.FirstWordID, cfg.VocabSize-1)
			}
			tokens[id] = seq
		}
		b, rest := batch.PackConcat(items, B, rowLen)
		if len(rest) != 0 {
			return nil, fmt.Errorf("ext-fused-decode: %d items unpacked at B=%d", len(rest), B)
		}
		timeRun := func(e *engine.Engine) (float64, map[int64][]int, error) {
			best := 0.0
			var outs map[int64][]int
			for r := 0; r < reps; r++ {
				start := time.Now()
				rep, err := e.Run(b, tokens)
				if err != nil {
					return 0, nil, err
				}
				el := time.Since(start).Seconds()
				if r == 0 || el < best {
					best = el
				}
				outs = make(map[int64][]int, len(rep.Results))
				for _, res := range rep.Results {
					outs[res.ID] = res.Output
				}
			}
			return best, outs, nil
		}
		pt, po, err := timeRun(perRow)
		if err != nil {
			return nil, err
		}
		fig.X = append(fig.X, float64(B))
		fig.AddPoint("per-row", pt)
		ft, fo, err := timeRun(fused)
		if err != nil {
			return nil, err
		}
		for id, want := range po {
			got := fo[id]
			if len(got) != len(want) {
				return nil, fmt.Errorf("ext-fused-decode: request %d fused/per-row outputs diverge", id)
			}
			for i := range want {
				if got[i] != want[i] {
					return nil, fmt.Errorf("ext-fused-decode: request %d token %d diverges", id, i)
				}
			}
		}
		fig.AddPoint("fused", ft)
		fig.AddPoint("speedup", pt/ft)
	}
	fig.Notes = append(fig.Notes,
		"same batch content and token-identical outputs on both paths; timing includes encode")
	return fig, fig.Validate()
}
