package train

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"tcb/internal/model"
	"tcb/internal/rng"
	"tcb/internal/tensor"
	"tcb/internal/vocab"
)

// Example is one supervised pair: source token ids and target token ids
// (reserved ids excluded; BOS/EOS are added internally).
type Example struct {
	Src, Tgt []int
}

// Backprop runs one teacher-forced forward/backward pass, accumulating
// gradients of the mean-per-token cross-entropy into g, and returns the
// loss. Call g.Zero() between optimizer steps, not between examples —
// accumulation across examples implements minibatching.
func Backprop(m *model.Model, ex Example, g *Grads) (float64, error) {
	if len(ex.Src) == 0 || len(ex.Tgt) == 0 {
		return 0, fmt.Errorf("train: empty example")
	}
	decIn := append([]int{vocab.BosID}, ex.Tgt...)
	target := append(append([]int{}, ex.Tgt...), vocab.EosID)
	fc, err := forward(m, ex.Src, decIn)
	if err != nil {
		return 0, err
	}
	loss, dLogits := crossEntropy(fc.logits, target)
	backward(m, fc, g, dLogits)
	return loss, nil
}

// crossEntropy returns the mean −log p(target) over positions plus the
// gradient w.r.t. the logits.
func crossEntropy(logits *tensor.Matrix, target []int) (float64, *tensor.Matrix) {
	t := len(target)
	dL := tensor.New(logits.Rows, logits.Cols)
	var loss float64
	for i := 0; i < t; i++ {
		row := logits.Row(i)
		maxv := float32(math.Inf(-1))
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		logZ := math.Log(sum) + float64(maxv)
		loss += logZ - float64(row[target[i]])
		dRow := dL.Row(i)
		inv := 1 / float32(t)
		for j, v := range row {
			p := float32(math.Exp(float64(v) - logZ))
			dRow[j] = p * inv
		}
		dRow[target[i]] -= inv
	}
	return loss / float64(t), dL
}

// Adam is the Adam optimizer over a model's parameters.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  *Grads
}

// NewAdam returns Adam with standard defaults (β₁=0.9, β₂=0.999).
func NewAdam(p *model.Params, lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: NewGrads(p), v: NewGrads(p),
	}
}

// Step applies one Adam update from the accumulated gradients.
func (a *Adam) Step(p *model.Params, g *Grads) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	// Walk the three mirrors in lockstep: weights+grads, then moments.
	var mFlat, vFlat [][]float32
	visit(p, a.m, func(w, mo []float32) { mFlat = append(mFlat, mo) })
	visit(p, a.v, func(w, vo []float32) { vFlat = append(vFlat, vo) })
	idx := 0
	visit(p, g, func(w, gr []float32) {
		mo, vo := mFlat[idx], vFlat[idx]
		for i := range w {
			gi := float64(gr[i])
			mi := a.Beta1*float64(mo[i]) + (1-a.Beta1)*gi
			vi := a.Beta2*float64(vo[i]) + (1-a.Beta2)*gi*gi
			mo[i] = float32(mi)
			vo[i] = float32(vi)
			w[i] -= float32(a.LR * (mi / c1) / (math.Sqrt(vi/c2) + a.Eps))
		}
		idx++
	})
}

// Config drives the Fit loop.
type Config struct {
	Steps     int     // optimizer steps
	BatchSize int     // examples per step
	LR        float64 // Adam learning rate
	Seed      uint64  // shuffling seed
	// Progress, if non-nil, receives (step, loss) every step.
	Progress func(step int, loss float64)
}

// Fit trains m on the examples and returns the final per-step losses.
func Fit(m *model.Model, examples []Example, cfg Config) ([]float64, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("train: no examples")
	}
	if cfg.Steps <= 0 || cfg.BatchSize <= 0 || cfg.LR <= 0 {
		return nil, fmt.Errorf("train: invalid config %+v", cfg)
	}
	opt := NewAdam(m.P, cfg.LR)
	src := rng.New(cfg.Seed)

	// Minibatch examples run on parallel workers, each with a private
	// gradient accumulator, reduced before the optimizer step. Results are
	// bit-stable across worker counts up to float32 reduction order; the
	// example *selection* is fixed before dispatch so it never depends on
	// scheduling.
	workers := runtime.GOMAXPROCS(0)
	if workers > cfg.BatchSize {
		workers = cfg.BatchSize
	}
	if workers < 1 {
		workers = 1
	}
	workerGrads := make([]*Grads, workers)
	for i := range workerGrads {
		workerGrads[i] = NewGrads(m.P)
	}
	g := NewGrads(m.P)

	losses := make([]float64, 0, cfg.Steps)
	for step := 0; step < cfg.Steps; step++ {
		picked := make([]Example, cfg.BatchSize)
		for b := range picked {
			picked[b] = examples[src.Intn(len(examples))]
		}
		var wg sync.WaitGroup
		lossParts := make([]float64, workers)
		errParts := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				workerGrads[w].Zero()
				for b := w; b < len(picked); b += workers {
					loss, err := Backprop(m, picked[b], workerGrads[w])
					if err != nil {
						errParts[w] = err
						return
					}
					lossParts[w] += loss
				}
			}(w)
		}
		wg.Wait()
		var total float64
		for w := 0; w < workers; w++ {
			if errParts[w] != nil {
				return nil, errParts[w]
			}
			total += lossParts[w]
		}
		// Reduce worker gradients into g, averaging over the minibatch.
		g.Zero()
		for w := 0; w < workers; w++ {
			idx := 0
			var flats [][]float32
			visit(m.P, workerGrads[w], func(_, gr []float32) { flats = append(flats, gr) })
			visit(m.P, g, func(_, gr []float32) {
				for i := range gr {
					gr[i] += flats[idx][i] / float32(cfg.BatchSize)
				}
				idx++
			})
		}
		opt.Step(m.P, g)
		loss := total / float64(cfg.BatchSize)
		losses = append(losses, loss)
		if cfg.Progress != nil {
			cfg.Progress(step, loss)
		}
	}
	return losses, nil
}
