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

// SlottedOptions configures the slotted-speedup measurement (Figs. 13–14).
// Unlike the serving sweeps these run the *real* Go engine and report
// wall-clock speedups, so the shape does not depend on the cost model.
type SlottedOptions struct {
	BatchRows  int   // paper: 10 (Fig. 13) or 32 (Fig. 14)
	RowLen     int   // paper: 400
	ReqLen     int   // request length; RowLen/ReqLen requests fill a row
	SlotCounts []int // paper: {1, 2, 4, 5, 7, 10, 20}; 1 = pure ConcatBatching
	Reps       int   // timing repetitions; the minimum is kept
	Model      model.Config
	Seed       uint64
}

// DefaultSlottedOptions returns the paper's setting over the test-scale
// model (batch rows still configurable by the caller).
func DefaultSlottedOptions(batchRows int) SlottedOptions {
	cfg := model.Config{
		VocabSize: 64, DModel: 64, NumHeads: 4, DFF: 128,
		EncLayers: 2, DecLayers: 1, MaxLen: 512, Eps: 1e-5,
	}
	return SlottedOptions{
		BatchRows: batchRows,
		RowLen:    400,
		ReqLen:    20,
		// The paper sweeps {1, 2, 4, 5, 7, 10, 20} slots. To keep the
		// batch content bit-identical across slot counts, this harness
		// requires each slot to hold a whole number of requests, which
		// excludes 7 (400/7 ≈ 57 is not a multiple of 20); infeasible
		// counts are skipped with a note.
		SlotCounts: []int{1, 2, 4, 5, 7, 10, 20},
		Reps:       3,
		Model:      cfg,
		Seed:       7,
	}
}

// SlottedSpeedup measures average batch inference time under pure
// ConcatBatching and under slotted ConcatBatching at each slot count, and
// reports time(pure)/time(slotted) — Fig. 13/14's y-axis. The batch
// content (BatchRows rows, each fully packed with ReqLen-token requests)
// is identical across slot counts; only the attention partition changes.
func SlottedSpeedup(opt SlottedOptions) (*Figure, error) {
	if opt.RowLen%opt.ReqLen != 0 {
		return nil, fmt.Errorf("experiments: RowLen %d not a multiple of ReqLen %d", opt.RowLen, opt.ReqLen)
	}
	if err := opt.Model.Validate(); err != nil {
		return nil, err
	}
	eng := engine.New(model.New(opt.Model, opt.Seed), 0) // encode-only timing
	items, tokens := slottedContent(opt)

	timeBatch := func(b *batch.Batch) (float64, error) {
		best := 0.0
		for r := 0; r < opt.Reps; r++ {
			start := time.Now()
			if _, err := eng.Run(b, tokens); err != nil {
				return 0, err
			}
			el := time.Since(start).Seconds()
			if r == 0 || el < best {
				best = el
			}
		}
		return best, nil
	}

	// The baseline is the one-slot row: a single RowLen × RowLen block with
	// the inline segment mask, the paper's pure ConcatBatching cost. (The
	// engine's own Concat scheme attends per request — the far end of this
	// curve, not its start.)
	pure, err := slottedBatch(items, opt, 1)
	if err != nil {
		return nil, err
	}
	pureTime, err := timeBatch(pure)
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		ID:     fmt.Sprintf("fig-slotted-b%d", opt.BatchRows),
		Title:  fmt.Sprintf("Speedup of slotted ConcatBatching (batch size %d, length %d)", opt.BatchRows, opt.RowLen),
		XLabel: "slots",
		YLabel: "speedup",
	}
	for _, k := range opt.SlotCounts {
		if k > 1 {
			if opt.RowLen%k != 0 || (opt.RowLen/k)%opt.ReqLen != 0 {
				// This slot count cannot hold the identical content
				// (slots must contain whole requests); skip it.
				fig.Notes = append(fig.Notes,
					fmt.Sprintf("%d slots skipped: %d-token slots cannot hold whole %d-token requests",
						k, opt.RowLen/k, opt.ReqLen))
				continue
			}
		}
		fig.X = append(fig.X, float64(k))
		if k <= 1 {
			fig.AddPoint("speedup", 1) // pure ConcatBatching is the 1× baseline
			continue
		}
		sb, err := slottedBatch(items, opt, k)
		if err != nil {
			return nil, err
		}
		st, err := timeBatch(sb)
		if err != nil {
			return nil, err
		}
		fig.AddPoint("speedup", pureTime/st)
	}
	fig.Notes = append(fig.Notes,
		"real Go engine wall-clock; batch content identical across slot counts")
	return fig, fig.Validate()
}

// slottedContent generates the figure's requests: BatchRows rows' worth of
// ReqLen-token requests, every row exactly full.
func slottedContent(opt SlottedOptions) ([]batch.Item, map[int64][]int) {
	src := rng.New(opt.Seed)
	n := opt.BatchRows * (opt.RowLen / opt.ReqLen)
	items := make([]batch.Item, n)
	tokens := make(map[int64][]int, n)
	for i := 0; i < n; i++ {
		id := int64(i + 1)
		items[i] = batch.Item{ID: id, Len: opt.ReqLen}
		seq := make([]int, opt.ReqLen)
		for j := range seq {
			seq[j] = src.IntRange(vocab.FirstWordID, opt.Model.VocabSize-1)
		}
		tokens[id] = seq
	}
	return items, tokens
}

// slottedBatch packs the figure's content into k slots per row; k = 1 is the
// dense whole-row baseline.
func slottedBatch(items []batch.Item, opt SlottedOptions, k int) (*batch.Batch, error) {
	b, rest := batch.PackSlotted(items, opt.BatchRows, opt.RowLen, opt.RowLen/k)
	if len(rest) != 0 {
		return nil, fmt.Errorf("experiments: %d slots left %d items unpacked", k, len(rest))
	}
	return b, nil
}

// Fig13 reproduces "Speedup of slotted ConcatBatching (batch size 10,
// length 400)".
func Fig13(o Options) (*Figure, error) {
	f, err := SlottedSpeedup(DefaultSlottedOptions(10))
	if err != nil {
		return nil, err
	}
	f.ID = "fig13"
	return f, nil
}

// Fig14 reproduces "Speedup of slotted ConcatBatching (batch size 32,
// length 400)".
func Fig14(o Options) (*Figure, error) {
	f, err := SlottedSpeedup(DefaultSlottedOptions(32))
	if err != nil {
		return nil, err
	}
	f.ID = "fig14"
	return f, nil
}
