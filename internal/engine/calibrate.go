package engine

import (
	"fmt"
	"time"

	"tcb/internal/batch"
	"tcb/internal/cost"
	"tcb/internal/rng"
	"tcb/internal/vocab"
)

// A MeasureCost grid point is timed at least reps times and until it has
// had minPointSeconds of engine time (at most maxPointReps runs).
const (
	minPointSeconds = 4e-3
	maxPointReps    = 64
)

// MeasureCost times encode-only batches on the real engine across a grid
// that varies token count (via batch rows) and attention-score area (via
// slot partitioning at fixed content), producing the independent-regressor
// measurements cost.CalibrateFull needs. reqLen must divide rowLen.
//
// This closes the loop DESIGN.md promises: the simulator's cost constants
// can be fitted to this Go engine instead of the synthetic V100 defaults.
func MeasureCost(e *Engine, rowLen, reqLen int, rowCounts []int, reps int, seed uint64) ([]cost.Measurement, error) {
	if rowLen%reqLen != 0 || reqLen <= 0 {
		return nil, fmt.Errorf("engine: reqLen %d must divide rowLen %d", reqLen, rowLen)
	}
	if reps < 1 {
		reps = 1
	}
	if e.MaxNew != 0 {
		return nil, fmt.Errorf("engine: MeasureCost requires an encode-only engine (MaxNew == 0)")
	}
	src := rng.New(seed)
	var out []cost.Measurement
	for _, rows := range rowCounts {
		if rows <= 0 {
			return nil, fmt.Errorf("engine: non-positive row count %d", rows)
		}
		perRow := rowLen / reqLen
		n := rows * perRow
		items := make([]batch.Item, n)
		tokens := make(map[int64][]int, n)
		for i := 0; i < n; i++ {
			id := int64(i + 1)
			items[i] = batch.Item{ID: id, Len: reqLen}
			seq := make([]int, reqLen)
			for j := range seq {
				seq[j] = src.IntRange(vocab.FirstWordID, e.Model.Cfg.VocabSize-1)
			}
			tokens[id] = seq
		}
		// Same content at two slot partitions: whole-row (max area) and
		// per-request slots (min area) — the independent area variation.
		pure, rest := batch.PackConcat(items, rows, rowLen)
		if len(rest) != 0 {
			return nil, fmt.Errorf("engine: pure pack left %d items", len(rest))
		}
		slotted, rest := batch.PackSlotted(items, rows, rowLen, reqLen)
		if len(rest) != 0 {
			return nil, fmt.Errorf("engine: slotted pack left %d items", len(rest))
		}
		for _, b := range []*batch.Batch{pure, slotted} {
			// Interference only ever adds time, so the minimum over repeats
			// is the estimate; a batch that runs in well under a millisecond
			// needs more than reps of them for one to come through clean.
			best, spent := 0.0, 0.0
			for r := 0; r < reps || (spent < minPointSeconds && r < maxPointReps); r++ {
				start := time.Now()
				if _, err := e.Run(b, tokens); err != nil {
					return nil, err
				}
				el := time.Since(start).Seconds()
				if r == 0 || el < best {
					best = el
				}
				spent += el
			}
			out = append(out, cost.Measurement{
				Tokens:    b.SlottedTokens(),
				ScoreArea: b.ScoreArea(),
				Seconds:   best,
			})
		}
	}
	return out, nil
}
