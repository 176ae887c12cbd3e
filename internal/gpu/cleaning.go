package gpu

import (
	"fmt"

	"tcb/internal/batch"
)

// CleaningReport summarizes GPU-memory behaviour while a batch decodes.
// Steps are decoder steps; requests finish at different steps because the
// decoder is auto-regressive (§4.2.2).
type CleaningReport struct {
	TotalBytes   int64 // activation bytes the batch occupies at step 0
	FinalStep    int   // step at which the last request finishes
	ByteSteps    int64 // ∫ occupancy over steps — lower is better
	EarliestFree int   // first step at which any bytes free (FinalStep if none early)
}

// maxFinish returns the largest finish step among items, and validates
// that every item has one.
func maxFinish(items []batch.Item, finish map[int64]int) (int, error) {
	worst := 0
	for _, it := range items {
		f, ok := finish[it.ID]
		if !ok {
			return 0, fmt.Errorf("gpu: no finish step for item %d", it.ID)
		}
		if f < 0 {
			return 0, fmt.Errorf("gpu: negative finish step %d for item %d", f, it.ID)
		}
		if f > worst {
			worst = f
		}
	}
	return worst, nil
}

// SimulateEarlyCleaning models §4.2.2's slotted policy: each slot is an
// independent tensor of SlotSize tokens that frees at the step its last
// request finishes. Only SlottedConcat batches support it — that is the
// paper's point.
func SimulateEarlyCleaning(b *batch.Batch, finish map[int64]int, bytesPerToken int64) (CleaningReport, error) {
	if b.Scheme != batch.SlottedConcat {
		return CleaningReport{}, fmt.Errorf("gpu: early cleaning requires slotted batches, got %v", b.Scheme)
	}
	if bytesPerToken <= 0 {
		return CleaningReport{}, fmt.Errorf("gpu: bytesPerToken %d", bytesPerToken)
	}
	slotBytes := int64(b.SlotSize) * bytesPerToken
	rep := CleaningReport{EarliestFree: -1}
	for _, row := range b.Rows {
		for _, group := range b.SlotGroups(row) {
			f, err := maxFinish(group, finish)
			if err != nil {
				return CleaningReport{}, err
			}
			rep.TotalBytes += slotBytes
			rep.ByteSteps += slotBytes * int64(f)
			if f > rep.FinalStep {
				rep.FinalStep = f
			}
			if rep.EarliestFree == -1 || f < rep.EarliestFree {
				rep.EarliestFree = f
			}
		}
	}
	if rep.EarliestFree == -1 {
		rep.EarliestFree = 0
	}
	return rep, nil
}
