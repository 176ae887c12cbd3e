package gpu

import (
	"fmt"

	"tcb/internal/batch"
)

// Oracles: the §4.2.2 baseline the early-cleaning tests (DESIGN.md §5,
// invariant 7) compare against. No serving path or figure calls it;
// DESIGN.md §18 keeps it here by name.

// SimulateWholeBatchCleaning models the baseline policy: the entire batch's
// activation memory stays resident until every request finishes, then frees
// at once. This applies to Naive, Turbo and pure ConcatBatching — in pure
// ConcatBatching "request data do not aligned and we cannot separate the
// ones whose results are generated" (§4.2.2).
func SimulateWholeBatchCleaning(b *batch.Batch, finish map[int64]int, bytesPerToken int64) (CleaningReport, error) {
	if bytesPerToken <= 0 {
		return CleaningReport{}, fmt.Errorf("gpu: bytesPerToken %d", bytesPerToken)
	}
	last, err := maxFinish(b.Items(), finish)
	if err != nil {
		return CleaningReport{}, err
	}
	total := int64(b.TotalTokens()) * bytesPerToken
	return CleaningReport{
		TotalBytes:   total,
		FinalStep:    last,
		ByteSteps:    total * int64(last),
		EarliestFree: last,
	}, nil
}
