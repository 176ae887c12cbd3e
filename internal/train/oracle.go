package train

import (
	"tcb/internal/model"
	"tcb/internal/vocab"
)

// Oracles: the loss without gradients, which the gradient checks difference
// numerically against backward. DESIGN.md §18 keeps it here by name.

// Loss computes the teacher-forced loss without touching gradients.
func Loss(m *model.Model, ex Example) (float64, error) {
	decIn := append([]int{vocab.BosID}, ex.Tgt...)
	target := append(append([]int{}, ex.Tgt...), vocab.EosID)
	fc, err := forward(m, ex.Src, decIn)
	if err != nil {
		return 0, err
	}
	loss, _ := crossEntropy(fc.logits, target)
	return loss, nil
}
