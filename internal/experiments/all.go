package experiments

import (
	"fmt"
	"io"
)

// Runner produces one figure.
type Runner struct {
	ID  string
	Run func() (*Figure, error)
}

// All returns every paper figure and ablation runner at the given options.
// The slotted-speedup figures (13–14) run the real engine and take the
// longest; callers that only need the simulated sweeps can filter by ID.
func All(opt Options) []Runner {
	return []Runner{
		{"fig09", func() (*Figure, error) { return Fig09(opt) }},
		{"fig10", func() (*Figure, error) { return Fig10(opt) }},
		{"fig11", func() (*Figure, error) { return Fig11(opt) }},
		{"fig12", func() (*Figure, error) { return Fig12(opt) }},
		{"fig13", func() (*Figure, error) { return Fig13(opt) }},
		{"fig14", func() (*Figure, error) { return Fig14(opt) }},
		{"fig15a", func() (*Figure, error) { return Fig15a(opt) }},
		{"fig15b", func() (*Figure, error) { return Fig15b(opt) }},
		{"fig15c", func() (*Figure, error) { return Fig15c(opt) }},
		{"fig16", func() (*Figure, error) { return Fig16(opt) }},
		{"ext-overlap", func() (*Figure, error) { return ExtOverlap(opt) }},
		{"ext-bimodal", func() (*Figure, error) { return ExtBimodal(opt) }},
		{"ext-efficiency", func() (*Figure, error) { return ExtEfficiency(opt) }},
		{"ext-scaling", func() (*Figure, error) { return ExtScaling(opt) }},
		{"ext-latency", func() (*Figure, error) { return ExtLatency(opt) }},
		{"ext-weighted", func() (*Figure, error) { return ExtWeighted(opt) }},
		{"ablation-eta", func() (*Figure, error) { return AblationEta(opt) }},
		{"ablation-slot-policy", func() (*Figure, error) { return AblationSlotPolicy(opt) }},
		{"ablation-early-cleaning", func() (*Figure, error) { return AblationEarlyCleaning(opt) }},
		{"ext-pipeline", func() (*Figure, error) { return ExtPipeline(opt) }},
		{"ext-refill", func() (*Figure, error) { return ExtRefill(opt) }},
		{"ext-prefix", func() (*Figure, error) { return ExtPrefix(opt) }},
		{"ext-cluster", func() (*Figure, error) { return ExtCluster(opt) }},
		{"ext-fairness", func() (*Figure, error) { return ExtFairness(opt) }},
		{"ablation-packing", func() (*Figure, error) { return AblationPacking() }},
	}
}

// RunAndRender executes the named runners (all when ids is empty) and
// renders each figure to w, stopping at the first error.
func RunAndRender(w io.Writer, opt Options, ids ...string) error {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	matched := 0
	for _, r := range All(opt) {
		if len(ids) > 0 && !want[r.ID] {
			continue
		}
		matched++
		fig, err := r.Run()
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", r.ID, err)
		}
		if err := fig.Render(w); err != nil {
			return fmt.Errorf("experiments: render %s: %w", r.ID, err)
		}
	}
	if len(ids) > 0 && matched != len(want) {
		return fmt.Errorf("experiments: unknown experiment id in %v", ids)
	}
	return nil
}
