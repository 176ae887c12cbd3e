package experiments

import (
	"fmt"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/gpu"
	"tcb/internal/model"
	"tcb/internal/rng"
	"tcb/internal/sched"
	"tcb/internal/sim"
	"tcb/internal/vocab"
)

// AblationEta sweeps DAS's η (with q = 1 − η, keeping Theorem 5.1's
// premise) and reports total utility at a saturating rate. The paper fixes
// η = q = ½; this shows how sensitive the result is to that choice.
func AblationEta(opt Options) (*Figure, error) {
	etas := []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	fig := &Figure{
		ID:     "ablation-eta",
		Title:  "DAS utility vs η (q = 1−η), rate 800 req/s",
		XLabel: "eta",
		YLabel: "utility",
	}
	trace, err := paperTrace(800, 20, opt)
	if err != nil {
		return nil, err
	}
	for _, eta := range etas {
		fig.X = append(fig.X, eta)
		m, err := sim.Run(sim.System{
			Name:      fmt.Sprintf("DAS(η=%g)", eta),
			Scheduler: &sched.DAS{Eta: eta, Q: 1 - eta},
			Scheme:    batch.Concat,
			B:         PaperBatchRows,
			L:         PaperRowLen,
			Cost:      V100Params(),
		}, trace)
		if err != nil {
			return nil, err
		}
		fig.AddPoint("utility", m.Utility)
	}
	return fig, fig.Validate()
}

// AblationSlotPolicy compares Algorithm 2's adaptive slot size (max length
// of the utility-dominant set) against fixed slot sizes, reporting utility
// under saturation. Too-small fixed slots discard long requests; too-large
// ones give up the redundancy savings — the adaptive rule should track the
// best fixed choice.
func AblationSlotPolicy(opt Options) (*Figure, error) {
	fixed := []int{10, 20, 40, 100}
	fig := &Figure{
		ID:     "ablation-slot-policy",
		Title:  "Slot-size policy: Algorithm 2 adaptive vs fixed, rate 800 req/s",
		XLabel: "slot-size(0=adaptive)",
		YLabel: "utility",
	}
	trace, err := paperTrace(800, 20, opt)
	if err != nil {
		return nil, err
	}
	run := func(name string, s sched.Scheduler) (float64, error) {
		m, err := sim.Run(sim.System{
			Name: name, Scheduler: s, Scheme: batch.SlottedConcat,
			B: PaperBatchRows, L: PaperRowLen, Cost: V100Params(),
		}, trace)
		if err != nil {
			return 0, err
		}
		return m.Utility, nil
	}
	fig.X = append(fig.X, 0)
	u, err := run("adaptive", &sched.SlottedDAS{DAS: *expDAS()})
	if err != nil {
		return nil, err
	}
	fig.AddPoint("utility", u)
	for _, z := range fixed {
		fig.X = append(fig.X, float64(z))
		u, err := run(fmt.Sprintf("fixed-%d", z), &fixedSlotDAS{z: z})
		if err != nil {
			return nil, err
		}
		fig.AddPoint("utility", u)
	}
	return fig, fig.Validate()
}

// fixedSlotDAS wraps DAS with a fixed slot size instead of Algorithm 2's
// adaptive rule, for the slot-policy ablation.
type fixedSlotDAS struct {
	das sched.DAS
	z   int
}

func (f *fixedSlotDAS) Name() string { return fmt.Sprintf("DAS-slot%d", f.z) }

func (f *fixedSlotDAS) Schedule(now float64, pending []*sched.Request, B, L int) sched.Decision {
	das := f.das
	if das.Eta == 0 {
		das = *expDAS()
	}
	base := das.Schedule(now, pending, B, L)
	z := f.z
	if z <= 0 || z > L {
		z = L
	}
	slotsPerRow := L / z
	out := sched.Decision{Rows: make([][]*sched.Request, len(base.Rows)), SlotSize: z}
	for k, row := range base.Rows {
		free := make([]int, slotsPerRow)
		slots := make([][]*sched.Request, slotsPerRow)
		for i := range free {
			free[i] = z
		}
		for _, r := range row {
			if r.Len > z {
				continue
			}
			for si := range free {
				if free[si] >= r.Len {
					free[si] -= r.Len
					slots[si] = append(slots[si], r)
					break
				}
			}
		}
		for _, s := range slots {
			out.Rows[k] = append(out.Rows[k], s...)
		}
	}
	return out
}

// AblationEarlyCleaning measures §4.2.2 on the real engine: for growing
// batch sizes, it decodes a slotted batch and reports the byte-step
// integral under whole-batch cleaning vs early slot cleaning, plus the
// decode-step overlap window the freed slots open for the next batch.
// Decoding runs through the fused cached serving path; the §4.2.2 report is
// computed here from the launch's finish steps (Result.Steps), which are
// identical across decode paths.
func AblationEarlyCleaning(opt Options) (*Figure, error) {
	cfg := model.Config{
		VocabSize: 64, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 256, Eps: 1e-5,
	}
	eng := engine.New(model.New(cfg, 11), 12)
	// Seq2seq output tracks input length, so requests of different lengths
	// finish at different decoder steps — the §4.2.2 premise.
	eng.OutputCap = func(inputLen int) int { return inputLen }
	src := rng.New(11)
	rows := []int{2, 4, 8}
	fig := &Figure{
		ID:     "ablation-early-cleaning",
		Title:  "Early memory cleaning: byte-steps and overlap (real engine decode)",
		XLabel: "batch-rows",
		YLabel: "byte-steps",
	}
	for _, B := range rows {
		fig.X = append(fig.X, float64(B))
		n := B * 4
		items := make([]batch.Item, n)
		tokens := make(map[int64][]int, n)
		for i := 0; i < n; i++ {
			id := int64(i + 1)
			l := src.IntRange(3, 10)
			items[i] = batch.Item{ID: id, Len: l}
			seq := make([]int, l)
			for j := range seq {
				seq[j] = src.IntRange(vocab.FirstWordID, cfg.VocabSize-1)
			}
			tokens[id] = seq
		}
		b, rest := batch.PackSlotted(items, B, 40, 10)
		if len(rest) != 0 {
			return nil, fmt.Errorf("early-cleaning ablation: %d items unpacked", len(rest))
		}
		rep, err := eng.Run(b, tokens)
		if err != nil {
			return nil, err
		}
		finish := make(map[int64]int, len(rep.Results))
		for _, r := range rep.Results {
			finish[r.ID] = r.Steps
		}
		early, err := gpu.SimulateEarlyCleaning(b, finish, eng.BytesPerToken)
		if err != nil {
			return nil, err
		}
		fig.AddPoint("whole-batch", float64(early.TotalBytes)*float64(early.FinalStep))
		fig.AddPoint("early-slot", float64(early.ByteSteps))
		fig.AddPoint("overlap-steps", float64(early.FinalStep-early.EarliestFree))
	}
	return fig, fig.Validate()
}

// AblationPacking compares the paper's priority-order first-fit row packing
// against first-fit-decreasing on identical random item sets, reporting
// mean batch utilization. FFD packs tighter but ignores the scheduler's
// priority order — the trade-off behind PackConcat's design.
func AblationPacking() (*Figure, error) {
	src := rng.New(21)
	sizes := []int{16, 64, 256}
	fig := &Figure{
		ID:     "ablation-packing",
		Title:  "Row packing order: priority first-fit vs FFD (mean utilization)",
		XLabel: "items",
		YLabel: "utilization",
	}
	for _, n := range sizes {
		fig.X = append(fig.X, float64(n))
		var ffUtil, ffdUtil float64
		const trials = 50
		for trial := 0; trial < trials; trial++ {
			items := make([]batch.Item, n)
			for i := range items {
				items[i] = batch.Item{ID: int64(i + 1), Len: src.TruncatedNormalInt(20, 4.5, 3, 100)}
			}
			b1, _ := batch.PackConcat(items, PaperBatchRows, PaperRowLen)
			b2, _ := batch.PackConcatFFD(items, PaperBatchRows, PaperRowLen)
			ffUtil += b1.Utilization()
			ffdUtil += b2.Utilization()
		}
		fig.AddPoint("first-fit", ffUtil/trials)
		fig.AddPoint("ffd", ffdUtil/trials)
	}
	return fig, fig.Validate()
}
