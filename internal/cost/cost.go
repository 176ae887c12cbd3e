// Package cost provides the analytic batch-time model the serving simulator
// charges each batch with, replacing the paper's V100 measurements with a
// calibrated FLOPs/bandwidth model (see DESIGN.md §2 for the substitution
// argument).
//
// One batch's time decomposes into three measurable components:
//
//   - token work: every token position the layout processes — padding
//     included — pays the projection + FFN cost. This is the redundancy
//     batching schemes differ on (Fig. 1).
//   - score work: every attention-score entry pays a (memory-bound) cost.
//     Dense schemes compute PadTo² entries per row; slotting shrinks this
//     to SlotSize² per occupied slot (§4.2, Figs. 13–14).
//   - launch overhead: a fixed cost per sub-batch submission (kernel
//     launches, host/device transfer setup). TurboBatching pays it once
//     per DP group.
//
// Defaults are calibrated so laptop-scale simulations reproduce the
// *shapes* of the paper's Figures 9–16; Calibrate fits the constants to
// wall-clock measurements of the real Go engine instead.
package cost

import (
	"fmt"
	"math"
	"time"

	"tcb/internal/batch"
	"tcb/internal/model"
	"tcb/internal/stats"
)

// Params are the constants of the batch-time model.
type Params struct {
	// PerTokenSeconds is the time to push one token position through the
	// encoder (projections + FFN, amortized).
	PerTokenSeconds float64
	// PerScoreSeconds is the time per attention-score entry (score matmul,
	// mask add, softmax, A·V — all low-arithmetic-intensity work).
	PerScoreSeconds float64
	// PerBatchSeconds is the fixed submission overhead per sub-batch.
	PerBatchSeconds float64

	// The decoder is auto-regressive (§4.2.2): a batch holds the engine
	// for DecodeRounds rounds, and each round advances every *live
	// request* by one token. Round cost therefore scales with the number
	// of concatenated requests, not with padded tokens — which is why
	// ConcatBatching's advantage compounds during decoding: one launch
	// decodes ~L/l̄ requests per row where the padded baselines decode one.
	DecodeRounds float64 // expected decoder rounds per batch (≈ mean output length)
	// PerSegmentRoundSeconds is the decode cost per request per round.
	PerSegmentRoundSeconds float64
	// PerRoundSeconds is the fixed per-round floor (kernel launch chain).
	PerRoundSeconds float64

	// LoadFraction is the share of PerBatchSeconds spent loading the next
	// batch's data to the device. Under slotted ConcatBatching with early
	// memory cleaning (§4.2.2) that load can overlap the current batch's
	// decode tail; see OverlapSavings.
	LoadFraction float64
}

// DecodeDuration returns the decode-phase seconds of a batch.
func (p Params) DecodeDuration(b *batch.Batch) float64 {
	return p.DecodeRounds * (p.PerRoundSeconds + float64(b.NumItems())*p.PerSegmentRoundSeconds)
}

// OverlapSavings returns the seconds of the next batch's loading that early
// slot cleaning can hide behind this batch's decode tail (§4.2.2). The
// per-request decode length is modelled proportional to input length
// (normalized so the batch mean matches DecodeRounds); the first slot to
// finish opens the overlap window. Zero for non-slotted schemes — pure
// ConcatBatching cannot separate its rows into freeable tensors.
func (p Params) OverlapSavings(b *batch.Batch) float64 {
	if b.Scheme != batch.SlottedConcat || b.NumItems() == 0 || p.DecodeRounds <= 0 {
		return 0
	}
	mean := float64(b.UsedTokens()) / float64(b.NumItems())
	if mean <= 0 {
		return 0
	}
	rounds := func(it batch.Item) float64 {
		return p.DecodeRounds * float64(it.Len) / mean
	}
	var maxFinish float64
	earliest := math.Inf(1)
	for _, row := range b.Rows {
		for _, group := range b.SlotGroups(row) {
			var slotFinish float64
			for _, it := range group {
				if r := rounds(it); r > slotFinish {
					slotFinish = r
				}
			}
			if slotFinish > maxFinish {
				maxFinish = slotFinish
			}
			if slotFinish < earliest {
				earliest = slotFinish
			}
		}
	}
	if maxFinish <= 0 || math.IsInf(earliest, 1) {
		return 0
	}
	windowFrac := (maxFinish - earliest) / maxFinish
	window := windowFrac * p.DecodeDuration(b)
	load := p.LoadFraction * p.PerBatchSeconds
	if load < window {
		return load
	}
	return window
}

// Validate reports non-physical parameters.
func (p Params) Validate() error {
	if p.PerTokenSeconds <= 0 || p.PerScoreSeconds < 0 || p.PerBatchSeconds < 0 {
		return fmt.Errorf("cost: invalid params %+v", p)
	}
	if p.DecodeRounds < 0 || p.PerSegmentRoundSeconds < 0 || p.PerRoundSeconds < 0 {
		return fmt.Errorf("cost: negative decode terms %+v", p)
	}
	return nil
}

// TokenFLOPs returns the per-token FLOPs of one full forward pass through
// cfg's encoder and decoder stacks: the QKVO projections (8·d² FLOPs per
// layer, counting multiply-adds as 2) and the two FFN matmuls (4·d·dff),
// with the decoder adding cross-attention projections.
func TokenFLOPs(cfg model.Config) float64 {
	d := float64(cfg.DModel)
	dff := float64(cfg.DFF)
	proj := 8 * d * d
	ffn := 4 * d * dff
	enc := float64(cfg.EncLayers) * (proj + ffn)
	dec := float64(cfg.DecLayers) * (2*proj + ffn) // self + cross attention
	return enc + dec
}

// ScoreFLOPs returns the FLOPs per attention-score entry for cfg: the
// QKᵀ dot product and the A·V accumulation each touch d values per entry
// across all heads (4·d FLOPs), per attention sub-layer.
func ScoreFLOPs(cfg model.Config) float64 {
	d := float64(cfg.DModel)
	layers := float64(cfg.EncLayers + 2*cfg.DecLayers)
	return layers * 4 * d
}

// DefaultParams derives Params for cfg on a simulated V100-class device.
//
// The dense token work runs near peak tensor throughput; the score work is
// charged at an effective rate two orders of magnitude lower, reflecting
// that score materialization, masking, softmax and A·V are memory-bound
// kernels (the regime in which the paper measures up to 2.31× from
// slotting, Fig. 14). The launch overhead is a per-sub-batch constant in
// the low hundreds of microseconds, typical of an eager-mode framework
// round trip.
func DefaultParams(cfg model.Config) Params {
	const (
		denseFLOPS = 14e12 // effective FLOP/s for big dense matmuls
		scoreFLOPS = 0.2e12
		launchSecs = 350e-6
		roundSecs  = 250e-6 // per-decode-round kernel-chain floor
		// Single-token decode steps run far below dense peak (small
		// matmuls, memory bound): charge them at 1/8 efficiency.
		decodeSlowdown = 8
		decodeRounds   = 20 // ≈ mean output length of the paper workload
	)
	perToken := TokenFLOPs(cfg) / denseFLOPS
	return Params{
		PerTokenSeconds:        perToken,
		PerScoreSeconds:        ScoreFLOPs(cfg) / scoreFLOPS,
		PerBatchSeconds:        launchSecs,
		DecodeRounds:           decodeRounds,
		PerSegmentRoundSeconds: perToken * decodeSlowdown,
		PerRoundSeconds:        roundSecs,
		LoadFraction:           0.35,
	}
}

// BatchTime returns the simulated seconds to run one batch: encode work on
// the padded layout plus the auto-regressive decode phase.
func (p Params) BatchTime(b *batch.Batch) float64 {
	if b.NumItems() == 0 {
		return 0
	}
	tokens := float64(b.SlottedTokens()) // == TotalTokens for dense schemes
	area := float64(b.ScoreArea())
	encode := p.PerBatchSeconds + tokens*p.PerTokenSeconds + area*p.PerScoreSeconds
	return encode + p.DecodeDuration(b)
}

// PredictBatchDuration returns BatchTime as a time.Duration: the latency
// prediction hook the serving supervision watchdog multiplies by its slack
// factor to derive a per-batch wall-clock budget. Calibrate the params
// against the real engine first (engine.MeasureCost) — the V100-scale
// defaults predict far below what the Go CPU engine takes.
func (p Params) PredictBatchDuration(b *batch.Batch) time.Duration {
	return time.Duration(p.BatchTime(b) * float64(time.Second))
}

// PredictAdmissionDuration predicts the extra latency one continuous-
// batching admission of the given input length adds to a running batch: its
// encode cost (tokens and self-attention score area) plus its share of the
// per-segment decode-round cost, with no per-launch overhead. Only the
// benchmark module (bench/) calls it; the server's admission budget is
// PredictBatch of a one-item row of the admission's length instead.
func (p Params) PredictAdmissionDuration(lenTokens int) time.Duration {
	if lenTokens <= 0 {
		return 0
	}
	tokens := float64(lenTokens)
	encode := tokens*p.PerTokenSeconds + tokens*tokens*p.PerScoreSeconds
	decode := p.DecodeRounds * p.PerSegmentRoundSeconds
	return time.Duration((encode + decode) * float64(time.Second))
}

// PredictStageDurations splits PredictBatchDuration's budget across the
// serve pipeline's three stages. The fixed launch overhead PerBatchSeconds
// is the non-compute share of a batch: its LoadFraction part is the
// next-batch data staging (the work the pipeline's prepare stage hides
// behind compute, §4.2.2), the remainder is result unloading plus memory
// cleaning (the cleanup stage). Compute is everything else — token, score
// and decode work. The three durations sum to PredictBatchDuration, so the
// per-stage budgets are consistent with the watchdog's whole-batch budget.
func (p Params) PredictStageDurations(b *batch.Batch) (prepare, compute, cleanup time.Duration) {
	total := p.BatchTime(b)
	overhead := p.PerBatchSeconds
	if overhead > total {
		overhead = total
	}
	prepSecs := p.LoadFraction * overhead
	cleanSecs := overhead - prepSecs
	sec := float64(time.Second)
	prepare = time.Duration(prepSecs * sec)
	cleanup = time.Duration(cleanSecs * sec)
	compute = time.Duration((total - overhead) * sec)
	return prepare, compute, cleanup
}

// Measurement pairs a batch layout with its observed wall-clock seconds,
// for calibration.
type Measurement struct {
	Tokens    int // token positions processed
	ScoreArea int // attention entries computed
	Seconds   float64
}

// Calibrate fits PerTokenSeconds and PerBatchSeconds by least squares from
// measurements with equal ScoreArea-to-token ratios factored out: it
// first removes the score-work estimate scoreSecs·area from each sample,
// then fits seconds = PerBatch + PerToken·tokens. Use measurements of the
// real engine at fixed row structure, varying token count.
func Calibrate(ms []Measurement, perScoreSeconds float64) (Params, error) {
	if len(ms) < 2 {
		return Params{}, fmt.Errorf("cost: need at least 2 measurements, got %d", len(ms))
	}
	xs := make([]float64, len(ms))
	ys := make([]float64, len(ms))
	for i, m := range ms {
		xs[i] = float64(m.Tokens)
		ys[i] = m.Seconds - perScoreSeconds*float64(m.ScoreArea)
	}
	slope, intercept := stats.LinearFit(xs, ys)
	if slope <= 0 {
		return Params{}, fmt.Errorf("cost: calibration produced non-positive per-token time %g", slope)
	}
	if intercept < 0 {
		intercept = 0
	}
	return Params{
		PerTokenSeconds: slope,
		PerScoreSeconds: perScoreSeconds,
		PerBatchSeconds: intercept,
	}, nil
}

// CalibrateFull fits all three encode-side constants (per-token, per-score,
// per-batch) simultaneously from measurements by two-regressor least
// squares. Measurements must vary token count and score area independently
// (e.g. same tokens at different slot partitions), or the fit is singular.
func CalibrateFull(ms []Measurement) (Params, error) {
	if len(ms) < 3 {
		return Params{}, fmt.Errorf("cost: need at least 3 measurements, got %d", len(ms))
	}
	x1 := make([]float64, len(ms))
	x2 := make([]float64, len(ms))
	ys := make([]float64, len(ms))
	for i, m := range ms {
		x1[i] = float64(m.Tokens)
		x2[i] = float64(m.ScoreArea)
		ys[i] = m.Seconds
	}
	var a, b, c float64
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("cost: calibration failed: %v", r)
			}
		}()
		a, b, c = stats.LinearFit2(x1, x2, ys)
		return nil
	}()
	if err != nil {
		return Params{}, err
	}
	if a <= 0 {
		// The per-token term is the small difference of two noisy slopes
		// when attention dominates the measurements; one slow sample can
		// push it negative. Fit tokens alone (score work folded into the
		// per-token time) rather than fail the calibration.
		return Calibrate(ms, 0)
	}
	if b < 0 {
		b = 0 // score term lost in noise; clamp rather than go negative
	}
	if c < 0 {
		c = 0
	}
	return Params{PerTokenSeconds: a, PerScoreSeconds: b, PerBatchSeconds: c}, nil
}
