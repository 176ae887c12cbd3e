package cost

import (
	"math"
	"testing"
	"time"

	"tcb/internal/batch"
	"tcb/internal/model"
)

func testCfg() model.Config { return model.TestConfig(100) }

func TestTokenFLOPsPositiveAndScales(t *testing.T) {
	small := TokenFLOPs(testCfg())
	if small <= 0 {
		t.Fatal("token FLOPs must be positive")
	}
	big := TokenFLOPs(model.PaperConfig(100))
	if big <= small {
		t.Fatal("paper config must cost more per token")
	}
	// Doubling d roughly quadruples the projection cost.
	cfg2 := testCfg()
	cfg2.DModel *= 2
	cfg2.DFF *= 2
	if TokenFLOPs(cfg2) < 3*small {
		t.Fatalf("scaling check: %v vs %v", TokenFLOPs(cfg2), small)
	}
}

func TestScoreFLOPs(t *testing.T) {
	cfg := testCfg()
	want := float64(cfg.EncLayers+2*cfg.DecLayers) * 4 * float64(cfg.DModel)
	if got := ScoreFLOPs(cfg); got != want {
		t.Fatalf("ScoreFLOPs = %v, want %v", got, want)
	}
}

func TestDefaultParamsValid(t *testing.T) {
	p := DefaultParams(testCfg())
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Params{PerTokenSeconds: 0}
	if bad.Validate() == nil {
		t.Fatal("zero per-token time should fail")
	}
}

func concatBatch(rowLen int, rows int, lens ...int) *batch.Batch {
	items := make([]batch.Item, len(lens))
	for i, l := range lens {
		items[i] = batch.Item{ID: int64(i + 1), Len: l}
	}
	b, rest := batch.PackConcat(items, rows, rowLen)
	if len(rest) != 0 {
		panic("batch did not fit")
	}
	return b
}

func TestBatchTimeEmptyIsZero(t *testing.T) {
	p := DefaultParams(testCfg())
	if got := p.BatchTime(&batch.Batch{Scheme: batch.Concat}); got != 0 {
		t.Fatalf("empty batch time = %v", got)
	}
}

func TestBatchTimeMonotoneInPadding(t *testing.T) {
	p := DefaultParams(testCfg())
	// Same items, wider rows → more padded tokens → strictly more time
	// (cost-model invariant 6 in DESIGN.md).
	narrow := concatBatch(50, 2, 20, 20)
	wide := concatBatch(100, 2, 20, 20)
	if p.BatchTime(wide) <= p.BatchTime(narrow) {
		t.Fatalf("padding must cost time: wide %v <= narrow %v",
			p.BatchTime(wide), p.BatchTime(narrow))
	}
}

func TestSlottingNeverSlower(t *testing.T) {
	p := DefaultParams(testCfg())
	items := []batch.Item{{ID: 1, Len: 20}, {ID: 2, Len: 20}, {ID: 3, Len: 20}, {ID: 4, Len: 20}}
	pure, rest := batch.PackConcat(items, 1, 80)
	if len(rest) != 0 {
		t.Fatal("pure pack failed")
	}
	slotted, rest := batch.PackSlotted(items, 1, 80, 20)
	if len(rest) != 0 {
		t.Fatal("slotted pack failed")
	}
	if p.BatchTime(slotted) >= p.BatchTime(pure) {
		t.Fatalf("slotting must reduce time: slotted %v >= pure %v",
			p.BatchTime(slotted), p.BatchTime(pure))
	}
}

func TestTurboPaysPerGroupOverhead(t *testing.T) {
	p := DefaultParams(testCfg())
	items := []batch.Item{{ID: 1, Len: 5}, {ID: 2, Len: 6}, {ID: 3, Len: 90}, {ID: 4, Len: 95}}
	plan, rest := batch.PackTurbo(items, batch.TurboParams{MaxRows: 64, MaxLen: 100, Overhead: 20})
	if len(rest) != 0 {
		t.Fatal("turbo pack failed")
	}
	if len(plan) < 2 {
		t.Fatalf("expected ≥2 turbo groups, got %d", len(plan))
	}
	var total float64
	for _, b := range plan {
		total += p.BatchTime(b)
	}
	// The plan pays batch overhead and decode rounds once per group.
	var want float64
	for _, b := range plan {
		want += p.PerBatchSeconds +
			float64(b.TotalTokens())*p.PerTokenSeconds +
			float64(b.ScoreArea())*p.PerScoreSeconds +
			p.DecodeRounds*(p.PerRoundSeconds+float64(b.NumItems())*p.PerSegmentRoundSeconds)
	}
	if math.Abs(total-want) > 1e-12 {
		t.Fatalf("overhead accounting wrong: %v vs %v", total, want)
	}
}

func TestDecodeTermsScaleWithItems(t *testing.T) {
	p := Params{
		PerTokenSeconds: 1e-6, PerScoreSeconds: 0, PerBatchSeconds: 0,
		DecodeRounds: 10, PerSegmentRoundSeconds: 1e-4, PerRoundSeconds: 1e-3,
	}
	one := concatBatch(100, 1, 20)
	five := concatBatch(100, 1, 20, 20, 20, 20, 20)
	// Same single row padded to 100 (identical encode work), 5× the
	// requests: decode grows by exactly 4 requests × rounds × per-segment.
	wantDelta := 10 * 1e-4 * 4
	gotDelta := p.BatchTime(five) - p.BatchTime(one)
	if math.Abs(gotDelta-wantDelta) > 1e-12 {
		t.Fatalf("decode delta = %v, want %v", gotDelta, wantDelta)
	}
}

func TestValidateRejectsNegativeDecodeTerms(t *testing.T) {
	p := DefaultParams(testCfg())
	p.DecodeRounds = -1
	if p.Validate() == nil {
		t.Fatal("negative decode rounds should fail")
	}
}

func TestCalibrateRecoversConstants(t *testing.T) {
	// Synthesize measurements from known constants and recover them.
	truth := Params{PerTokenSeconds: 2e-6, PerScoreSeconds: 3e-9, PerBatchSeconds: 5e-4}
	var ms []Measurement
	for _, tokens := range []int{100, 500, 1000, 5000} {
		area := tokens * 10
		secs := truth.PerBatchSeconds +
			float64(tokens)*truth.PerTokenSeconds +
			float64(area)*truth.PerScoreSeconds
		ms = append(ms, Measurement{Tokens: tokens, ScoreArea: area, Seconds: secs})
	}
	got, err := Calibrate(ms, truth.PerScoreSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.PerTokenSeconds-truth.PerTokenSeconds) > 1e-12 {
		t.Fatalf("per-token = %v, want %v", got.PerTokenSeconds, truth.PerTokenSeconds)
	}
	if math.Abs(got.PerBatchSeconds-truth.PerBatchSeconds) > 1e-9 {
		t.Fatalf("per-batch = %v, want %v", got.PerBatchSeconds, truth.PerBatchSeconds)
	}
}

func TestCalibrateErrors(t *testing.T) {
	if _, err := Calibrate([]Measurement{{Tokens: 1, Seconds: 1}}, 0); err == nil {
		t.Fatal("single measurement should fail")
	}
	// Decreasing time with tokens → non-physical slope.
	ms := []Measurement{
		{Tokens: 100, Seconds: 2},
		{Tokens: 200, Seconds: 1},
	}
	if _, err := Calibrate(ms, 0); err == nil {
		t.Fatal("negative slope should fail")
	}
}

func TestCalibrateClampsNegativeIntercept(t *testing.T) {
	ms := []Measurement{
		{Tokens: 100, Seconds: 0.0001},
		{Tokens: 200, Seconds: 0.0003},
	}
	p, err := Calibrate(ms, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.PerBatchSeconds < 0 {
		t.Fatalf("intercept must clamp to 0, got %v", p.PerBatchSeconds)
	}
}

func TestOverlapSavingsZeroForDense(t *testing.T) {
	p := DefaultParams(testCfg())
	b := concatBatch(100, 2, 20, 20)
	if s := p.OverlapSavings(b); s != 0 {
		t.Fatalf("dense scheme overlap = %v, want 0", s)
	}
}

func TestOverlapSavingsPositiveForHeterogeneousSlots(t *testing.T) {
	p := DefaultParams(testCfg())
	// Two slots with very different load: 5 vs 20 tokens.
	items := []batch.Item{{ID: 1, Len: 5}, {ID: 2, Len: 20}}
	b, rest := batch.PackSlotted(items, 1, 40, 20)
	if len(rest) != 0 {
		t.Fatal("pack failed")
	}
	s := p.OverlapSavings(b)
	if s <= 0 {
		t.Fatalf("heterogeneous slots should overlap, got %v", s)
	}
	if load := p.LoadFraction * p.PerBatchSeconds; s > load+1e-15 {
		t.Fatalf("savings %v exceed the load cost %v", s, load)
	}
}

func TestOverlapSavingsZeroForUniformSlots(t *testing.T) {
	p := DefaultParams(testCfg())
	// Identical slots finish together: no window.
	items := []batch.Item{{ID: 1, Len: 10}, {ID: 2, Len: 10}}
	b, rest := batch.PackSlotted(items, 1, 20, 10)
	if len(rest) != 0 {
		t.Fatal("pack failed")
	}
	if s := p.OverlapSavings(b); s != 0 {
		t.Fatalf("uniform slots overlap = %v, want 0", s)
	}
}

func TestOverlapSavingsEmptyBatch(t *testing.T) {
	p := DefaultParams(testCfg())
	if s := p.OverlapSavings(&batch.Batch{Scheme: batch.SlottedConcat, SlotSize: 10}); s != 0 {
		t.Fatalf("empty batch overlap = %v", s)
	}
}

func TestDecodeDuration(t *testing.T) {
	p := Params{PerTokenSeconds: 1, DecodeRounds: 10, PerRoundSeconds: 2, PerSegmentRoundSeconds: 3}
	b := concatBatch(100, 1, 20, 20)
	want := 10 * (2 + 2*3.0)
	if got := p.DecodeDuration(b); got != want {
		t.Fatalf("decode duration = %v, want %v", got, want)
	}
}

func TestCalibrateFullRecoversConstants(t *testing.T) {
	truth := Params{PerTokenSeconds: 3e-6, PerScoreSeconds: 2e-9, PerBatchSeconds: 4e-4}
	var ms []Measurement
	// Vary tokens and area independently.
	for _, tokens := range []int{100, 400, 1600} {
		for _, areaFactor := range []int{5, 40} {
			area := tokens * areaFactor
			ms = append(ms, Measurement{
				Tokens: tokens, ScoreArea: area,
				Seconds: truth.PerBatchSeconds +
					float64(tokens)*truth.PerTokenSeconds +
					float64(area)*truth.PerScoreSeconds,
			})
		}
	}
	got, err := CalibrateFull(ms)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.PerTokenSeconds-truth.PerTokenSeconds) > 1e-12 ||
		math.Abs(got.PerScoreSeconds-truth.PerScoreSeconds) > 1e-13 ||
		math.Abs(got.PerBatchSeconds-truth.PerBatchSeconds) > 1e-9 {
		t.Fatalf("fit = %+v, want %+v", got, truth)
	}
}

// The serving benchmark's grid (rows 1, 2, 4 of 128 tokens, whole-row and
// 16-token-slot attention) on a machine where attention dominates: one slow
// small-area sample makes the two-regressor per-token term negative. The fit
// must degrade to tokens alone, not fail.
func TestCalibrateFullPerTokenLostInNoise(t *testing.T) {
	truth := Params{PerTokenSeconds: 1e-6, PerScoreSeconds: 2e-8, PerBatchSeconds: 1e-4}
	var ms []Measurement
	for _, rows := range []int{1, 2, 4} {
		for _, area := range []int{rows * 128 * 128, rows * 8 * 16 * 16} {
			ms = append(ms, Measurement{
				Tokens: rows * 128, ScoreArea: area,
				Seconds: truth.PerBatchSeconds +
					float64(rows*128)*truth.PerTokenSeconds +
					float64(area)*truth.PerScoreSeconds,
			})
		}
	}
	ms[1].Seconds += 2e-3 // rows=1, slotted: interrupted once
	got, err := CalibrateFull(ms)
	if err != nil {
		t.Fatalf("CalibrateFull failed instead of degrading: %v", err)
	}
	// PerScoreSeconds == 0 is the mark of the tokens-only fit: the full fit
	// of this fixture has a large positive score term.
	if got.PerTokenSeconds <= 0 || got.PerScoreSeconds != 0 {
		t.Fatalf("degraded fit = %+v, want a positive per-token time and no score term", got)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Noise can tilt the tokens-only fallback too: here seconds fall as tokens
// rise at both slot partitions, so neither fit has a positive per-token time.
// The calibration must still produce a valid model — the mean time per token,
// no score or batch term — not abort the set-up that asked for it.
func TestCalibrateFullSecondsFallingWithTokens(t *testing.T) {
	var ms []Measurement
	var secs, tokens float64
	for i, rows := range []int{1, 2, 4} {
		for j, area := range []int{rows * 128 * 128, rows * 8 * 16 * 16} {
			m := Measurement{Tokens: rows * 128, ScoreArea: area, Seconds: 3e-3 - float64(i)*1e-3 - float64(j)*1e-4}
			ms = append(ms, m)
			secs += m.Seconds
			tokens += float64(m.Tokens)
		}
	}
	if _, err := Calibrate(ms, 0); err == nil {
		t.Fatal("fixture must defeat the tokens-only fit")
	}
	got, err := CalibrateFull(ms)
	if err != nil {
		t.Fatalf("CalibrateFull failed instead of degrading: %v", err)
	}
	if want := (Params{PerTokenSeconds: secs / tokens}); got != want {
		t.Fatalf("degraded fit = %+v, want %+v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrateFullErrors(t *testing.T) {
	if _, err := CalibrateFull(nil); err == nil {
		t.Fatal("empty input should fail")
	}
	// Collinear tokens/area → singular.
	var ms []Measurement
	for _, tokens := range []int{100, 200, 300, 400} {
		ms = append(ms, Measurement{Tokens: tokens, ScoreArea: tokens * 2, Seconds: float64(tokens)})
	}
	if _, err := CalibrateFull(ms); err == nil {
		t.Fatal("collinear design should fail")
	}
}

func TestPredictBatchDurationMatchesBatchTime(t *testing.T) {
	p := DefaultParams(testCfg())
	b := concatBatch(50, 2, 20, 20)
	want := time.Duration(p.BatchTime(b) * float64(time.Second))
	if got := p.PredictBatchDuration(b); got != want || got <= 0 {
		t.Fatalf("PredictBatchDuration = %v, want %v (> 0)", got, want)
	}
}

func TestPredictStageDurationsSumToBatchTime(t *testing.T) {
	p := DefaultParams(testCfg())
	b := concatBatch(50, 2, 20, 20, 10)
	prep, comp, clean := p.PredictStageDurations(b)
	if prep <= 0 || comp <= 0 || clean <= 0 {
		t.Fatalf("stage durations must be positive: %v %v %v", prep, comp, clean)
	}
	total := p.PredictBatchDuration(b)
	sum := prep + comp + clean
	if diff := (sum - total).Abs(); diff > time.Microsecond {
		t.Fatalf("stages sum to %v, batch budget is %v", sum, total)
	}
	// The load fraction governs the prepare:cleanup split.
	wantRatio := p.LoadFraction / (1 - p.LoadFraction)
	gotRatio := float64(prep) / float64(clean)
	if math.Abs(gotRatio-wantRatio) > 0.01 {
		t.Fatalf("prepare:cleanup = %v, want %v", gotRatio, wantRatio)
	}
}

func TestPredictStageDurationsEmptyBatch(t *testing.T) {
	p := DefaultParams(testCfg())
	prep, comp, clean := p.PredictStageDurations(&batch.Batch{Scheme: batch.Concat})
	if prep != 0 || comp != 0 || clean != 0 {
		t.Fatalf("empty batch stages = %v %v %v, want zeros", prep, comp, clean)
	}
}

func TestPredictAdmissionDuration(t *testing.T) {
	p := Params{PerTokenSeconds: 1e-3, PerScoreSeconds: 1e-5, DecodeRounds: 10, PerSegmentRoundSeconds: 2e-3}
	for _, n := range []int{0, -3} {
		if got := p.PredictAdmissionDuration(n); got != 0 {
			t.Fatalf("admission of %d tokens = %v, want 0", n, got)
		}
	}
	// 10 tokens: encode 10·1ms + 10²·10µs = 11ms, decode 10 rounds·2ms = 20ms.
	if got := p.PredictAdmissionDuration(10); (got - 31*time.Millisecond).Abs() > time.Microsecond {
		t.Fatalf("admission of 10 tokens = %v, want 31ms", got)
	}
	prev := time.Duration(0)
	for n := 1; n <= 100; n++ {
		got := p.PredictAdmissionDuration(n)
		if got <= prev {
			t.Fatalf("admission of %d tokens = %v, not above %d tokens' %v", n, got, n-1, prev)
		}
		prev = got
	}
}

func TestBatchTimeIsEncodePlusDecode(t *testing.T) {
	p := DefaultParams(testCfg())
	encodeOnly := p
	encodeOnly.DecodeRounds = 0
	for _, b := range []*batch.Batch{concatBatch(50, 2, 20, 20, 10), concatBatch(100, 1, 7)} {
		got := p.BatchTime(b) - encodeOnly.BatchTime(b)
		if want := p.DecodeDuration(b); math.Abs(got-want) > 1e-12*want {
			t.Fatalf("decode share of BatchTime = %v, want DecodeDuration %v", got, want)
		}
	}
}

// Decode rounds advance live requests, not padded tokens (§4.2.2): the same
// requests cost the same decode time however they are laid out.
func TestDecodeDurationIgnoresLayout(t *testing.T) {
	p := DefaultParams(testCfg())
	items := []batch.Item{{ID: 1, Len: 12}, {ID: 2, Len: 30}, {ID: 3, Len: 5}, {ID: 4, Len: 18}}
	oneRow := concatBatch(100, 1, 12, 30, 5, 18)
	fourRows := concatBatch(40, 4, 12, 30, 5, 18)
	slotted, rest := batch.PackSlotted(items, 2, 80, 40)
	if len(rest) != 0 {
		t.Fatal("slotted pack failed")
	}
	want := p.DecodeDuration(oneRow)
	for name, b := range map[string]*batch.Batch{"four rows": fourRows, "slotted": slotted} {
		if got := p.DecodeDuration(b); got != want {
			t.Fatalf("%s: decode duration %v, want %v as in one row", name, got, want)
		}
	}
}
