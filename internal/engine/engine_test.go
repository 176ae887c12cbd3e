package engine

import (
	"testing"
	"testing/quick"

	"tcb/internal/batch"
	"tcb/internal/gpu"
	"tcb/internal/model"
	"tcb/internal/prefixcache"
	"tcb/internal/rng"
	"tcb/internal/vocab"
)

const testVocab = 60

func testEngine(t testing.TB, maxNew int) *Engine {
	t.Helper()
	cfg := model.Config{
		VocabSize: testVocab, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 2, DecLayers: 2, MaxLen: 256, Eps: 1e-5,
	}
	return New(model.New(cfg, 77), maxNew)
}

func randTokens(src *rng.Source, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = src.IntRange(vocab.FirstWordID, testVocab-1)
	}
	return out
}

func makeRequests(src *rng.Source, lens ...int) (map[int64][]int, []batch.Item) {
	tokens := make(map[int64][]int)
	items := make([]batch.Item, len(lens))
	for i, l := range lens {
		id := int64(i + 1)
		tokens[id] = randTokens(src, l)
		items[i] = batch.Item{ID: id, Len: l}
	}
	return tokens, items
}

func TestRunConcatMatchesSingles(t *testing.T) {
	e := testEngine(t, 5)
	src := rng.New(1)
	tokens, items := makeRequests(src, 4, 7, 3, 5)
	b, rest := batch.PackConcat(items, 2, 12)
	if len(rest) != 0 {
		t.Fatalf("rest = %v", rest)
	}
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(rep.Results))
	}
	for _, r := range rep.Results {
		solo, err := e.RunSingle(r.ID, tokens[r.ID])
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Output) != len(solo.Output) {
			t.Fatalf("request %d: batch %v vs solo %v", r.ID, r.Output, solo.Output)
		}
		for i := range r.Output {
			if r.Output[i] != solo.Output[i] {
				t.Fatalf("request %d token %d differs", r.ID, i)
			}
		}
	}
}

func TestRunSlottedMatchesSingles(t *testing.T) {
	e := testEngine(t, 4)
	src := rng.New(2)
	tokens, items := makeRequests(src, 4, 3, 5, 2)
	b, rest := batch.PackSlotted(items, 2, 10, 5)
	if len(rest) != 0 {
		t.Fatalf("rest = %v", rest)
	}
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		solo, err := e.RunSingle(r.ID, tokens[r.ID])
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Output) != len(solo.Output) {
			t.Fatalf("request %d: slotted %v vs solo %v", r.ID, r.Output, solo.Output)
		}
		for i := range r.Output {
			if r.Output[i] != solo.Output[i] {
				t.Fatalf("request %d token %d differs", r.ID, i)
			}
		}
	}
}

func TestRunNaiveMatchesSingles(t *testing.T) {
	e := testEngine(t, 3)
	src := rng.New(3)
	tokens, items := makeRequests(src, 6, 2, 4)
	b, rest := batch.PackNaive(items, 4, 100)
	if len(rest) != 0 {
		t.Fatalf("rest = %v", rest)
	}
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		solo, err := e.RunSingle(r.ID, tokens[r.ID])
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Output) != len(solo.Output) {
			t.Fatalf("request %d differs from solo", r.ID)
		}
	}
}

func TestRunValidatesTokens(t *testing.T) {
	e := testEngine(t, 2)
	src := rng.New(4)
	tokens, items := makeRequests(src, 4)
	b, _ := batch.PackConcat(items, 1, 10)

	if _, err := e.Run(b, map[int64][]int{}); err == nil {
		t.Fatal("missing tokens should fail")
	}
	tokens[1] = tokens[1][:2] // wrong length
	if _, err := e.Run(b, tokens); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestRunRejectsInvalidBatch(t *testing.T) {
	e := testEngine(t, 2)
	bad := &batch.Batch{Scheme: batch.Concat, Rows: []batch.Row{
		{Items: []batch.Item{{ID: 1, Len: 20}}, PadTo: 10},
	}}
	if _, err := e.Run(bad, map[int64][]int{1: make([]int, 20)}); err == nil {
		t.Fatal("invalid batch should fail")
	}
}

// An encode-only launch (MaxNew 0: MeasureCost, Figs. 13/14, the bench's
// calibration) must cost exactly its encode: one empty Result per item, the
// encoder work the parent commit counted, and no decoder state built. The
// allocation bounds are the parent's per-Run counts for the same launches
// (25 concat, 51 slotted, single row so no goroutine fan-out); building a
// BatchDecodeState would add its step buffers and per-segment caches.
func TestEncodeOnlyMode(t *testing.T) {
	e := testEngine(t, 0)
	src := rng.New(5)
	for _, tc := range []struct {
		name           string
		lens           []int
		pack           func([]batch.Item) (*batch.Batch, []batch.Item)
		tokens, scores int64
		maxAllocs      float64
	}{
		{name: "concat", lens: []int{3, 4, 9},
			pack:   func(it []batch.Item) (*batch.Batch, []batch.Item) { return batch.PackConcat(it, 1, 20) },
			tokens: 16, scores: 3*3 + 4*4 + 9*9, maxAllocs: 25},
		{name: "slotted", lens: []int{3, 4, 6, 5, 2},
			pack:   func(it []batch.Item) (*batch.Batch, []batch.Item) { return batch.PackSlotted(it, 1, 24, 8) },
			tokens: 20, scores: 138, maxAllocs: 51},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tokens, items := makeRequests(src, tc.lens...)
			b, rest := tc.pack(items)
			if len(rest) != 0 {
				t.Fatalf("pack left %d", len(rest))
			}
			rep, err := e.Run(b, tokens)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Results) != len(items) {
				t.Fatalf("%d results for %d items", len(rep.Results), len(items))
			}
			for i, it := range b.Items() { // row order
				if r := rep.Results[i]; r.ID != it.ID || len(r.Output) != 0 || r.Steps != 0 {
					t.Fatalf("result %d = %+v, want item %d with no output", i, r, it.ID)
				}
			}
			if rep.Refill != nil {
				t.Fatal("no refill report without decoding")
			}
			if rep.EncodedTokens != tc.tokens || rep.EncodedScores != tc.scores {
				t.Fatalf("encoded %d tokens / %d scores, want %d / %d", rep.EncodedTokens, rep.EncodedScores, tc.tokens, tc.scores)
			}
			if raceEnabled {
				return
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := e.Run(b, tokens); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.maxAllocs {
				t.Fatalf("%v allocs per encode-only Run, want <= %v", allocs, tc.maxAllocs)
			}
		})
	}
}

func TestMemoryReports(t *testing.T) {
	e := testEngine(t, 6)
	src := rng.New(6)
	tokens, items := makeRequests(src, 4, 3, 5, 2)
	slotted, rest := batch.PackSlotted(items, 2, 10, 5)
	if len(rest) != 0 {
		t.Fatal("pack failed")
	}
	rep, err := e.Run(slotted, tokens)
	if err != nil {
		t.Fatal(err)
	}
	early, err := gpu.SimulateEarlyCleaning(slotted, finishSteps(rep), e.BytesPerToken)
	if err != nil {
		t.Fatalf("slotted batches must produce early-cleaning reports: %v", err)
	}
	if early.ByteSteps > early.TotalBytes*int64(early.FinalStep) {
		t.Fatal("early cleaning must not exceed whole-residency byte-steps")
	}

	pure, _ := batch.PackConcat(items, 2, 10)
	rep2, err := e.Run(pure, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gpu.SimulateEarlyCleaning(pure, finishSteps(rep2), e.BytesPerToken); err == nil {
		t.Fatal("pure concat cannot clean early (§4.2.2)")
	}
	whole, err := gpu.SimulateWholeBatchCleaning(pure, finishSteps(rep2), e.BytesPerToken)
	if err != nil || whole.TotalBytes == 0 {
		t.Fatalf("whole-batch report must be populated: %+v, %v", whole, err)
	}
}

// finishSteps maps every result to the decode step it finished at: the
// input of the §4.2.2 cleaning simulations.
func finishSteps(rep *Report) map[int64]int {
	finish := make(map[int64]int, len(rep.Results))
	for _, r := range rep.Results {
		finish[r.ID] = r.Steps
	}
	return finish
}

func TestEmptyRowsSkipped(t *testing.T) {
	e := testEngine(t, 2)
	b := &batch.Batch{Scheme: batch.Concat, Rows: []batch.Row{{PadTo: 10}}}
	rep, err := e.Run(b, map[int64][]int{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Fatal("empty rows should yield no results")
	}
}

func TestDifferentLengthsFinishAtDifferentSteps(t *testing.T) {
	// §4.2.2's premise: the decoder is auto-regressive, so requests in one
	// batch finish at different steps. With random weights most sequences
	// run to MaxNew, so force different step ceilings via input lengths
	// is not reliable — instead just verify Steps is recorded and bounded.
	e := testEngine(t, 4)
	src := rng.New(8)
	tokens, items := makeRequests(src, 3, 8)
	b, _ := batch.PackConcat(items, 1, 12)
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Steps <= 0 || r.Steps > 4 {
			t.Fatalf("steps = %d out of (0, 4]", r.Steps)
		}
	}
}

func BenchmarkRunConcatRow(b *testing.B) {
	e := testEngine(b, 2)
	src := rng.New(9)
	tokens, items := makeRequests(src, 10, 10, 10, 10)
	bt, _ := batch.PackConcat(items, 1, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(bt, tokens); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOutputCapStaggersFinishSteps(t *testing.T) {
	e := testEngine(t, 10)
	e.OutputCap = func(inputLen int) int { return inputLen }
	src := rng.New(20)
	tokens, items := makeRequests(src, 2, 7)
	b, _ := batch.PackConcat(items, 1, 12)
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	steps := map[int64]int{}
	for _, r := range rep.Results {
		steps[r.ID] = r.Steps
		if len(r.Output) > tokens[r.ID][0]*0+10 {
			t.Fatal("output exceeded MaxNew")
		}
	}
	if steps[1] >= steps[2] {
		t.Fatalf("shorter input should finish earlier: %v", steps)
	}
}

func TestOutputCapNegativeClampsToZero(t *testing.T) {
	e := testEngine(t, 5)
	e.OutputCap = func(int) int { return -3 }
	src := rng.New(21)
	tokens, items := makeRequests(src, 4)
	b, _ := batch.PackConcat(items, 1, 10)
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results[0].Output) != 0 {
		t.Fatal("negative cap must clamp to zero generation")
	}
}

func TestOutputCapEarlyCleaningBenefit(t *testing.T) {
	// With length-proportional outputs, slotted early cleaning must beat
	// whole-batch residency (§4.2.2) — the real-engine invariant.
	e := testEngine(t, 12)
	e.OutputCap = func(inputLen int) int { return inputLen }
	src := rng.New(22)
	tokens, items := makeRequests(src, 2, 5, 3, 4)
	b, rest := batch.PackSlotted(items, 2, 10, 5)
	if len(rest) != 0 {
		t.Fatal("pack failed")
	}
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	early, err := gpu.SimulateEarlyCleaning(b, finishSteps(rep), e.BytesPerToken)
	if err != nil {
		t.Fatal(err)
	}
	wholeAtSlottedFootprint := early.TotalBytes * int64(early.FinalStep)
	if early.ByteSteps >= wholeAtSlottedFootprint {
		t.Fatalf("early cleaning saved nothing: %d >= %d",
			early.ByteSteps, wholeAtSlottedFootprint)
	}
}

// The engine's one decode path must match the per-row KV-cached decoder
// (model.GenerateRowCached) on a concat row whose requests finish at
// staggered steps, and the mask-based re-run decoder with it.
func TestCachedMatchesRerun(t *testing.T) {
	src := rng.New(30)
	tokens, items := makeRequests(src, 4, 7, 3)
	b, rest := batch.PackConcat(items, 1, 14)
	if len(rest) != 0 {
		t.Fatal("pack failed")
	}
	e := testEngine(t, 5)
	e.OutputCap = func(inputLen int) int { return inputLen }
	checkOracles(t, e, b, tokens)
}

// Slotted batches decode like standalone requests and like both reference
// decoders, the mask-based one attending per slot.
func TestCachedSlottedScheme(t *testing.T) {
	src := rng.New(31)
	tokens, items := makeRequests(src, 4, 3, 5)
	b, rest := batch.PackSlotted(items, 2, 10, 5)
	if len(rest) != 0 {
		t.Fatal("pack failed")
	}
	e := testEngine(t, 4)
	rep := checkOracles(t, e, b, tokens)
	for _, r := range rep.Results {
		solo, err := e.RunSingle(r.ID+50, tokens[r.ID])
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(r.Output, solo.Output) || r.Steps != solo.Steps {
			t.Fatalf("request %d: slotted %v/%d vs solo %v/%d", r.ID, r.Output, r.Steps, solo.Output, solo.Steps)
		}
	}
}

// A default engine (engine.New, Run, no hook) decodes through the fused loop
// too: requests that finish at staggered steps come back in retirement order,
// the early retirements and the launch's occupancy are counted, and every
// output is what the request gets alone. At the parent a bare engine decoded
// row by row, in row order, and reported neither.
func TestDefaultEngineRetiresEarly(t *testing.T) {
	src := rng.New(32)
	tokens, items := makeRequests(src, 6, 2, 4)
	b, rest := batch.PackConcat(items, 1, 12)
	if len(rest) != 0 {
		t.Fatal("pack failed")
	}
	e := testEngine(t, 6)
	e.OutputCap = func(inputLen int) int { return inputLen }
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refill == nil || rep.Refill.RetiredEarly == 0 || rep.Refill.LiveTokenSteps <= 0 || rep.Refill.Admitted != 0 {
		t.Fatalf("default launch did not retire early: %+v", rep.Refill)
	}
	if len(rep.Results) != len(items) {
		t.Fatalf("%d results for %d items", len(rep.Results), len(items))
	}
	for i, r := range rep.Results {
		if i > 0 && r.Steps < rep.Results[i-1].Steps {
			t.Fatalf("results not in retirement order: %+v", rep.Results)
		}
		solo, err := e.RunSingle(r.ID+50, tokens[r.ID])
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(r.Output, solo.Output) || r.Steps != solo.Steps {
			t.Fatalf("request %d: %v/%d vs solo %v/%d", r.ID, r.Output, r.Steps, solo.Output, solo.Steps)
		}
	}
}

// A bare engine with a prefix cache serves declared prefixes — cold, resident
// and undeclared requests side by side in one launch — each decoding to what
// the request gets alone with the same declaration and no cache (a declared
// prefix is its own encoder segment, so that, not the undeclared run, is the
// reference). The parent refused any prefix-declaring item unless the engine
// had been switched to its KV-cached decoder.
func TestBareEnginePrefixDecode(t *testing.T) {
	src := rng.New(33)
	e := testEngine(t, 4)
	e.PrefixCache = prefixcache.New(0, nil) // unbounded: nothing is evicted mid-test
	shared := randTokens(src, 5)
	withShared := func(n int) []int { return append(append([]int{}, shared...), randTokens(src, n)...) }

	warm := withShared(3)
	wb, _ := batch.PackConcat([]batch.Item{{ID: 1, Len: len(warm), PrefixLen: len(shared)}}, 1, len(warm))
	if _, err := e.Run(wb, map[int64][]int{1: warm}); err != nil {
		t.Fatalf("cold declared prefix on a bare engine: %v", err)
	}
	if !e.PrefixCache.Contains(warm, len(shared)) {
		t.Fatal("serving a cold declared request did not freeze its prefix")
	}

	tokens := map[int64][]int{2: withShared(4), 3: randTokens(src, 7), 4: randTokens(src, 6)}
	items := []batch.Item{
		{ID: 2, Len: 4, PrefixLen: len(shared), CachedLen: len(shared)}, // hit
		{ID: 3, Len: 7, PrefixLen: 3},                                   // cold, a prefix of its own
		{ID: 4, Len: 6},                                                 // undeclared
	}
	b, rest := batch.PackConcat(items, 1, 20)
	if len(rest) != 0 {
		t.Fatal("pack failed")
	}
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(items) {
		t.Fatalf("%d results for %d items", len(rep.Results), len(items))
	}
	declared := map[int64]int{2: len(shared), 3: 3}
	ref := testEngine(t, 4) // same weights, no prefix cache
	for _, r := range rep.Results {
		alone, err := ref.Run(packOne(t, encReq{id: r.ID, tokens: tokens[r.ID], prefixLen: declared[r.ID]}), tokens)
		if err != nil {
			t.Fatal(err)
		}
		solo := alone.Results[0]
		if !equalInts(r.Output, solo.Output) || r.Steps != solo.Steps {
			t.Fatalf("request %d: %v/%d vs alone %v/%d", r.ID, r.Output, r.Steps, solo.Output, solo.Steps)
		}
	}
}

// Property: for random request sets, every batching scheme produces the
// same outputs as standalone inference.
func TestAllSchemesEquivalentProperty(t *testing.T) {
	e := testEngine(t, 3)
	f := func(seed uint16) bool {
		src := rng.New(uint64(seed) + 1)
		n := src.IntRange(1, 4)
		lens := make([]int, n)
		for i := range lens {
			lens[i] = src.IntRange(2, 6)
		}
		tokens, items := makeRequests(src, lens...)
		solo := map[int64][]int{}
		for _, it := range items {
			r, err := e.RunSingle(it.ID+1000, tokens[it.ID])
			if err != nil {
				return false
			}
			solo[it.ID] = r.Output
		}
		check := func(b *batch.Batch) bool {
			rep, err := e.Run(b, tokens)
			if err != nil {
				return false
			}
			for _, r := range rep.Results {
				want := solo[r.ID]
				if len(r.Output) != len(want) {
					return false
				}
				for i := range want {
					if r.Output[i] != want[i] {
						return false
					}
				}
			}
			return true
		}
		nb, rest := batch.PackNaive(items, 8, 64)
		if len(rest) != 0 || !check(nb) {
			return false
		}
		cb, rest := batch.PackConcat(items, 2, 16)
		if len(rest) != 0 || !check(cb) {
			return false
		}
		sb, rest := batch.PackSlotted(items, 2, 16, 8)
		if len(rest) != 0 || !check(sb) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryBudgetEnforced(t *testing.T) {
	e := testEngine(t, 0)
	src := rng.New(40)
	tokens, items := makeRequests(src, 10, 10)
	b, _ := batch.PackConcat(items, 1, 20)
	// Budget exactly one batch: 20 tokens × BytesPerToken.
	e.Mem = gpu.NewMemoryManager(20 * e.BytesPerToken)
	if _, err := e.Run(b, tokens); err != nil {
		t.Fatalf("fitting batch rejected: %v", err)
	}
	// Memory must be released after the run.
	if e.Mem.Used() != 0 || e.Mem.Outstanding() != 0 {
		t.Fatalf("memory leaked: used=%d outstanding=%d", e.Mem.Used(), e.Mem.Outstanding())
	}
	// A larger batch must be rejected with the allocator's error.
	tokens2, items2 := makeRequests(src, 15, 15)
	big, _ := batch.PackConcat(items2, 1, 30)
	if _, err := e.Run(big, tokens2); err == nil {
		t.Fatal("over-budget batch should fail")
	}
}

// The fused batch-wide decode path must be token-identical to the per-row
// cached decoder and the mask-based re-run decoder, both called directly on
// the engine's own encoder rows, across all three batching schemes. Steps
// must match too (finish accounting feeds the memory model).
func TestFusedDecodeMatchesPerRow(t *testing.T) {
	src := rng.New(50)
	tokens, items := makeRequests(src, 4, 7, 3, 5, 2, 6)
	nb, rest1 := batch.PackNaive(items, 8, 64)
	cb, rest2 := batch.PackConcat(items, 2, 16)
	sb, rest3 := batch.PackSlotted(items, 2, 16, 8)
	if len(rest1)+len(rest2)+len(rest3) != 0 {
		t.Fatal("packing left requests behind")
	}
	packs := []struct {
		name string
		b    *batch.Batch
	}{{"naive", nb}, {"concat", cb}, {"slotted", sb}}
	for _, tc := range packs {
		t.Run(tc.name, func(t *testing.T) {
			rep := checkOracles(t, testEngine(t, 5), tc.b, tokens)
			if len(rep.Results) != len(items) {
				t.Fatalf("fused returned %d results, want %d", len(rep.Results), len(items))
			}
		})
	}
}

// checkOracles runs b through the engine and decodes each of its staged rows
// through the model's reference decoders: model.GenerateRowCached (per row,
// KV-cached) and model.GenerateRowCapped (mask-based re-run, AttDense, or
// AttSlotted over the row's slots for slotted batches). Every request's
// tokens and Steps must agree across all three. It returns the engine's
// report.
func checkOracles(t *testing.T, e *Engine, b *batch.Batch, tokens map[int64][]int) *Report {
	t.Helper()
	rep, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	mode := model.AttDense
	if b.Scheme == batch.SlottedConcat {
		mode = model.AttSlotted
	}
	got := make(map[int64]Result, len(rep.Results))
	for _, r := range rep.Results {
		got[r.ID] = r
	}
	for ri, dr := range e.encodeRows(p) {
		cached, err := e.Model.GenerateRowCached(dr.EncOut, dr.Layout, p.caps[ri])
		if err != nil {
			t.Fatal(err)
		}
		masked := e.Model.GenerateRowCapped(dr.EncOut, dr.Layout, p.slots[ri], p.caps[ri], mode)
		for i, it := range p.rows[ri].Items {
			f, ok := got[it.ID]
			if !ok {
				t.Fatalf("request %d: no result", it.ID)
			}
			for name, o := range map[string]model.GenerateResult{"per-row cached": cached[i], "masked": masked[i]} {
				if !equalInts(f.Output, o.Tokens) || f.Steps != o.Steps {
					t.Fatalf("request %d: fused %v/%d vs %s %v/%d", it.ID, f.Output, f.Steps, name, o.Tokens, o.Steps)
				}
			}
		}
	}
	return rep
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Concurrent Run calls on the SAME *batch.Batch must not collide in the
// memory manager: the launch tag is a process-wide counter, not the batch
// pointer.
func TestConcurrentRunsShareBatch(t *testing.T) {
	e := testEngine(t, 0)
	src := rng.New(51)
	tokens, items := makeRequests(src, 5, 5)
	b, _ := batch.PackConcat(items, 1, 10)
	// Budget two simultaneous launches of this batch.
	e.Mem = gpu.NewMemoryManager(2 * 10 * e.BytesPerToken)
	const launches = 2
	errs := make(chan error, launches)
	start := make(chan struct{})
	for i := 0; i < launches; i++ {
		go func() {
			<-start
			_, err := e.Run(b, tokens)
			errs <- err
		}()
	}
	close(start)
	for i := 0; i < launches; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent launch failed: %v", err)
		}
	}
	if e.Mem.Used() != 0 || e.Mem.Outstanding() != 0 {
		t.Fatalf("memory leaked: used=%d outstanding=%d", e.Mem.Used(), e.Mem.Outstanding())
	}
}

// TestPreparedMatchesRun pins the split handoff to the one-shot path:
// Prepare + RunPrepared + Release must produce the same outputs and finish
// steps, and the same memory accounting, as Run.
func TestPreparedMatchesRun(t *testing.T) {
	e := testEngine(t, 4)
	src := rng.New(61)
	tokens, items := makeRequests(src, 4, 6, 3)
	b, _ := batch.PackConcat(items, 2, 10)
	e.Mem = gpu.NewMemoryManager(int64(b.TotalTokens()) * e.BytesPerToken)

	want, err := e.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if e.Mem.Used() == 0 {
		t.Fatal("Prepare must hold the batch's reservation")
	}
	got, err := e.RunPrepared(p)
	if err != nil {
		t.Fatal(err)
	}
	if e.Mem.Used() == 0 {
		t.Fatal("RunPrepared must not free the reservation")
	}
	p.Release()
	if e.Mem.Used() != 0 || e.Mem.Outstanding() != 0 {
		t.Fatalf("Release leaked: used=%d outstanding=%d", e.Mem.Used(), e.Mem.Outstanding())
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("results: %d vs %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		w, g := want.Results[i], got.Results[i]
		if w.ID != g.ID || w.Steps != g.Steps || len(w.Output) != len(g.Output) {
			t.Fatalf("result %d: %+v vs %+v", i, w, g)
		}
		for j := range w.Output {
			if w.Output[j] != g.Output[j] {
				t.Fatalf("result %d token %d differs", i, j)
			}
		}
	}
}

// TestPreparedReleaseIdempotent: double Release (and Release on nil) must
// be safe — the serve pipeline releases on both the success and the
// failure path, and a watchdog race can reach both.
func TestPreparedReleaseIdempotent(t *testing.T) {
	e := testEngine(t, 2)
	src := rng.New(62)
	tokens, items := makeRequests(src, 5)
	b, _ := batch.PackConcat(items, 1, 8)
	e.Mem = gpu.NewMemoryManager(int64(b.TotalTokens()) * e.BytesPerToken)
	p, err := e.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	p.Release()
	p.Release()
	var nilP *Prepared
	nilP.Release()
	if e.Mem.Used() != 0 || e.Mem.Outstanding() != 0 {
		t.Fatalf("double release broke accounting: used=%d outstanding=%d",
			e.Mem.Used(), e.Mem.Outstanding())
	}
}
