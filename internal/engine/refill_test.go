package engine

import (
	"testing"

	"tcb/internal/batch"
	"tcb/internal/gpu"
	"tcb/internal/rng"
)

// scriptHook is a deterministic RefillHook over a pre-scripted admission
// queue: Refill admits prefix-greedily whatever fits the offered capacity.
type scriptHook struct {
	queue    []Admission
	retired  []Result
	rejected []Admission
	offers   int
}

func (h *scriptHook) Retire(res Result) { h.retired = append(h.retired, res) }

func (h *scriptHook) Refill(free int) []Admission {
	h.offers++
	var out []Admission
	for len(h.queue) > 0 && len(h.queue[0].Tokens) <= free {
		out = append(out, h.queue[0])
		free -= len(h.queue[0].Tokens)
		h.queue = h.queue[1:]
	}
	return out
}

func (h *scriptHook) Reject(adm Admission, err error) { h.rejected = append(h.rejected, adm) }

func refillEngine(t testing.TB, maxNew int) *Engine {
	e := testEngine(t, maxNew)
	e.OutputCap = func(inputLen int) int { return inputLen }
	return e
}

// runFusedOracle is the batch-at-a-time fused decode the engine ran before
// every launch became a refill loop: encode the rows, hand them whole to
// model.GenerateBatchCached, which skips finished segments in place instead
// of removing them. Kept as the reference the live loop is pinned to.
func runFusedOracle(e *Engine, p *Prepared) ([]Result, error) {
	gen, err := e.Model.GenerateBatchCached(e.encodeRows(p), p.caps)
	if err != nil {
		return nil, err
	}
	var results []Result
	for ri, row := range p.rows {
		for i, it := range row.Items {
			results = append(results, Result{ID: it.ID, Output: gen[ri][i].Tokens, Steps: gen[ri][i].Steps})
		}
	}
	return results, nil
}

// With a hook that never admits — and with no hook at all, which is
// RunPrepared — the refill loop must reproduce the batch-at-a-time oracle
// exactly: retiring a finished segment from the state is bitwise equivalent
// to skipping it in place.
func TestRefillEmptyQueueMatchesRunPrepared(t *testing.T) {
	src := rng.New(70)
	tokens, items := makeRequests(src, 2, 7, 3, 5)
	b, rest := batch.PackConcat(items, 2, 12)
	if len(rest) != 0 {
		t.Fatal("pack failed")
	}

	plain := refillEngine(t, 8)
	p1, err := plain.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runFusedOracle(plain, p1)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := plain.RunPrepared(p1)
	if err != nil {
		t.Fatal(err)
	}
	p1.Release()

	refill := refillEngine(t, 8)
	p2, err := refill.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	hook := &scriptHook{}
	got, err := refill.RunPreparedRefill(p2, hook)
	if err != nil {
		t.Fatal(err)
	}
	p2.Release()

	byID := map[int64]Result{}
	for _, r := range want {
		byID[r.ID] = r
	}
	for name, rep := range map[string]*Report{"RunPrepared": prepared, "RunPreparedRefill": got} {
		if len(rep.Results) != len(want) {
			t.Fatalf("%s results: %d vs %d", name, len(rep.Results), len(want))
		}
		for _, r := range rep.Results {
			w := byID[r.ID]
			if !equalInts(r.Output, w.Output) || r.Steps != w.Steps {
				t.Fatalf("%s request %d: %v/%d vs oracle %v/%d", name, r.ID, r.Output, r.Steps, w.Output, w.Steps)
			}
		}
	}
	if got.Refill == nil {
		t.Fatal("refill report missing")
	}
	if got.Refill.Admitted != 0 {
		t.Fatalf("admitted %d with an empty queue", got.Refill.Admitted)
	}
	if len(hook.retired) != len(items) {
		t.Fatalf("retired %d of %d requests through the hook", len(hook.retired), len(items))
	}
}

// Admitted requests must decode to exactly what they produce standalone —
// concatenation isolation holds across mid-flight insertion — and retired
// incumbents must be delivered through the hook before the batch ends.
func TestRefillAdmissionsMatchSingles(t *testing.T) {
	src := rng.New(71)
	tokens, items := makeRequests(src, 2, 8, 2)
	b, rest := batch.PackConcat(items, 1, 12)
	if len(rest) != 0 {
		t.Fatal("pack failed")
	}

	e := refillEngine(t, 10)
	hook := &scriptHook{}
	for i := 0; i < 4; i++ {
		id := int64(100 + i)
		toks := randTokens(src, 2+i%2)
		tokens[id] = toks
		hook.queue = append(hook.queue, Admission{ID: id, Tokens: toks})
	}

	p, err := e.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.RunPreparedRefill(p, hook)
	if err != nil {
		t.Fatal(err)
	}
	p.Release()

	if rep.Refill.Admitted != 4 {
		t.Fatalf("admitted %d of 4 scripted requests (queue left: %d)", rep.Refill.Admitted, len(hook.queue))
	}
	if rep.Refill.RetiredEarly == 0 {
		t.Fatal("staggered caps must retire at least one segment early")
	}
	if len(rep.Results) != len(items)+4 {
		t.Fatalf("results: %d, want %d", len(rep.Results), len(items)+4)
	}
	if len(hook.retired) != len(rep.Results) {
		t.Fatalf("hook deliveries %d != results %d", len(hook.retired), len(rep.Results))
	}
	solo := refillEngine(t, 10)
	for _, r := range rep.Results {
		want, err := solo.RunSingle(r.ID+1000, tokens[r.ID])
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(r.Output, want.Output) {
			t.Fatalf("request %d: refill %v vs solo %v", r.ID, r.Output, want.Output)
		}
	}
	if r := rep.Refill; r.LiveTokenSteps <= 0 || r.LiveTokenSteps > r.CapacityTokenSteps {
		t.Fatalf("occupancy %d/%d token-steps out of range", r.LiveTokenSteps, r.CapacityTokenSteps)
	}
}

// The device reservation must follow the batch's composition — shrink on
// retire, grow on admit — and come back to zero after Release, even under a
// budget with no headroom beyond the staged batch.
func TestRefillMemoryAccounting(t *testing.T) {
	src := rng.New(72)
	tokens, items := makeRequests(src, 3, 6)
	b, rest := batch.PackConcat(items, 1, 9)
	if len(rest) != 0 {
		t.Fatal("pack failed")
	}
	e := refillEngine(t, 8)
	e.Mem = gpu.NewMemoryManager(int64(b.TotalTokens()) * e.BytesPerToken)

	hook := &scriptHook{}
	id := int64(200)
	tokens[id] = randTokens(src, 3)
	hook.queue = append(hook.queue, Admission{ID: id, Tokens: tokens[id]})

	p, err := e.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.RunPreparedRefill(p, hook)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refill.Admitted != 1 {
		t.Fatalf("admission did not fit the freed reservation: %+v", rep.Refill)
	}
	p.Release()
	if e.Mem.Used() != 0 || e.Mem.Outstanding() != 0 {
		t.Fatalf("memory leaked: used=%d outstanding=%d", e.Mem.Used(), e.Mem.Outstanding())
	}
}

// Oversized and empty admissions must bounce back through Reject without
// derailing the launch.
func TestRefillRejectsUnseatableAdmissions(t *testing.T) {
	src := rng.New(73)
	tokens, items := makeRequests(src, 2, 6)
	b, rest := batch.PackConcat(items, 1, 8)
	if len(rest) != 0 {
		t.Fatal("pack failed")
	}
	e := refillEngine(t, 8)
	// A hook that ignores the offered capacity: the engine must reject
	// rather than overfill.
	bad := &defiantHook{admissions: []Admission{
		{ID: 300, Tokens: randTokens(src, 100)},
		{ID: 301, Tokens: nil},
	}}
	p, err := e.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.RunPreparedRefill(p, bad)
	if err != nil {
		t.Fatal(err)
	}
	p.Release()
	if rep.Refill.Admitted != 0 {
		t.Fatalf("admitted %d unseatable requests", rep.Refill.Admitted)
	}
	if len(bad.rejected) != 2 {
		t.Fatalf("rejected %d of 2 bad admissions", len(bad.rejected))
	}
	if len(rep.Results) != len(items) {
		t.Fatalf("results: %d, want %d", len(rep.Results), len(items))
	}
}

// defiantHook returns its scripted admissions on the first offer regardless
// of the capacity the engine announced.
type defiantHook struct {
	admissions []Admission
	rejected   []Admission
}

func (h *defiantHook) Retire(Result) {}

func (h *defiantHook) Refill(int) []Admission {
	out := h.admissions
	h.admissions = nil
	return out
}

func (h *defiantHook) Reject(adm Admission, err error) { h.rejected = append(h.rejected, adm) }

// A bare engine (engine.New, no field set) refills: the serving layer hooks
// every launch, and every launch that generates runs the fused loop, so the
// hook is offered the freed capacity, the admission is seated, and every
// output — incumbents and the admission alike — is what the request gets
// alone.
func TestBareEngineRefills(t *testing.T) {
	src := rng.New(74)
	tokens, items := makeRequests(src, 3, 2)
	b, _ := batch.PackConcat(items, 1, 5)
	tokens[99] = []int{5}
	e := testEngine(t, 3)
	p, err := e.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	hook := &scriptHook{queue: []Admission{{ID: 99, Tokens: tokens[99]}}}
	rep, err := e.RunPreparedRefill(p, hook)
	p.Release()
	if err != nil {
		t.Fatal(err)
	}
	if hook.offers == 0 || rep.Refill == nil || rep.Refill.Admitted != 1 || len(hook.queue) != 0 {
		t.Fatalf("bare engine did not refill: offers %d, queue left %d, report %+v", hook.offers, len(hook.queue), rep.Refill)
	}
	if len(rep.Results) != len(items)+1 || len(hook.retired) != len(rep.Results) {
		t.Fatalf("%d results, %d delivered through the hook, for %d items + 1 admission",
			len(rep.Results), len(hook.retired), len(items))
	}
	for _, r := range rep.Results {
		solo, err := e.RunSingle(r.ID, tokens[r.ID])
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(r.Output, solo.Output) || r.Steps != solo.Steps {
			t.Fatalf("request %d: %v/%d vs solo %v/%d", r.ID, r.Output, r.Steps, solo.Output, solo.Steps)
		}
	}
}

// An encode-only launch (MaxNew 0) returns after its encode even when hooked:
// nothing retires mid-flight, so the hook is never offered capacity, its
// queue is left alone, nothing is delivered through it and no refill summary
// is reported.
func TestEncodeOnlyLaunchOffersNothing(t *testing.T) {
	src := rng.New(75)
	tokens, items := makeRequests(src, 3, 2)
	b, _ := batch.PackConcat(items, 1, 8)
	tokens[99] = []int{5}
	e := testEngine(t, 0)
	p, err := e.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	hook := &scriptHook{queue: []Admission{{ID: 99, Tokens: tokens[99]}}}
	rep, err := e.RunPreparedRefill(p, hook)
	p.Release()
	if err != nil {
		t.Fatal(err)
	}
	if hook.offers != 0 || len(hook.queue) != 1 || len(hook.retired) != 0 || len(hook.rejected) != 0 || rep.Refill != nil {
		t.Fatalf("encode-only launch touched its hook: offers %d, queue %d, retired %d, rejected %d, report %+v",
			hook.offers, len(hook.queue), len(hook.retired), len(hook.rejected), rep.Refill)
	}
	if len(rep.Results) != len(items) || rep.EncodedTokens != 5 {
		t.Fatalf("%d results, %d encoded tokens, want %d and 5", len(rep.Results), rep.EncodedTokens, len(items))
	}
	for _, r := range rep.Results {
		if len(r.Output) != 0 || r.Steps != 0 {
			t.Fatalf("encode-only result %+v generated", r)
		}
	}
}

// A Concat launch seats its items in row order, so flat segment order is row
// order across rows: with every generation cap at 0 the segments retire
// before any step, highest flat index first, and the hook sees the items in
// reverse row order, each once, with no launch item rejected.
func TestLaunchSeatsInRowOrder(t *testing.T) {
	src := rng.New(75)
	tokens, items := makeRequests(src, 3, 5, 2, 6, 4)
	b, rest := batch.PackConcat(items, 2, 10)
	if len(rest) != 0 || len(b.Rows) != 2 {
		t.Fatalf("pack: %d rows, %d left", len(b.Rows), len(rest))
	}
	e := testEngine(t, 4)
	e.OutputCap = func(int) int { return 0 }
	p, err := e.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	hook := &scriptHook{}
	if _, err := e.RunPreparedRefill(p, hook); err != nil {
		t.Fatal(err)
	}
	order := b.Items()
	if len(hook.retired) != len(order) || len(hook.rejected) != 0 {
		t.Fatalf("retired %d, rejected %d of %d items", len(hook.retired), len(hook.rejected), len(order))
	}
	for i, r := range hook.retired {
		if want := order[len(order)-1-i].ID; r.ID != want {
			t.Fatalf("retirement %d is item %d, want %d (flat order must be row order)", i, r.ID, want)
		}
	}
}
