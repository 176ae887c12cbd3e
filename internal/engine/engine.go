// Package engine executes batch layouts on the real Go transformer: it is
// the TCB "customized inference engine" of Fig. 3. Given a batch.Batch and
// the token sequences of its items, the engine runs the ConcatBatching-aware
// encoder and the auto-regressive decoder, and returns per-request outputs
// together with the encoder work the launch executed.
//
// The engine supports all batching schemes, and encodes every one of them
// through the block attention kernel. A Concat row is a packing and memory
// unit — Row.PadTo is its capacity and device reservation — never an encode
// unit: each request keeps its own positional encoding and attends only to
// itself (§4.1), so the launch seats its items as its step-0 admission round,
// one pad-free encode per request, and resolves and shares their declared
// prefixes in the same place mid-flight admissions do. SlottedConcat rows
// are encoded whole with one block per slot (§4.2); Naive and Turbo rows
// hold a single segment and keep their padding inside one whole-row block:
// that waste is the baselines' definition.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tcb/internal/batch"
	"tcb/internal/gpu"
	"tcb/internal/model"
	"tcb/internal/prefixcache"
	"tcb/internal/tensor"
	"tcb/internal/vocab"
)

// Engine runs batches on a model.
type Engine struct {
	Model *model.Model
	// MaxNew bounds generated tokens per request (decoder steps).
	MaxNew int
	// OutputCap, when non-nil, bounds each request's generation by a
	// function of its input length (further clamped by MaxNew). Seq2seq
	// services typically produce output proportional to input, which is
	// what staggers finish times inside a batch (§4.2.2).
	OutputCap func(inputLen int) int
	// UseCache and FuseDecode are ignored: every launch that generates
	// decodes through the fused KV-cached loop (refill.go). They remain only
	// because the frozen benchmark module (bench/) still assigns them;
	// nothing else may read or write them.
	UseCache   bool
	FuseDecode bool
	// BytesPerToken is the simulated activation footprint behind the Mem
	// reservations and the §4.2.2 cleaning simulations (d_model × 4 bytes ×
	// a small constant in a real system; any positive value preserves the
	// comparisons).
	BytesPerToken int64
	// Mem, when non-nil, enforces a device-memory budget: each batch
	// reserves TotalTokens × BytesPerToken of activation memory for the
	// duration of its run and Run fails with the allocator's error when
	// the batch does not fit — the admission behaviour a real device
	// shows instead of silently thrashing.
	Mem *gpu.MemoryManager
	// Pool is the persistent kernel worker pool every row-sharded tensor
	// kernel dispatches onto. New wires the shared process pool; the field
	// exists so ownership is explicit (the engine's compute runs on it,
	// the serve pipeline reserves cores away from it via tensor.Reserve).
	Pool *tensor.Pool
	// PrefixCache, when non-nil, is the shared-prompt prefix KV cache.
	// Requests with CachedLen > 0 attach the cached prefix's frozen cross
	// K/V to their decode segment instead of re-encoding the prefix (the
	// caller must hold a pin for the duration of the launch; see
	// prefixcache). A cold declared prefix — of a launch item or a mid-flight
	// admission alike — is resolved again when its round encodes
	// (resolvePrefix): a prefix resident by then, or encoded by an earlier
	// seat of the round, is inherited instead of encoded; otherwise the seat
	// encodes it and freezes it into the cache as soon as the round lands.
	PrefixCache *prefixcache.Cache
}

// New returns an engine over m generating at most maxNew tokens per request.
func New(m *model.Model, maxNew int) *Engine {
	return &Engine{
		Model: m, MaxNew: maxNew,
		BytesPerToken: int64(m.Cfg.DModel) * 4,
		Pool:          tensor.DefaultPool(),
	}
}

// Result is the output for one request.
type Result struct {
	ID     int64
	Output []int // generated token ids, EOS excluded
	Steps  int   // decoder steps until this request finished
}

// Report summarizes one batch execution.
type Report struct {
	Results []Result
	// Refill is present on refill-enabled launches (RunPreparedRefill).
	Refill *RefillReport
	// EncodedTokens and EncodedScores count the encoder work the launch
	// executed, launch items and mid-flight admissions alike: rows embedded,
	// projected and FFN'd, and attention scores computed per layer and head.
	EncodedTokens int64
	EncodedScores int64
	// PrefixLateHits and PrefixShared count the cold declared prefixes of
	// launch items and mid-flight admissions the engine inherited instead of
	// encoding: resident by the time the round encoded (a hit the Submit-time
	// lookup missed), or encoded by an earlier seat of the same round. The
	// *Tokens fields are the prefix tokens each left unencoded.
	PrefixLateHits, PrefixLateTokens int64
	PrefixShared, PrefixSharedTokens int64
}

// Run executes b. tokens maps item IDs to their input token sequences; the
// sequence length must equal the item's Len. Rows execute in parallel —
// the batch dimension of a real GPU launch. Run is Prepare + RunPrepared +
// Release in one call; the serve pipeline drives Prepare, RunPreparedRefill
// and Release separately so staging and release overlap neighbouring
// batches' compute.
func (e *Engine) Run(b *batch.Batch, tokens map[int64][]int) (*Report, error) {
	p, err := e.Prepare(b, tokens)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	return e.RunPrepared(p)
}

// Prepared is a batch staged for execution: validated, its device memory
// reserved, and every row's host-side tensors built (concatenated token ids —
// padded only under Naive/Turbo — item layout, slot descriptors, generation
// caps). Staging is pure host work touching no model state, so the pipeline's
// prepare stage runs it for batch t+1 while batch t computes.
type Prepared struct {
	Batch  *batch.Batch
	Tokens map[int64][]int

	// Staged per non-empty row, in batch-row order: the row's resident
	// tokens, its item layout — one segment per item — its attention
	// partition (nil under Concat: one block per segment) and its items'
	// generation caps. The row encoder (encodeRows) reads them. A Concat
	// launch seats its items one by one instead (launchSeats); its rows are
	// staged all the same, as the per-row reference the equality tests
	// decode it against.
	rows      []batch.Row
	rowTokens [][]int
	layouts   []model.RowLayout
	slots     [][]model.Slot
	caps      [][]int

	eng      *Engine
	memTag   string
	released atomic.Bool
}

// Prepare validates b, reserves its device memory, and stages the host-side
// row tensors. The reservation is held until Release; every successful
// Prepare must be paired with Release (RunPrepared never frees it, so a
// retried batch can be released before its requeue).
func (e *Engine) Prepare(b *batch.Batch, tokens map[int64][]int) (*Prepared, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	p := &Prepared{Batch: b, Tokens: tokens, eng: e}
	for _, row := range b.Rows {
		if len(row.Items) == 0 {
			continue
		}
		for _, it := range row.Items {
			seq, ok := tokens[it.ID]
			if !ok {
				return nil, fmt.Errorf("engine: no tokens for item %d", it.ID)
			}
			// tokens always carries the FULL request; on a prefix-cache hit
			// only the suffix (it.Len tokens) is resident in the row.
			if len(seq) != it.Len+it.CachedLen {
				return nil, fmt.Errorf("engine: item %d has %d tokens, layout says %d",
					it.ID, len(seq), it.Len+it.CachedLen)
			}
			if b.Scheme != batch.Concat && (it.PrefixLen > 0 || it.CachedLen > 0) {
				return nil, fmt.Errorf("engine: item %d declares a prefix in a %v batch; only Concat launches share prefixes", it.ID, b.Scheme)
			}
			if it.CachedLen > 0 && e.PrefixCache == nil {
				return nil, fmt.Errorf("engine: item %d expects a cached prefix but the engine has no prefix cache", it.ID)
			}
			if err := e.checkTokens(it.ID, seq); err != nil {
				return nil, err
			}
		}
		rowTokens, layout, slots := rowLayout(b, row, tokens)
		p.rows = append(p.rows, row)
		p.rowTokens = append(p.rowTokens, rowTokens)
		p.layouts = append(p.layouts, layout)
		p.slots = append(p.slots, slots)
		p.caps = append(p.caps, e.rowCaps(row))
	}
	if e.Mem != nil && b.TotalTokens() > 0 {
		// Tag by a fresh launch id, not the batch pointer: concurrent runs
		// on the same *batch.Batch would collide on Alloc/Free under a
		// pointer-derived tag.
		tag := fmt.Sprintf("launch-%d", launchSeq.Add(1))
		if err := e.Mem.Alloc(tag, int64(b.TotalTokens())*e.BytesPerToken); err != nil {
			return nil, err
		}
		p.memTag = tag
	}
	return p, nil
}

// TokenError rejects a request carrying a token id outside the model's
// vocabulary. Prepare and refill admission return it before the request
// reaches an encoder; it names the request, whose batchmates are innocent.
type TokenError struct {
	ID    int64 // the offending request
	Token int   // its first out-of-range token id
	Vocab int   // the model's vocabulary size
}

func (e *TokenError) Error() string {
	return fmt.Sprintf("engine: request %d has token id %d outside the vocabulary [0, %d)", e.ID, e.Token, e.Vocab)
}

// checkTokens returns a *TokenError for the first token of request id's
// sequence outside [0, VocabSize).
func (e *Engine) checkTokens(id int64, seq []int) error {
	vocab := e.Model.Cfg.VocabSize
	for _, tok := range seq {
		if tok < 0 || tok >= vocab {
			return &TokenError{ID: id, Token: tok, Vocab: vocab}
		}
	}
	return nil
}

// Release frees the batch's device-memory reservation. Idempotent and safe
// on a nil receiver, so failure paths can release unconditionally before
// requeueing the batch's requests.
func (p *Prepared) Release() {
	if p == nil || p.released.Swap(true) {
		return
	}
	if p.memTag != "" {
		_ = p.eng.Mem.Free(p.memTag)
	}
}

// RunPrepared executes a staged batch to completion: RunPreparedRefill with
// nobody to deliver early to and nothing to admit. It does not release the
// memory reservation (Release does).
func (e *Engine) RunPrepared(p *Prepared) (*Report, error) {
	return e.RunPreparedRefill(p, nil)
}

// launchSeq numbers engine launches process-wide for memory-manager tags.
var launchSeq atomic.Uint64

// rowLayout concatenates a row's resident item tokens (the suffix only for a
// prefix-cache hit) and builds the item layout and, for the slotted and
// padding schemes, the slot descriptors. A TCB row is staged at the height
// it holds; only the padding baselines materialize PadTo.
func rowLayout(b *batch.Batch, row batch.Row, tokens map[int64][]int) (rowTokens []int, layout model.RowLayout, slots []model.Slot) {
	height := row.Used()
	if b.Scheme == batch.Naive || b.Scheme == batch.Turbo {
		height = row.PadTo
	}
	lengths := make([]int, len(row.Items))
	rowTokens = make([]int, 0, height)
	for i, it := range row.Items {
		lengths[i] = it.Len
		rowTokens = append(rowTokens, tokens[it.ID][it.CachedLen:]...)
	}
	for len(rowTokens) < height {
		rowTokens = append(rowTokens, vocab.PadID)
	}
	layout = model.ConcatLayout(lengths, height)
	// Concat rows carry no slots: one block per segment.
	if b.Scheme != batch.Concat {
		slots = slotsForRow(b, row, layout)
		if b.Scheme != batch.SlottedConcat {
			slots[0].Len = height // a baseline row is one block, padding included
		}
	}
	return rowTokens, layout, slots
}

// rowCaps returns the per-item generation caps of a row.
func (e *Engine) rowCaps(row batch.Row) []int {
	caps := make([]int, len(row.Items))
	for i, it := range row.Items {
		caps[i] = e.genCap(it.Len + it.CachedLen)
	}
	return caps
}

// genCap returns the generation cap of a request: MaxNew clamped by
// OutputCap, floored at 0. inputLen is the request's full input length — a
// cache hit must generate exactly what a cold run would.
func (e *Engine) genCap(inputLen int) int {
	c := e.MaxNew
	if e.OutputCap != nil {
		if oc := e.OutputCap(inputLen); oc < c {
			c = oc
		}
	}
	if c < 0 {
		c = 0
	}
	return c
}

// fanOut runs job(i, ws) for every i in [0, n) and waits. The jobs run side
// by side — the batch dimension of a real GPU launch — on at most GOMAXPROCS
// workers, each taking the next job until none is left: the caller on ws,
// every other worker on a goroutine and pooled workspace of its own. A round
// of many short requests so costs a few goroutine hand-offs, not one per
// request, and a lone job runs inline. A job's panic is re-raised on the
// caller's goroutine once every job has run, so a recover around the launch
// sees it however many jobs the launch has.
func fanOut(n int, ws *tensor.Workspace, job func(i int, ws *tensor.Workspace)) {
	if n == 1 {
		job(0, ws)
		return
	}
	var fan struct {
		wg       sync.WaitGroup
		next     atomic.Int64
		once     sync.Once
		panicked any
	}
	work := func(ws *tensor.Workspace) {
		for i := int(fan.next.Add(1)) - 1; i < n; i = int(fan.next.Add(1)) - 1 {
			func() {
				defer func() {
					if r := recover(); r != nil {
						fan.once.Do(func() { fan.panicked = r })
					}
				}()
				job(i, ws)
			}()
		}
	}
	for w := 1; w < min(n, runtime.GOMAXPROCS(0)); w++ {
		fan.wg.Add(1)
		go func() {
			defer fan.wg.Done()
			ws := tensor.NewWorkspace()
			defer ws.Close()
			work(ws)
		}()
	}
	work(ws)
	fan.wg.Wait()
	if fan.panicked != nil {
		panic(fan.panicked)
	}
}

// encode is the engine's one encoder call — Concat launch items, mid-flight
// admissions, cold prefixes and the other schemes' rows alike: block
// attention, separate positional encoding, no dense mask.
func (e *Engine) encode(tokens []int, layout model.RowLayout, slots []model.Slot, ws *tensor.Workspace) *tensor.Matrix {
	return e.Model.EncodeRowWS(tokens, layout, slots, model.AttSlotted, true, ws)
}

// addEncodeWork charges rep with one encode: every row of the layout is
// embedded, projected and FFN'd, and attention scores exactly its blocks —
// one per slot, or one per segment where there are no slots.
func (rep *Report) addEncodeWork(layout model.RowLayout, slots []model.Slot) {
	rep.EncodedTokens += int64(layout.Total)
	if len(slots) > 0 {
		rep.EncodedScores += int64(model.ScoreArea(slots))
		return
	}
	for _, s := range layout.Segments {
		rep.EncodedScores += int64(s.Len * s.Len)
	}
}

// slotsForRow converts the batch's physical slot grouping into the model's
// Slot descriptors over the row's item layout: one slot per group, spanning
// its items' consecutive segments.
func slotsForRow(b *batch.Batch, row batch.Row, layout model.RowLayout) []model.Slot {
	var slots []model.Slot
	seg := 0
	for _, g := range b.SlotGroups(row) {
		if len(g) == 0 {
			continue
		}
		s := model.Slot{Start: layout.Segments[seg].Start}
		for range g {
			s.SegIdx = append(s.SegIdx, seg)
			s.Len = layout.Segments[seg].End() - s.Start
			seg++
		}
		slots = append(slots, s)
	}
	return slots
}

// RunSingle serves one request alone (no batching): the correctness
// reference for the equivalence tests and examples.
func (e *Engine) RunSingle(id int64, tokens []int) (Result, error) {
	items := []batch.Item{{ID: id, Len: len(tokens)}}
	b, rest := batch.PackConcat(items, 1, len(tokens))
	if len(rest) != 0 {
		return Result{}, fmt.Errorf("engine: single request did not pack")
	}
	rep, err := e.Run(b, map[int64][]int{id: tokens})
	if err != nil {
		return Result{}, err
	}
	return rep.Results[0], nil
}
