// Package engine executes batch layouts on the real Go transformer: it is
// the TCB "customized inference engine" of Fig. 3. Given a batch.Batch and
// the token sequences of its items, the engine builds each row's
// concatenated layout, runs the ConcatBatching-aware encoder and the
// auto-regressive decoder, and returns per-request outputs together with
// the encoder work the launch executed.
//
// The engine supports all batching schemes, and encodes every one of them
// through the block attention kernel. TCB rows are staged pad-free — a row's
// tensor height is what it holds; Row.PadTo is its capacity and memory
// budget, never multiplied — with one block per request for Concat and one
// per slot (§4.2) for SlottedConcat, which also gets early memory cleaning.
// Naive and Turbo rows hold a single segment and keep their padding inside
// one whole-row block: that waste is the baselines' definition.
package engine

import (
	"fmt"
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
	// Items with CachedLen > 0 attach the cached prefix's frozen cross K/V
	// to their decode segment instead of re-encoding the prefix (the caller
	// must hold a pin for the duration of the launch; see prefixcache);
	// items with a declared-but-uncached prefix have their prefix rows
	// frozen into the cache as soon as they are encoded.
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
	// executed, launch rows and mid-flight admissions alike: rows embedded,
	// projected and FFN'd, and attention scores computed per layer and head.
	EncodedTokens int64
	EncodedScores int64
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
// padded only under Naive/Turbo — concat layout, slot descriptors, generation
// caps). Staging is pure host work touching no model state, so the pipeline's
// prepare stage runs it for batch t+1 while batch t computes.
type Prepared struct {
	Batch  *batch.Batch
	Tokens map[int64][]int

	// Staged per non-empty row, in batch-row order. layouts is the decode
	// (item) layout — one segment per item, spanning its resident tokens.
	// encLayouts is the encoder layout: identical except that items with a
	// declared, uncached prefix are split into two segments (prefix, then
	// suffix), each with its own positional-encoding restart and isolation.
	// Items without prefixes produce identical layouts and encLayouts is
	// the same slice value — the pre-prefix path, bit for bit. slots[ri] is
	// the row's attention partition; nil (Concat) means one block per
	// encoder segment.
	rows       []batch.Row
	rowTokens  [][]int
	layouts    []model.RowLayout
	encLayouts []model.RowLayout
	slots      [][]model.Slot
	caps       [][]int
	// prefixes[ri][i] is the frozen prefix attached to row ri's item i
	// (cache hits only; nil entries otherwise). inserts lists the items
	// whose freshly encoded prefix rows should be frozen into the cache
	// after the run completes.
	prefixes [][]*model.PrefixKV
	inserts  []prefixInsert

	eng      *Engine
	memTag   string
	released atomic.Bool
}

// prefixInsert locates a declared-but-uncached prefix inside a staged row:
// rows [start, start+n) of row ri's encoder output are item id's prefix.
type prefixInsert struct {
	ri    int
	start int
	n     int
	id    int64
}

// Prepare validates b, reserves its device memory, and stages the host-side
// row tensors. The reservation is held until Release; every successful
// Prepare must be paired with Release (RunPrepared never frees it, so a
// retried batch can be released before its requeue).
func (e *Engine) Prepare(b *batch.Batch, tokens map[int64][]int) (*Prepared, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	for _, it := range b.Items() {
		seq, ok := tokens[it.ID]
		if !ok {
			return nil, fmt.Errorf("engine: no tokens for item %d", it.ID)
		}
		// tokens always carries the FULL request; on a prefix-cache hit only
		// the suffix (it.Len tokens) is resident in the row.
		if len(seq) != it.Len+it.CachedLen {
			return nil, fmt.Errorf("engine: item %d has %d tokens, layout says %d",
				it.ID, len(seq), it.Len+it.CachedLen)
		}
		if it.CachedLen > 0 && e.PrefixCache == nil {
			return nil, fmt.Errorf("engine: item %d expects a cached prefix but the engine has no prefix cache", it.ID)
		}
		if err := e.checkTokens(it.ID, seq); err != nil {
			return nil, err
		}
	}
	p := &Prepared{Batch: b, Tokens: tokens, eng: e}
	for _, row := range b.Rows {
		if len(row.Items) == 0 {
			continue
		}
		ri := len(p.rows)
		rowTokens, layout, encLayout, slots, prefixes, err := e.rowLayout(b, row, tokens, ri, &p.inserts)
		if err != nil {
			return nil, err
		}
		p.rows = append(p.rows, row)
		p.rowTokens = append(p.rowTokens, rowTokens)
		p.layouts = append(p.layouts, layout)
		p.encLayouts = append(p.encLayouts, encLayout)
		p.slots = append(p.slots, slots)
		p.caps = append(p.caps, e.rowCaps(row))
		p.prefixes = append(p.prefixes, prefixes)
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

// rowLayout concatenates a row's item tokens (resident suffix only for
// prefix-cache hits) and builds the decode (item) layout, the encoder layout
// (declared-but-uncached prefixes split into their own segments), the slot
// descriptors, the attached frozen prefixes (for hits) and the pending cache
// inserts (for cold declared prefixes). A TCB row is staged at the height it
// holds; only the padding baselines materialize PadTo.
func (e *Engine) rowLayout(b *batch.Batch, row batch.Row, tokens map[int64][]int, ri int, inserts *[]prefixInsert) (rowTokens []int, layout, encLayout model.RowLayout, slots []model.Slot, prefixes []*model.PrefixKV, err error) {
	height := row.Used()
	if b.Scheme == batch.Naive || b.Scheme == batch.Turbo {
		height = row.PadTo
	}
	lengths := make([]int, len(row.Items))
	rowTokens = make([]int, 0, height)
	encLengths := make([]int, 0, len(row.Items))
	segCounts := make([]int, len(row.Items))
	split := false
	start := 0
	for i, it := range row.Items {
		lengths[i] = it.Len
		seq := tokens[it.ID]
		rowTokens = append(rowTokens, seq[it.CachedLen:]...)
		segCounts[i] = 1
		switch {
		case it.CachedLen > 0:
			// Hit: only the suffix is resident; the decode segment inherits
			// the frozen prefix K/V. The pin the serving layer took at
			// admission guarantees residency here.
			_, kv, ok := e.PrefixCache.Peek(seq, it.CachedLen)
			if !ok {
				return nil, model.RowLayout{}, model.RowLayout{}, nil, nil,
					fmt.Errorf("engine: item %d's cached prefix is not resident (pin not held?)", it.ID)
			}
			if prefixes == nil {
				prefixes = make([]*model.PrefixKV, len(row.Items))
			}
			prefixes[i] = kv
			encLengths = append(encLengths, it.Len)
		case it.PrefixLen > 0:
			// Cold declared prefix: encode prefix and suffix as two isolated
			// segments (separate PE restart each) so the prefix rows are
			// position-independent and cacheable; freeze them after the run.
			encLengths = append(encLengths, it.PrefixLen, it.Len-it.PrefixLen)
			segCounts[i] = 2
			split = true
			if e.PrefixCache != nil && !e.PrefixCache.Contains(seq, it.PrefixLen) {
				*inserts = append(*inserts, prefixInsert{ri: ri, start: start, n: it.PrefixLen, id: it.ID})
			}
		default:
			encLengths = append(encLengths, it.Len)
		}
		start += it.Len
	}
	for len(rowTokens) < height {
		rowTokens = append(rowTokens, vocab.PadID)
	}
	layout = model.ConcatLayout(lengths, height)
	encLayout = layout
	if split {
		encLayout = model.ConcatLayout(encLengths, height)
	}
	// Concat rows carry no slots: one block per encoder segment.
	if b.Scheme != batch.Concat {
		slots = e.slotsForRow(b, row, encLayout, segCounts)
		if b.Scheme != batch.SlottedConcat {
			slots[0].Len = height // a baseline row is one block, padding included
		}
	}
	return rowTokens, layout, encLayout, slots, prefixes, nil
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

// fanOut runs job(i, ws) for every i in [0, n) and waits. Several jobs run
// concurrently — the batch dimension of a real GPU launch — each on its own
// pooled workspace; a lone job runs inline on ws, because a one-request
// launch or a single admission is a couple of milliseconds of compute and a
// goroutine hand-off plus a cold workspace would show in it. A job's panic
// is re-raised on the caller's goroutine once every job has returned, so a
// recover around the launch sees it however many rows the launch has.
func fanOut(n int, ws *tensor.Workspace, job func(i int, ws *tensor.Workspace)) {
	if n == 1 {
		job(0, ws)
		return
	}
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			ws := tensor.NewWorkspace()
			defer ws.Close()
			job(i, ws)
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// encode is the engine's one encoder call — launch rows, mid-flight
// admissions and cold prefixes alike: block attention, separate positional
// encoding, no dense mask.
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

// freezeRowPrefixes runs row ri's staged insert-on-completion jobs.
func (e *Engine) freezeRowPrefixes(p *Prepared, ri int, enc *tensor.Matrix) {
	for _, job := range p.inserts {
		if job.ri == ri {
			e.freezePrefix(p.Tokens[job.id], job.n, enc, job.start)
		}
	}
}

// freezePrefix offers a cold declared prefix — the first n tokens of seq,
// just encoded as rows [start, start+n) of enc, in a launch row or as an
// admission — to the cache: the rows are copied out, projected into frozen
// cross K/V and inserted. Best-effort: a failure (over budget, out of device
// memory) or a concurrent launch that froze it first only means the next
// identical request may encode cold again.
func (e *Engine) freezePrefix(seq []int, n int, enc *tensor.Matrix, start int) {
	if e.PrefixCache == nil || enc == nil || e.PrefixCache.Contains(seq, n) {
		return
	}
	rows := enc.Slice(start, start+n) // deep copy; cache owns it
	if kv, err := e.Model.BuildPrefixKV(rows); err == nil {
		e.PrefixCache.Insert(seq, n, rows, kv)
	}
}

// slotsForRow converts the batch's physical slot grouping into the model's
// Slot descriptors over the encoder layout. segCounts[i] is the number of
// encoder segments item i contributes (2 when a declared prefix splits it,
// 1 otherwise); the item's segments are consecutive, so its slot span is
// unchanged by the split — the prefix/suffix isolation happens inside the
// slot via the layout's segment IDs.
func (e *Engine) slotsForRow(b *batch.Batch, row batch.Row, layout model.RowLayout, segCounts []int) []model.Slot {
	groups := b.SlotGroups(row)
	var slots []model.Slot
	seg, item := 0, 0
	for _, g := range groups {
		var s model.Slot
		first := true
		for range g {
			for k := 0; k < segCounts[item]; k++ {
				sg := layout.Segments[seg]
				if first {
					s.Start = sg.Start
					first = false
				}
				s.SegIdx = append(s.SegIdx, seg)
				s.Len = sg.End() - s.Start
				seg++
			}
			item++
		}
		if !first {
			slots = append(slots, s)
		}
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
