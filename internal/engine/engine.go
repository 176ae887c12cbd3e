// Package engine executes batch layouts on the real Go transformer: it is
// the TCB "customized inference engine" of Fig. 3. Given a batch.Batch and
// the token sequences of its items, the engine builds each row's
// concatenated layout, runs the ConcatBatching-aware encoder and the
// auto-regressive decoder, and returns per-request outputs together with
// wall-clock timing and simulated-memory accounting.
//
// The engine supports all batching schemes: Naive and Turbo rows hold a
// single segment (the padded baseline layouts), Concat rows hold many
// segments with dense masked attention, and SlottedConcat rows use the
// per-slot attention of §4.2 plus early memory cleaning.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
	// UseCache selects the KV-cached incremental decoder (O(T) token
	// passes per segment) instead of the mask-based re-run decoder
	// (O(T²)). Outputs are identical; the cache is per segment, so it is
	// valid under every batching scheme.
	UseCache bool
	// FuseDecode (requires UseCache) decodes the whole batch through one
	// fused BatchDecodeState: per decode step, every row's live segments
	// advance together through single batch-wide GEMMs per layer — the GEMM
	// shapes of a real B×L launch — instead of B independent per-row decode
	// streams. Rows still encode in parallel. Outputs are token-identical
	// to per-row decoding; New enables it by default. The fused loop is also
	// the one that retires segments early and takes mid-flight admissions
	// (refill.go).
	FuseDecode bool
	// BytesPerToken is the simulated activation footprint used for the
	// memory reports (d_model × 4 bytes × a small constant in a real
	// system; any positive value preserves the comparisons).
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
	// Quantize routes every projection (attention, FFN, logits) through the
	// int8 per-output-channel quantized GEMM instead of the float32 kernels.
	// Opt-in: outputs carry a bounded quantization error rather than the
	// float32 path's bitwise-identity guarantee. The model is quantized
	// lazily on first Prepare (once per shared Params, race-safe).
	Quantize bool
	// PrefixCache, when non-nil, is the shared-prompt prefix KV cache.
	// Items with CachedLen > 0 attach the cached prefix's frozen cross K/V
	// to their decode segment instead of re-encoding the prefix (the caller
	// must hold a pin for the duration of the launch; see prefixcache);
	// items with a declared-but-uncached prefix have their prefix rows
	// frozen into the cache once they complete. Prefix items require
	// UseCache (the KV-cached decoder); everything else is unaffected.
	PrefixCache *prefixcache.Cache
}

// New returns an engine over m generating at most maxNew tokens per request.
func New(m *model.Model, maxNew int) *Engine {
	return &Engine{
		Model: m, MaxNew: maxNew, FuseDecode: true,
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
	Elapsed time.Duration
	// Memory reports are present when the batch decodes (MaxNew > 0):
	// WholeBatch is the §4.2.2 baseline, Early the slotted policy (only
	// for SlottedConcat batches; zero value otherwise).
	WholeBatch gpu.CleaningReport
	Early      gpu.CleaningReport
	HasEarly   bool
	// Refill is present on refill-enabled launches (RunPreparedRefill).
	Refill *RefillReport
}

// Run executes b. tokens maps item IDs to their input token sequences; the
// sequence length must equal the item's Len. Rows execute in parallel —
// the batch dimension of a real GPU launch. Run is Prepare + RunPrepared +
// Release in one call; the serve pipeline drives the three pieces
// separately so staging and cleanup overlap neighbouring batches' compute.
func (e *Engine) Run(b *batch.Batch, tokens map[int64][]int) (*Report, error) {
	p, err := e.Prepare(b, tokens)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	return e.RunPrepared(p)
}

// Prepared is a batch staged for execution: validated, its device memory
// reserved, and every row's host-side tensors built (concatenated + padded
// token ids, concat layout, slot descriptors, generation caps). Staging is
// pure host work touching no model state, so the pipeline's prepare stage
// runs it for batch t+1 while batch t computes.
type Prepared struct {
	Batch  *batch.Batch
	Tokens map[int64][]int
	// DeferCleaning makes RunPrepared skip the memory-cleaning simulations
	// (the §4.2.2 whole-batch vs early-cleaning reports); the caller runs
	// FinishReport later — the pipeline's cleanup stage, overlapped with
	// the next batch's compute.
	DeferCleaning bool

	mode model.AttentionMode
	// Staged per non-empty row, in batch-row order. layouts is the decode
	// (item) layout — one segment per item, spanning its resident tokens.
	// encLayouts is the encoder layout: identical except that items with a
	// declared, uncached prefix are split into two segments (prefix, then
	// suffix), each with its own positional-encoding restart and isolation.
	// Items without prefixes produce identical layouts and encLayouts is
	// the same slice value — the pre-prefix path, bit for bit.
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
	if e.Quantize {
		e.Model.EnsureQuantized()
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
		if it.PrefixLen > 0 && !e.UseCache {
			return nil, fmt.Errorf("engine: item %d declares a prefix but the engine runs without the KV-cached decoder", it.ID)
		}
		if it.CachedLen > 0 && e.PrefixCache == nil {
			return nil, fmt.Errorf("engine: item %d expects a cached prefix but the engine has no prefix cache", it.ID)
		}
	}
	p := &Prepared{Batch: b, Tokens: tokens, mode: model.AttDense, eng: e}
	if b.Scheme == batch.SlottedConcat {
		p.mode = model.AttSlotted
	}
	for _, row := range b.Rows {
		if len(row.Items) == 0 {
			continue
		}
		ri := len(p.rows)
		rowTokens, layout, encLayout, slots, prefixes, err := e.rowLayout(b, row, tokens, p.mode, ri, &p.inserts)
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
// memory reservation (Release does) and, with DeferCleaning set, leaves the
// cleaning simulations to FinishReport.
func (e *Engine) RunPrepared(p *Prepared) (*Report, error) {
	return e.RunPreparedRefill(p, nil)
}

// FinishReport fills rep's memory-cleaning simulations (whole-batch
// baseline, and the early policy for slotted batches). RunPreparedRefill
// calls it inline unless DeferCleaning moved it to the serve loop's cleanup
// stage.
func (p *Prepared) FinishReport(rep *Report) error {
	e := p.eng
	if e.MaxNew <= 0 || len(rep.Results) == 0 {
		return nil
	}
	finish := make(map[int64]int)
	for _, r := range rep.Results {
		finish[r.ID] = r.Steps
	}
	whole, err := gpu.SimulateWholeBatchCleaning(p.Batch, finish, e.BytesPerToken)
	if err != nil {
		return err
	}
	rep.WholeBatch = whole
	if p.Batch.Scheme == batch.SlottedConcat {
		early, err := gpu.SimulateEarlyCleaning(p.Batch, finish, e.BytesPerToken)
		if err != nil {
			return err
		}
		rep.Early = early
		rep.HasEarly = true
	}
	return nil
}

// launchSeq numbers engine launches process-wide for memory-manager tags.
var launchSeq atomic.Uint64

// rowLayout concatenates a row's item tokens (resident suffix only for
// prefix-cache hits), pads to the row capacity and builds the decode (item)
// layout, the encoder layout (declared-but-uncached prefixes split into
// their own segments), the slot descriptors (for slotted batches), the
// attached frozen prefixes (for hits) and the pending cache inserts (for
// cold declared prefixes).
func (e *Engine) rowLayout(b *batch.Batch, row batch.Row, tokens map[int64][]int, mode model.AttentionMode, ri int, inserts *[]prefixInsert) (rowTokens []int, layout, encLayout model.RowLayout, slots []model.Slot, prefixes []*model.PrefixKV, err error) {
	lengths := make([]int, len(row.Items))
	rowTokens = make([]int, 0, row.PadTo)
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
	for len(rowTokens) < row.PadTo {
		rowTokens = append(rowTokens, vocab.PadID)
	}
	layout = model.ConcatLayout(lengths, row.PadTo)
	encLayout = layout
	if split {
		encLayout = model.ConcatLayout(encLengths, row.PadTo)
	}
	if mode == model.AttSlotted {
		slots = e.slotsForRow(b, row, encLayout, segCounts)
	}
	return rowTokens, layout, encLayout, slots, prefixes, nil
}

// rowCaps returns the per-item generation caps of a row (MaxNew clamped by
// OutputCap).
func (e *Engine) rowCaps(row batch.Row) []int {
	caps := make([]int, len(row.Items))
	for i, it := range row.Items {
		caps[i] = e.MaxNew
		if e.OutputCap != nil {
			// The cap depends on the request's full input length — a cache
			// hit must generate exactly what a cold run would.
			if c := e.OutputCap(it.Len + it.CachedLen); c < caps[i] {
				caps[i] = c
			}
		}
		if caps[i] < 0 {
			caps[i] = 0
		}
	}
	return caps
}

// runPerRow executes every staged row end to end in its own goroutine — the
// batch dimension of a real GPU launch. It is the path for engines that do
// not decode through the fused cached state: encode-only (MaxNew = 0), the
// mask-based decoder (UseCache off) and per-row cached decoding (FuseDecode
// off).
func (e *Engine) runPerRow(p *Prepared) ([]Result, error) {
	type rowOut struct {
		results []Result
		err     error
	}
	outs := make([]rowOut, len(p.rows))
	var wg sync.WaitGroup
	for ri := range p.rows {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			res, err := e.runRow(p, ri)
			outs[ri] = rowOut{res, err}
		}(ri)
	}
	wg.Wait()
	var results []Result
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		results = append(results, o.results...)
	}
	return results, nil
}

// freezeRowPrefixes runs row ri's staged insert-on-completion jobs: each
// cold declared prefix's encoder rows are copied out of the row, projected
// into frozen cross K/V, and offered to the cache. Failures (over budget,
// out of device memory) just mean the next identical request encodes cold
// again.
func (e *Engine) freezeRowPrefixes(p *Prepared, ri int, enc *tensor.Matrix) {
	if e.PrefixCache == nil || enc == nil {
		return
	}
	for _, job := range p.inserts {
		if job.ri != ri {
			continue
		}
		seq := p.Tokens[job.id]
		if e.PrefixCache.Contains(seq, job.n) {
			continue // a concurrent launch froze it first
		}
		rows := enc.Slice(job.start, job.start+job.n) // deep copy; cache owns it
		kv, err := e.Model.BuildPrefixKV(rows)
		if err != nil {
			continue
		}
		e.PrefixCache.Insert(seq, job.n, rows, kv)
	}
}

// runRow executes one staged row: encode, decode, split results per item.
func (e *Engine) runRow(p *Prepared, ri int) ([]Result, error) {
	row := p.rows[ri]
	// One workspace per row goroutine: layer intermediates are checked out
	// and released inside the encoder/decoder, and the buffers themselves
	// are recycled across batches through the package pool.
	ws := tensor.NewWorkspace()
	defer ws.Close()
	encOut := e.Model.EncodeRowWS(p.rowTokens[ri], p.encLayouts[ri], p.slots[ri], p.mode, true, ws)
	if e.MaxNew == 0 {
		e.freezeRowPrefixes(p, ri, encOut)
		out := make([]Result, len(row.Items))
		for i, it := range row.Items {
			out[i] = Result{ID: it.ID}
		}
		return out, nil
	}
	var gen []model.GenerateResult
	if e.UseCache {
		var err error
		gen, err = e.Model.GenerateRowCachedPrefix(encOut, p.layouts[ri], p.prefixes[ri], p.caps[ri])
		if err != nil {
			return nil, err
		}
	} else {
		gen = e.Model.GenerateRowCapped(encOut, p.layouts[ri], p.slots[ri], p.caps[ri], p.mode)
	}
	e.freezeRowPrefixes(p, ri, encOut)
	out := make([]Result, len(row.Items))
	for i, it := range row.Items {
		out[i] = Result{ID: it.ID, Output: gen[i].Tokens, Steps: gen[i].Steps}
	}
	return out, nil
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
