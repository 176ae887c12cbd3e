// The engine's fused decode loop. RunPreparedRefill decodes a prepared batch
// step by step through one BatchDecodeState and treats the launch as a
// persistent execution context. A Concat launch starts from an empty state
// and seats its items as the launch's step-0 round, through the same
// resolve → encode → share → insert path as every later admission round. The
// moment a segment finishes it is delivered through the hook, its KV state
// removed from the fused decode state, and its share of the device
// reservation shrunk (§4.2.2's early memory cleaning, generalized from the
// post-hoc simulation into the live loop). Between steps the hook is
// consulted for queued requests that fit the freed token capacity; admitted
// requests are encoded, inserted into the running state, and decode
// alongside the survivors. With a hook that never admits anything — what
// RunPrepared passes — the loop is plain batch-at-a-time decoding: the
// removals are the ones a skip-finished gather performs implicitly, so
// outputs are bitwise identical to model.GenerateBatchCached over the same
// rows (the test oracle).
package engine

import (
	"fmt"
	"math"
	"slices"

	"tcb/internal/batch"
	"tcb/internal/model"
	"tcb/internal/tensor"
	"tcb/internal/vocab"
)

// Admission is one queued request offered to a running batch: the serving
// layer's refill hook returns these from Refill. Tokens always carries the
// FULL request; on a prefix-cache hit (CachedLen > 0) only the suffix is
// encoded and seated, so the admission occupies Resident() tokens of the
// freed capacity.
type Admission struct {
	ID     int64
	Tokens []int
	// PrefixLen declares the shared-prefix boundary (0 = none); CachedLen
	// is 0 (cold — the engine resolves the prefix when the round encodes,
	// see resolvePrefix) or PrefixLen (hit — encode the suffix only and
	// inherit the frozen prefix K/V).
	PrefixLen int
	CachedLen int
}

// Resident returns the token capacity the admission occupies in the batch:
// the full length cold, the uncached suffix on a prefix-cache hit.
func (a Admission) Resident() int { return len(a.Tokens) - a.CachedLen }

// RefillHook connects a running launch back to whoever owns the request
// queue. The engine calls it from the decode loop's goroutine:
//
//   - Retire delivers a finished request the moment its segment is removed
//     and its memory reclaimed — not when the batch ends.
//   - Refill is offered the current free token capacity after each step that
//     retired at least one segment (and is only called with free > 0); it
//     returns the requests to admit, whose token lengths must each fit the
//     offered capacity.
//   - Reject returns an admission the engine could not seat (memory grow
//     failure, over-long input) to the caller for requeueing — or, for a
//     *TokenError, to fail for good.
type RefillHook interface {
	Retire(res Result)
	Refill(freeTokens int) []Admission
	Reject(adm Admission, err error)
}

// RefillReport summarizes one refill-enabled launch for observability.
type RefillReport struct {
	// Admitted counts requests admitted into the launch mid-flight.
	Admitted int
	// RetiredEarly counts segments delivered and memory-cleaned while other
	// segments were still decoding (the batch-end retires are not "early").
	RetiredEarly int
	// Steps is the total number of decode steps the launch ran.
	Steps int
	// SlotIdleSteps accumulates, per step, the number of retired-but-unfilled
	// slots — capacity the no-refill path would have wasted anyway, and the
	// refill path wastes only when the queue offers nothing that fits.
	SlotIdleSteps int64
	// LiveTokenSteps and CapacityTokenSteps accumulate, per decode step, the
	// live input tokens and the batch's token capacity; their ratio is the
	// launch's occupancy.
	LiveTokenSteps     int64
	CapacityTokenSteps int64
}

// shrinkReservation releases bytes from the batch's device reservation as a
// segment retires. Errors are deliberately dropped: a watchdog-abandoned run
// may race the server's Release, and losing a shrink on an already-freed tag
// is harmless.
func (p *Prepared) shrinkReservation(bytes int64) {
	if p.memTag == "" || bytes <= 0 || p.released.Load() {
		return
	}
	_ = p.eng.Mem.Resize(p.memTag, -bytes)
}

// growReservation claims bytes for an admitted request; failure means the
// admission does not fit the device budget and must be rejected.
func (p *Prepared) growReservation(bytes int64) error {
	if p.memTag == "" || bytes <= 0 {
		return nil
	}
	if p.released.Load() {
		return fmt.Errorf("engine: batch reservation already released")
	}
	return p.eng.Mem.Resize(p.memTag, bytes)
}

// RunPreparedRefill executes a staged batch as a persistent execution
// context under hook (nil = deliver nothing early, admit nothing). A Concat
// launch seats its items as its step-0 round (launchSeats); the other schemes
// encode row by row (encodeRows). Every launch that generates decodes through
// the one fused KV-cached loop, so Results arrive in retirement order. An
// encode-only launch (MaxNew = 0) stops after the encode — no decoder state is
// built, which keeps the cost calibration timing exactly the encoder — and
// returns one empty Result per item in row order.
func (e *Engine) RunPreparedRefill(p *Prepared, hook RefillHook) (*Report, error) {
	rep := &Report{}
	// One workspace serves every round of the launch: a saturated launch
	// lives for thousands of them.
	ws := tensor.NewWorkspace()
	defer ws.Close()
	var decRows []model.BatchDecodeRow
	var launch []seat
	if p.Batch.Scheme == batch.Concat {
		var err error
		if launch, err = e.launchSeats(p); err != nil {
			return nil, err
		}
		e.encodeAdmissions(launch, ws)
		e.sharePrefixes(launch, rep)
	} else {
		decRows = e.encodeRows(p)
		for ri := range p.rows {
			rep.addEncodeWork(p.layouts[ri], p.slots[ri])
		}
	}
	if e.MaxNew <= 0 {
		rep.Results = make([]Result, 0, p.Batch.NumItems())
		for _, row := range p.rows {
			for _, it := range row.Items {
				rep.Results = append(rep.Results, Result{ID: it.ID})
			}
		}
		return rep, nil
	}
	if hook == nil {
		hook = noRefill{}
	}
	if err := e.runFusedRefill(p, decRows, launch, hook, rep, ws); err != nil {
		return nil, err
	}
	return rep, nil
}

// noRefill is the hook of a launch nobody is listening to.
type noRefill struct{}

func (noRefill) Retire(Result)           {}
func (noRefill) Refill(int) []Admission  { return nil }
func (noRefill) Reject(Admission, error) {}

// liveSeg is the engine-side bookkeeping for one flat segment of a
// refill-enabled launch; the slice of these stays index-aligned with the
// BatchDecodeState's flat segment order across removals and insertions.
type liveSeg struct {
	id     int64
	cap    int // generation cap (MaxNew clamped by OutputCap)
	inLen  int // input tokens: the capacity it occupies and frees
	steps  int // decode steps this segment has taken
	next   int // token to feed on the next Step
	output []int
}

// seat is one request on its way into a running launch — a Concat launch's
// item or a mid-flight admission: resolved against the prefix cache and the
// round, encoded, then inserted.
type seat struct {
	adm Admission
	// skip is how many leading tokens the seat does not encode: a hit's
	// CachedLen, or a declared prefix the cache or an earlier seat of the
	// round supplies.
	skip int
	// from is the index of the earlier seat of the round whose prefix encode
	// this seat inherits (-1: none); shares marks a seat that encodes its
	// declared prefix for the round and freezes it.
	from   int
	shares bool
	layout model.RowLayout  // encoder layout: prefix | suffix when the seat encodes a declared prefix
	segs   [2]model.Segment // layout's segments, held in the seat so a round allocates none
	enc    *tensor.Matrix   // encoder rows; the suffix alone once kv is set
	kv     *model.PrefixKV  // the prefix the seat inherits (nil: enc is the whole request)
}

// launchSeats resolves a Concat launch's items, in row order, as the launch's
// step-0 round. They were validated at Prepare and occupy the reservation it
// took, so they are never offered to the hook or rejected: a hit whose pin
// was not held fails the launch instead.
func (e *Engine) launchSeats(p *Prepared) ([]seat, error) {
	seated := make([]seat, 0, p.Batch.NumItems())
	for _, row := range p.rows {
		for _, it := range row.Items {
			s := seat{adm: Admission{ID: it.ID, Tokens: p.Tokens[it.ID], PrefixLen: it.PrefixLen, CachedLen: it.CachedLen}, from: -1}
			if err := e.resolvePrefix(&s, seated); err != nil {
				return nil, err
			}
			seated = append(seated, s)
		}
	}
	return seated, nil
}

// runFusedRefill decodes every live segment together — one GEMM per layer
// per step across the whole launch — retiring finished segments and seating
// admissions between steps. The state starts from the encoded rows decRows
// (Slotted, Naive, Turbo) or empty, with the encoded Concat launch seats
// inserted before the first step. It fills rep's results, refill summary and
// the admissions' encode-work counters.
func (e *Engine) runFusedRefill(p *Prepared, decRows []model.BatchDecodeRow, launch []seat, hook RefillHook, rep *Report, ws *tensor.Workspace) error {
	ref := &RefillReport{}
	rep.Refill = ref
	if len(p.rows) == 0 {
		return nil
	}
	st := e.Model.NewBatchDecodeStateCap(decRows, e.MaxNew, len(launch))
	defer st.Close()

	segs := make([]*liveSeg, 0, st.Segments()+len(launch))
	var liveTokens int64
	addSeg := func(id int64, cap, inLen int) {
		segs = append(segs, &liveSeg{id: id, cap: cap, inLen: inLen, next: vocab.BosID})
		liveTokens += int64(inLen)
	}
	if decRows != nil {
		for ri, row := range p.rows {
			for i, it := range row.Items {
				addSeg(it.ID, p.caps[ri][i], it.Len)
			}
		}
	}
	// insert seats an encoded round's seat in the state, after every segment
	// already there, so flat segment order is seating order.
	insert := func(s seat) error {
		var err error
		switch {
		case s.kv != nil:
			_, err = st.InsertSegmentPrefix(s.enc, s.kv)
		case s.skip > 0:
			err = fmt.Errorf("engine: request %d encoded its suffix only but has no prefix to inherit", s.adm.ID)
		default:
			_, err = st.InsertSegment(s.enc)
		}
		if err == nil {
			addSeg(s.adm.ID, e.genCap(len(s.adm.Tokens)), s.adm.Resident())
		}
		return err
	}
	for _, s := range launch {
		if err := insert(s); err != nil {
			return err
		}
	}
	capacityTokens := int64(p.Batch.TotalTokens())

	freeTokens, freeSlots := 0, 0
	next := make([]int, 0, len(segs))
	var finishedIdx []int
	step := 0
	// One seat list serves every round of the launch.
	seated := launch[:0]

	// retire removes segment i from the state and the bookkeeping, shrinks
	// its share of the reservation, and delivers its result through the hook.
	retire := func(i int) {
		sg := segs[i]
		st.RemoveSegment(i)
		copy(segs[i:], segs[i+1:])
		segs[len(segs)-1] = nil
		segs = segs[:len(segs)-1]
		liveTokens -= int64(sg.inLen)
		freeTokens += sg.inLen
		freeSlots++
		p.shrinkReservation(int64(sg.inLen) * e.BytesPerToken)
		res := Result{ID: sg.id, Output: sg.output, Steps: sg.steps}
		rep.Results = append(rep.Results, res)
		hook.Retire(res)
		if len(segs) > 0 {
			ref.RetiredEarly++
		}
	}

	for len(segs) > 0 {
		// Zero-cap segments (OutputCap can floor at 0) retire without a step.
		for i := len(segs) - 1; i >= 0; i-- {
			if segs[i].cap <= 0 {
				retire(i)
			}
		}
		if len(segs) > 0 {
			next = next[:0]
			for _, sg := range segs {
				next = append(next, sg.next)
			}
			logits, err := st.Step(next)
			if err != nil {
				return err
			}
			step++
			ref.Steps = step
			ref.LiveTokenSteps += liveTokens
			ref.CapacityTokenSteps += capacityTokens
			finishedIdx = finishedIdx[:0]
			for i, sg := range segs {
				row := logits[i]
				if row == nil {
					continue
				}
				sg.steps++
				best, bestj := float32(math.Inf(-1)), 0
				for j, v := range row {
					if v > best {
						best, bestj = v, j
					}
				}
				if bestj == vocab.EosID {
					finishedIdx = append(finishedIdx, i)
					continue
				}
				sg.output = append(sg.output, bestj)
				sg.next = bestj
				if len(sg.output) >= sg.cap {
					finishedIdx = append(finishedIdx, i)
				}
			}
			// Retire highest index first so pending indices stay valid.
			for k := len(finishedIdx) - 1; k >= 0; k-- {
				retire(finishedIdx[k])
			}
		}
		// Offer the freed capacity to the queue. Admission is allowed even
		// when every segment just finished: the launch stays alive as long
		// as the queue keeps feeding it.
		if freeTokens > 0 {
			seated = seated[:0]
			for _, adm := range hook.Refill(freeTokens) {
				var err error
				switch {
				case adm.Resident() <= 0 || adm.Resident() > freeTokens:
					err = fmt.Errorf("engine: admission of %d tokens for %d free", adm.Resident(), freeTokens)
				case len(adm.Tokens) > e.Model.P.PosEnc.Rows:
					err = fmt.Errorf("engine: admission of %d tokens beyond MaxLen %d", len(adm.Tokens), e.Model.P.PosEnc.Rows)
				case adm.CachedLen > 0 && e.PrefixCache == nil:
					err = fmt.Errorf("engine: admission %d expects a cached prefix but the engine has no prefix cache", adm.ID)
				}
				s := seat{adm: adm, from: -1}
				if err == nil {
					err = e.checkTokens(adm.ID, adm.Tokens)
				}
				if err == nil {
					err = e.resolvePrefix(&s, seated)
				}
				if err == nil {
					err = p.growReservation(int64(adm.Resident()) * e.BytesPerToken)
				}
				if err != nil {
					hook.Reject(adm, err)
					continue
				}
				freeTokens -= adm.Resident()
				seated = append(seated, s)
			}
			// Encode the whole offer side by side, freeze the prefixes the
			// round encoded, then insert in admission order so the state
			// layout stays deterministic.
			e.encodeAdmissions(seated, ws)
			e.sharePrefixes(seated, rep)
			for _, s := range seated {
				if err := insert(s); err != nil {
					freeTokens += s.adm.Resident()
					p.shrinkReservation(int64(s.adm.Resident()) * e.BytesPerToken)
					hook.Reject(s.adm, err)
					continue
				}
				if freeSlots > 0 {
					freeSlots--
				}
				ref.Admitted++
			}
		}
		if len(segs) > 0 {
			ref.SlotIdleSteps += int64(freeSlots)
		}
	}
	return nil
}

// encodeRows encodes every staged row, rows side by side, through the row
// encoder: the Slotted, Naive and Turbo launches, and the per-row reference
// the equality tests hold a Concat launch's seats to.
func (e *Engine) encodeRows(p *Prepared) []model.BatchDecodeRow {
	decRows := make([]model.BatchDecodeRow, len(p.rows))
	ws := tensor.NewWorkspace()
	defer ws.Close()
	fanOut(len(p.rows), ws, func(ri int, ws *tensor.Workspace) {
		decRows[ri] = model.BatchDecodeRow{
			EncOut: e.encode(p.rowTokens[ri], p.layouts[ri], p.slots[ri], ws),
			Layout: p.layouts[ri],
		}
	})
	return decRows
}

// resolvePrefix decides, before the round encodes, where seat s — offered
// after the seats already in seated — gets its declared prefix from (DESIGN
// §15). A hit inherits the entry its pin holds. A cold declaration, on an
// engine with a prefix cache, inherits the entry if it is resident now, else
// the encode of an earlier seat of the round that declared the same tokens,
// else encodes the prefix for the round itself. Every choice replays the same
// bits: a prefix's rows are a function of its own tokens alone (§4.1.1).
func (e *Engine) resolvePrefix(s *seat, seated []seat) error {
	adm := s.adm
	switch {
	case adm.CachedLen > 0:
		_, kv, ok := e.PrefixCache.Peek(adm.Tokens, adm.CachedLen)
		if !ok {
			return fmt.Errorf("engine: admission %d's cached prefix is not resident (pin not held?)", adm.ID)
		}
		s.skip, s.kv = adm.CachedLen, kv
	case adm.PrefixLen > 0 && e.PrefixCache != nil:
		// An entry's PrefixKV is immutable and outlives its eviction, so a
		// resident prefix needs no pin.
		if _, kv, ok := e.PrefixCache.Peek(adm.Tokens, adm.PrefixLen); ok {
			s.skip, s.kv = adm.PrefixLen, kv
			return nil
		}
		prefix := adm.Tokens[:adm.PrefixLen]
		for j := range seated {
			if o := &seated[j]; o.shares && slices.Equal(o.adm.Tokens[:o.adm.PrefixLen], prefix) {
				s.skip, s.from = adm.PrefixLen, j
				return nil
			}
		}
		s.shares = true
	}
	return nil
}

// sharePrefixes hands every seat of an encoded round the prefix it resolved
// to. A seat that encoded its prefix for the round builds the PrefixKV once
// from those rows, offers it to the cache and keeps only its suffix rows, so
// the prefix is projected once; a later seat that declared the same tokens
// inherits that PrefixKV. rep is charged with the round's encode and counts
// the prefixes resolved without one.
func (e *Engine) sharePrefixes(seated []seat, rep *Report) {
	for i := range seated {
		s := &seated[i]
		rep.addEncodeWork(s.layout, nil)
		switch {
		case s.shares:
			n := s.adm.PrefixLen
			rows := s.enc.Slice(0, n) // deep copy; the cache owns it
			kv, err := e.Model.BuildPrefixKV(rows)
			if err != nil {
				continue // the seat keeps its whole rows and inserts them cold
			}
			e.PrefixCache.Insert(s.adm.Tokens, n, rows, kv)
			s.kv, s.skip = kv, n
			s.enc = s.enc.View(n, s.enc.Rows)
		case s.from >= 0:
			s.kv = seated[s.from].kv
			rep.PrefixShared++
			rep.PrefixSharedTokens += int64(s.skip)
		case s.skip > s.adm.CachedLen:
			rep.PrefixLateHits++
			rep.PrefixLateTokens += int64(s.skip)
		}
	}
}

// encodeAdmissions encodes each seated request — launch item or admission —
// as a pad-free row of its own, filling in layout and enc. One block per
// segment makes each result identical, to the bit, to what the request would
// see inside any batch row or served alone. A seat whose prefix is resolved
// encodes its suffix only; one that encodes a declared prefix lays out prefix
// and suffix as two isolated segments, so the prefix rows can be frozen.
func (e *Engine) encodeAdmissions(seated []seat, ws *tensor.Workspace) {
	fanOut(len(seated), ws, func(i int, ws *tensor.Workspace) {
		s := &seated[i]
		tokens := s.adm.Tokens[s.skip:]
		n, k := len(tokens), 1
		s.segs[0] = model.Segment{Len: n}
		if p := s.adm.PrefixLen - s.skip; p > 0 {
			s.segs = [2]model.Segment{{Len: p}, {Start: p, Len: n - p}}
			k = 2
		}
		s.layout = model.RowLayout{Segments: s.segs[:k], Total: n}
		s.enc = e.encode(tokens, s.layout, nil, ws)
	})
}
