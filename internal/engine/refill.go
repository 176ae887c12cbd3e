// The engine's fused decode loop. RunPreparedRefill decodes a prepared batch
// step by step through one BatchDecodeState and treats the launch as a
// persistent execution context: the moment a segment finishes it is
// delivered through the hook, its KV state removed from the fused decode
// state, and its share of the device reservation shrunk (§4.2.2's early
// memory cleaning, generalized from the post-hoc simulation into the live
// loop). Between steps the hook is consulted for queued requests that fit
// the freed token capacity; admitted requests are encoded, inserted into the
// running state, and decode alongside the survivors. With a hook that never
// admits anything — what RunPrepared passes — the loop is plain
// batch-at-a-time decoding: the removals are the ones a skip-finished gather
// performs implicitly, so outputs are bitwise identical to
// model.GenerateBatchCached over the same rows (the test oracle).
package engine

import (
	"fmt"
	"math"

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
	// is 0 (cold — encode prefix and suffix as two isolated segments, then
	// freeze the prefix) or PrefixLen (hit — encode the suffix only and
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
// context under hook (nil = deliver nothing early, admit nothing). Every
// launch that generates decodes through the one fused KV-cached loop, so
// Results arrive in retirement order. An encode-only launch (MaxNew = 0)
// stops after the encode — no decoder state is built, which keeps the cost
// calibration timing exactly the encoder — and returns one empty Result per
// item in row order.
func (e *Engine) RunPreparedRefill(p *Prepared, hook RefillHook) (*Report, error) {
	rep := &Report{}
	decRows := e.encodeLaunch(p, rep)
	if e.MaxNew > 0 {
		if hook == nil {
			hook = noRefill{}
		}
		if err := e.runFusedRefill(p, decRows, hook, rep); err != nil {
			return nil, err
		}
	} else {
		n := 0
		for _, row := range p.rows {
			n += len(row.Items)
		}
		rep.Results = make([]Result, 0, n)
		for _, row := range p.rows {
			for _, it := range row.Items {
				rep.Results = append(rep.Results, Result{ID: it.ID})
			}
		}
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

// seat is one admission on its way into a running launch: accepted against
// the free capacity and the reservation, then encoded, then inserted.
type seat struct {
	adm    Admission
	layout model.RowLayout // encoder layout: prefix | suffix when cold-declared
	enc    *tensor.Matrix
}

// encodeLaunch encodes the staged rows in parallel and charges rep with the
// work. Declared prefixes are frozen as soon as the encode lands — refill
// launches run long, so making the prefix available early lets admissions
// from the same family hit the cache mid-flight.
func (e *Engine) encodeLaunch(p *Prepared, rep *Report) []model.BatchDecodeRow {
	decRows := e.encodeRows(p)
	for ri := range p.rows {
		e.freezeRowPrefixes(p, ri, decRows[ri].EncOut)
		rep.addEncodeWork(p.encLayouts[ri], p.slots[ri])
	}
	return decRows
}

// runFusedRefill decodes every encoded row's segments together — one GEMM per
// layer per step across all rows — retiring finished segments and seating
// admissions between steps. It fills rep's results, refill summary and the
// admissions' encode-work counters.
func (e *Engine) runFusedRefill(p *Prepared, decRows []model.BatchDecodeRow, hook RefillHook, rep *Report) error {
	ref := &RefillReport{}
	rep.Refill = ref
	if len(p.rows) == 0 {
		return nil
	}
	st := e.Model.NewBatchDecodeStateReserve(decRows, e.MaxNew)
	defer st.Close()

	segs := make([]*liveSeg, 0, st.Segments())
	var liveTokens int64
	for ri, row := range p.rows {
		for i, it := range row.Items {
			segs = append(segs, &liveSeg{
				id: it.ID, cap: p.caps[ri][i], inLen: it.Len, next: vocab.BosID,
			})
			liveTokens += int64(it.Len)
		}
	}
	capacityTokens := int64(p.Batch.TotalTokens())

	freeTokens, freeSlots := 0, 0
	next := make([]int, 0, len(segs))
	var finishedIdx []int
	step := 0
	// One workspace and one seat list serve every admission round of the
	// launch: a saturated launch lives for thousands of them.
	ws := tensor.NewWorkspace()
	defer ws.Close()
	var seated []seat

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
				default:
					if err = e.checkTokens(adm.ID, adm.Tokens); err == nil {
						err = p.growReservation(int64(adm.Resident()) * e.BytesPerToken)
					}
				}
				if err != nil {
					hook.Reject(adm, err)
					continue
				}
				freeTokens -= adm.Resident()
				seated = append(seated, seat{adm: adm})
			}
			// Encode the whole offer side by side — the admission-side mirror
			// of the launch's row encode — then insert in admission order so
			// the state layout stays deterministic.
			e.encodeAdmissions(seated, ws)
			for _, s := range seated {
				adm := s.adm
				rep.addEncodeWork(s.layout, nil)
				var err error
				if adm.CachedLen > 0 {
					if _, kv, ok := e.PrefixCache.Peek(adm.Tokens, adm.CachedLen); !ok {
						err = fmt.Errorf("engine: admission %d's cached prefix is not resident (pin not held?)", adm.ID)
					} else {
						_, err = st.InsertSegmentPrefix(s.enc, kv)
					}
				} else {
					_, err = st.InsertSegment(s.enc)
				}
				if err != nil {
					freeTokens += adm.Resident()
					p.shrinkReservation(int64(adm.Resident()) * e.BytesPerToken)
					hook.Reject(adm, err)
					continue
				}
				if adm.PrefixLen > 0 && adm.CachedLen == 0 {
					e.freezePrefix(adm.Tokens, adm.PrefixLen, s.enc, 0)
				}
				segs = append(segs, &liveSeg{
					id: adm.ID, cap: e.genCap(len(adm.Tokens)), inLen: adm.Resident(), next: vocab.BosID,
				})
				liveTokens += int64(adm.Resident())
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

// encodeRows encodes every staged row, rows side by side, on workspaces of
// its own: prepare-stage staging never aliases compute-stage buffers, so a
// pipelined prepare for batch t+1 cannot stomp batch t's encode. Encoding
// uses the encoder-side layout (which splits declared prefixes into their own
// attention segments); the decode-side layout and any inherited prefixes ride
// along on the BatchDecodeRow.
func (e *Engine) encodeRows(p *Prepared) []model.BatchDecodeRow {
	decRows := make([]model.BatchDecodeRow, len(p.rows))
	ws := tensor.NewWorkspace()
	defer ws.Close()
	fanOut(len(p.rows), ws, func(ri int, ws *tensor.Workspace) {
		decRows[ri] = model.BatchDecodeRow{
			EncOut:   e.encode(p.rowTokens[ri], p.encLayouts[ri], p.slots[ri], ws),
			Layout:   p.layouts[ri],
			Prefixes: p.prefixes[ri],
		}
	})
	return decRows
}

// encodeAdmissions encodes each seated request as a pad-free row of its own
// through the same encode the launch rows took, filling in layout and enc.
// One block per segment makes each result identical, to the bit, to what the
// request would see inside any batch row, so admitted outputs match the
// no-refill run of the same request. A prefix-cache hit encodes the uncached
// suffix only; a cold declared prefix encodes prefix and suffix as two
// isolated segments (so the prefix rows can be frozen for reuse).
func (e *Engine) encodeAdmissions(seated []seat, ws *tensor.Workspace) {
	fanOut(len(seated), ws, func(i int, ws *tensor.Workspace) {
		s := &seated[i]
		tokens := s.adm.Tokens[s.adm.CachedLen:]
		if n := len(tokens); s.adm.PrefixLen > s.adm.CachedLen {
			s.layout = model.ConcatLayout([]int{s.adm.PrefixLen, n - s.adm.PrefixLen}, n)
		} else {
			s.layout = model.SingleSegment(n, n)
		}
		s.enc = e.encode(tokens, s.layout, nil, ws)
	})
}
