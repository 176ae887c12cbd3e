package main

// Tracing is done entirely from the benchmark's side of the interfaces the
// stack already accepts: a sched.Scheduler wrapper, a serve.Runner wrapper
// (with its PreparedRunner and RefillRunner forms) whose RefillHook wrapper
// sees Retire/Refill/Reject. Spans are kept in memory and written out when
// the run ends. Spans inside the program — Server.mu hold time, the
// encode/decode split of one live launch — are a later change.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/sched"
	"tcb/internal/serve"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent names the span that caused this one (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Req     int    `json:"req"`     // request index (sat phase first, then open), -1 = not one request's
	Replica int    `json:"replica"` // -1 = not on a replica
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its child spans (overlapping children counted
// once, children clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, end int64
		end = s.Start
		for _, k := range ivs {
			if k.hi <= end {
				continue
			}
			covered += k.hi - max(k.lo, end)
			end = k.hi
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// schedCall is one Scheduler.Schedule invocation.
type schedCall struct {
	replica     int
	start, end  time.Time
	pool, chose int
}

// reqTrace is what the wrappers learn about one generated request.
type reqTrace struct {
	seated     time.Time // launch or admission that seated it
	retired    time.Time // Retire entered
	retireDone time.Time // Retire returned
	replica    int
	cachedLen  int
	admitted   bool // seated by a mid-flight admission rather than a launch
	launch     *launchTrace
}

// launchTrace is one engine launch as the runner wrapper saw it.
type launchTrace struct {
	replica int
	sched   *schedCall // the Schedule call that produced it, if any
	b       *batch.Batch
	tokens  map[int64][]int // item and admission id → full tokens

	prepStart, prepEnd time.Time
	runStart, runEnd   time.Time

	admitted   int
	admitToks  int
	adms       []engine.Admission // the first maxReplayAdmissions seated mid-flight
	predicted  time.Duration
	rep        *engine.Report
	err        error
	outTokens  int
	reqSteps   int // Σ per-request decode steps
	retiredAll int
}

// tracer collects everything the wrappers observe. One mutex guards it: the
// traced run's cost is measured (bench.trace_overhead_pct), not assumed.
type tracer struct {
	mu    sync.Mutex
	cost  func(*batch.Batch) time.Duration
	admit func(int) time.Duration
	// reqOf maps the address of a request's first token to its index. The
	// stack hands token slices through untouched, so an engine-level item can
	// be tied back to the generated request without any id plumbing.
	reqOf    map[*int]int
	reqs     []reqTrace
	launches []*launchTrace
	byPrep   map[*engine.Prepared]*launchTrace
	pending  map[int]*schedCall // replica → Schedule call awaiting its launch
	scheds   []*schedCall
}

func newTracer(phases ...[]request) *tracer {
	t := &tracer{
		reqOf:   make(map[*int]int),
		byPrep:  make(map[*engine.Prepared]*launchTrace),
		pending: make(map[int]*schedCall),
	}
	for _, reqs := range phases {
		for i := range reqs {
			t.reqOf[&reqs[i].Tokens[0]] = len(t.reqs)
			t.reqs = append(t.reqs, reqTrace{replica: -1})
		}
	}
	return t
}

// lookup returns the request index of a token slice, or -1 (warm-up and
// health-probe traffic is not the benchmark's).
func (t *tracer) lookup(tokens []int) int {
	if len(tokens) == 0 {
		return -1
	}
	if i, ok := t.reqOf[&tokens[0]]; ok {
		return i
	}
	return -1
}

// hooks returns the wrappers for newSUT.
func (t *tracer) hooks() traceHooks {
	return traceHooks{
		Scheduler: func(replica int, s sched.Scheduler) sched.Scheduler {
			return &tracedScheduler{inner: s, t: t, replica: replica}
		},
		Runner: func(replica int, e *engine.Engine) serve.Runner {
			return &tracedRunner{eng: e, t: t, replica: replica}
		},
	}
}

// tracedScheduler times every Schedule call and records its pool size.
type tracedScheduler struct {
	inner   sched.Scheduler
	t       *tracer
	replica int
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Schedule(now float64, pending []*sched.Request, B, L int) sched.Decision {
	start := time.Now()
	dec := s.inner.Schedule(now, pending, B, L)
	end := time.Now()
	call := &schedCall{replica: s.replica, start: start, end: end, pool: len(pending)}
	for _, row := range dec.Rows {
		call.chose += len(row)
	}
	s.t.mu.Lock()
	s.t.scheds = append(s.t.scheds, call)
	if call.chose > 0 {
		s.t.pending[s.replica] = call // the launch Prepare is about to stage
	}
	s.t.mu.Unlock()
	return dec
}

// tracedRunner wraps the engine in all three forms the server probes for.
type tracedRunner struct {
	eng     *engine.Engine
	t       *tracer
	replica int
}

var _ serve.RefillRunner = (*tracedRunner)(nil)

func (r *tracedRunner) Run(b *batch.Batch, tokens map[int64][]int) (*engine.Report, error) {
	p, err := r.Prepare(b, tokens)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	return r.RunPrepared(p)
}

func (r *tracedRunner) Prepare(b *batch.Batch, tokens map[int64][]int) (*engine.Prepared, error) {
	start := time.Now()
	p, err := r.eng.Prepare(b, tokens)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	l := &launchTrace{replica: r.replica, b: b, tokens: make(map[int64][]int, len(tokens)), prepStart: start, prepEnd: end}
	t := r.t
	t.mu.Lock()
	l.sched = t.pending[r.replica]
	delete(t.pending, r.replica)
	if t.cost != nil {
		l.predicted = t.cost(b)
	}
	for _, it := range b.Items() {
		l.tokens[it.ID] = tokens[it.ID]
		if i := t.lookup(tokens[it.ID]); i >= 0 {
			// Seated when staging began: from here the request is the
			// launch's, not the queue's.
			t.reqs[i] = reqTrace{seated: start, replica: r.replica, cachedLen: it.CachedLen, launch: l}
		}
	}
	t.launches = append(t.launches, l)
	t.byPrep[p] = l
	t.mu.Unlock()
	return p, nil
}

func (r *tracedRunner) RunPrepared(p *engine.Prepared) (*engine.Report, error) {
	return r.run(p, func() (*engine.Report, error) { return r.eng.RunPrepared(p) })
}

func (r *tracedRunner) RunPreparedRefill(p *engine.Prepared, hook engine.RefillHook) (*engine.Report, error) {
	r.t.mu.Lock()
	l := r.t.byPrep[p]
	r.t.mu.Unlock()
	if l == nil || hook == nil {
		return r.run(p, func() (*engine.Report, error) { return r.eng.RunPreparedRefill(p, hook) })
	}
	th := &tracedHook{inner: hook, t: r.t, l: l}
	return r.run(p, func() (*engine.Report, error) { return r.eng.RunPreparedRefill(p, th) })
}

func (r *tracedRunner) run(p *engine.Prepared, f func() (*engine.Report, error)) (*engine.Report, error) {
	start := time.Now()
	rep, err := f()
	end := time.Now()
	t := r.t
	t.mu.Lock()
	if l := t.byPrep[p]; l != nil {
		l.runStart, l.runEnd, l.rep, l.err = start, end, rep, err
		delete(t.byPrep, p)
		if rep != nil {
			for _, res := range rep.Results {
				l.outTokens += len(res.Output)
				l.reqSteps += res.Steps
			}
		}
	}
	t.mu.Unlock()
	return rep, err
}

// tracedHook sees every retire, admission and rejection of one launch.
type tracedHook struct {
	inner engine.RefillHook
	t     *tracer
	l     *launchTrace
}

func (h *tracedHook) Retire(res engine.Result) {
	start := time.Now()
	h.inner.Retire(res)
	end := time.Now()
	h.t.mu.Lock()
	h.l.retiredAll++
	if i := h.t.lookup(h.l.tokens[res.ID]); i >= 0 {
		h.t.reqs[i].retired, h.t.reqs[i].retireDone = start, end
	}
	h.t.mu.Unlock()
}

func (h *tracedHook) Refill(free int) []engine.Admission {
	adms := h.inner.Refill(free)
	if len(adms) == 0 {
		return adms
	}
	now := time.Now()
	t := h.t
	t.mu.Lock()
	for _, adm := range adms {
		h.l.tokens[adm.ID] = adm.Tokens
		h.l.admitted++
		if len(h.l.adms) < maxReplayAdmissions {
			h.l.adms = append(h.l.adms, adm)
		}
		h.l.admitToks += adm.Resident()
		if t.admit != nil {
			h.l.predicted += t.admit(adm.Resident())
		}
		if i := t.lookup(adm.Tokens); i >= 0 {
			t.reqs[i] = reqTrace{seated: now, replica: h.l.replica, cachedLen: adm.CachedLen, admitted: true, launch: h.l}
		}
	}
	t.mu.Unlock()
	return adms
}

func (h *tracedHook) Reject(adm engine.Admission, err error) {
	h.inner.Reject(adm, err)
	t := h.t
	t.mu.Lock()
	h.l.admitted--
	h.l.admitToks -= adm.Resident()
	for k, a := range h.l.adms {
		if a.ID == adm.ID {
			h.l.adms = append(h.l.adms[:k], h.l.adms[k+1:]...)
			break
		}
	}
	if i := t.lookup(adm.Tokens); i >= 0 {
		t.reqs[i] = reqTrace{replica: -1}
	}
	t.mu.Unlock()
}

// spanBuilder assigns ids and offsets times from a common epoch.
type spanBuilder struct {
	epoch time.Time
	spans []span
}

func (sb *spanBuilder) add(name string, parent, req, replica int, start, end time.Time) int {
	if start.IsZero() || end.Before(start) {
		return 0
	}
	id := len(sb.spans) + 1
	sb.spans = append(sb.spans, span{
		ID: id, Parent: parent, Name: name, Req: req, Replica: replica,
		Start: start.Sub(sb.epoch).Nanoseconds(), End: end.Sub(sb.epoch).Nanoseconds(),
	})
	return id
}

// buildSpans turns the run's records into the span tree:
//
//	request (sent → served)
//	  cluster.submit · serve.queue (→ seated)
//	  engine.resident (seated → Retire) · serve.deliver (inside Retire)
//	serve.launch (Schedule/Prepare start → run end), per replica
//	  sched.schedule · engine.prepare · engine.run
//	sched.schedule with no launch behind it (nothing chosen) stays a root.
//
// offsets[k] is the tracer index of phases[k]'s first request.
func (t *tracer) buildSpans(sb *spanBuilder, offsets []int, phases ...phaseResult) {
	for k, p := range phases {
		for i, sm := range p.samples {
			idx := offsets[k] + i
			rt := t.reqs[idx]
			if sm.kind == delivered {
				root := sb.add("request", 0, idx, rt.replica, sm.sent, sm.served)
				sb.add("cluster.submit", root, idx, -1, sm.sent, sm.sent.Add(sm.submit))
				sb.add("serve.queue", root, idx, rt.replica, sm.sent.Add(sm.submit), rt.seated)
				sb.add("engine.resident", root, idx, rt.replica, rt.seated, rt.retired)
				sb.add("serve.deliver", root, idx, rt.replica, rt.retired, rt.retireDone)
			}
		}
	}
	launched := make(map[*schedCall]bool)
	for _, l := range t.launches {
		start := l.prepStart
		if l.sched != nil {
			start = l.sched.start
			launched[l.sched] = true
		}
		root := sb.add("serve.launch", 0, -1, l.replica, start, l.runEnd)
		if l.sched != nil {
			sb.add("sched.schedule", root, -1, l.replica, l.sched.start, l.sched.end)
		}
		sb.add("engine.prepare", root, -1, l.replica, l.prepStart, l.prepEnd)
		sb.add("engine.run", root, -1, l.replica, l.runStart, l.runEnd)
	}
	for _, c := range t.scheds {
		if !launched[c] {
			sb.add("sched.schedule", 0, -1, c.replica, c.start, c.end)
		}
	}
}

// layerTime is one span name's totals.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summarise totals span and self time by span name.
func summarise(spans []span) []layerTime {
	self := selfTimes(spans)
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Count++
		lt.TotalMS += float64(s.End-s.Start) / 1e6
		lt.SelfMS += float64(self[s.ID]) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// traceFile is what a traced run writes to out/<workload>.trace.json.
type traceFile struct {
	Header  header      `json:"header"`
	Summary []layerTime `json:"summary"`
	Spans   []span      `json:"spans"`
}

func writeTrace(dir, workload string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), raw, 0o644)
}
