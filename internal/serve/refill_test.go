package serve

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/model"
	"tcb/internal/rng"
	"tcb/internal/sched"
)

// refillServer builds a server over an engine with length-proportional
// output caps so segments finish at staggered steps.
func refillServer(t *testing.T, refill bool, b int, extra Config) (*Server, *engine.Engine) {
	t.Helper()
	cfg := model.Config{
		VocabSize: testVocab, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 256, Eps: 1e-5,
	}
	e := engine.New(model.New(cfg, 5), 8)
	e.OutputCap = func(inputLen int) int { return inputLen }
	c := extra
	c.Scheduler = sched.NewDAS()
	c.Scheme = batch.Concat
	c.B, c.L = b, 64
	c.Poll = 200 * time.Microsecond
	c.Refill = refill
	if c.Engine == nil {
		c.Engine = e
	}
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return s, e
}

// Serial equivalence: with nothing queued behind the launch, a
// refill-enabled server must produce exactly the outputs of a no-refill one
// — zero admissions, identical tokens. The empty-queue refill loop performs
// the same removals the fused path's skip-finished gather performs
// implicitly.
func TestRefillEmptyQueueMatchesNoRefill(t *testing.T) {
	run := func(refill bool) ([][]int, Stats) {
		s, _ := refillServer(t, refill, 4, Config{})
		src := rng.New(90)
		var chans []<-chan Response
		for i := 0; i < 4; i++ {
			ch, err := s.Submit(randTokens(src, 2+2*i), 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
		s.Start()
		s.Drain()
		outs := make([][]int, len(chans))
		for i, ch := range chans {
			resp := <-ch
			if resp.Err != nil {
				t.Fatalf("request %d: %v", i, resp.Err)
			}
			outs[i] = resp.Output
		}
		return outs, s.Stats()
	}
	base, baseStats := run(false)
	got, st := run(true)
	for i := range base {
		if len(base[i]) != len(got[i]) {
			t.Fatalf("request %d: no-refill %v vs refill %v", i, base[i], got[i])
		}
		for j := range base[i] {
			if base[i][j] != got[i][j] {
				t.Fatalf("request %d token %d differs", i, j)
			}
		}
	}
	if st.RefillsAdmitted != 0 {
		t.Fatalf("admitted %d with an empty queue", st.RefillsAdmitted)
	}
	if !st.Refilling || baseStats.Refilling {
		t.Fatalf("Refilling flags wrong: refill=%v base=%v", st.Refilling, baseStats.Refilling)
	}
}

// A backlog behind a small batch must flow into freed slots mid-flight:
// admissions happen, early retires happen, and every request still gets the
// output it would produce standalone.
func TestRefillBacklogAdmitsAndMatchesSingles(t *testing.T) {
	s, e := refillServer(t, true, 1, Config{QueueCap: 64})
	src := rng.New(91)
	type sub struct {
		tokens []int
		ch     <-chan Response
	}
	var subs []sub
	// Enough work to outlive the first launch several times over (the row
	// holds 64 tokens), so the queue still has candidates when slots free.
	for i := 0; i < 48; i++ {
		n := 2
		if i%4 == 0 {
			n = 8 // long tail pins the batch open; shorts refill behind it
		}
		toks := randTokens(src, n)
		ch, err := s.Submit(toks, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{toks, ch})
	}
	s.Start()
	s.Drain()
	for i, sb := range subs {
		resp := <-sb.ch
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		solo, err := e.RunSingle(1000+int64(i), sb.tokens)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Output) != len(solo.Output) {
			t.Fatalf("request %d: served %v vs solo %v", i, resp.Output, solo.Output)
		}
		for j := range resp.Output {
			if resp.Output[j] != solo.Output[j] {
				t.Fatalf("request %d token %d differs", i, j)
			}
		}
	}
	st := s.Stats()
	if st.RefillsAdmitted == 0 {
		t.Fatal("backlog behind a B=1 server must refill mid-flight")
	}
	if st.SegmentsRetiredEarly == 0 {
		t.Fatal("staggered caps must retire segments early")
	}
	if st.BatchOccupancyPct <= 0 || st.BatchOccupancyPct > 100 {
		t.Fatalf("occupancy %.1f%% out of range", st.BatchOccupancyPct)
	}
	if st.Served != int64(len(subs)) {
		t.Fatalf("served %d of %d", st.Served, len(subs))
	}
	// Launch-seated or admitted, every request was encoded once, at its own
	// length and against itself only: no padding row, no off-request score.
	var toks, scores int64
	for _, sb := range subs {
		toks += int64(len(sb.tokens))
		scores += int64(len(sb.tokens) * len(sb.tokens))
	}
	if st.EncodedTokens != toks || st.EncodedScores != scores {
		t.Fatalf("encoded %d tokens / %d scores, want %d / %d", st.EncodedTokens, st.EncodedScores, toks, scores)
	}
}

// Seeded chaos with refill on: every request must resolve exactly once —
// an early retire and a later retry must never both answer the same
// capacity-1 response channel (a double send would wedge the serve loop and
// hang Drain). Runs under -race in CI.
func TestRefillChaosDeliversExactlyOnce(t *testing.T) {
	cfg := model.Config{
		VocabSize: testVocab, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 256, Eps: 1e-5,
	}
	e := engine.New(model.New(cfg, 5), 8)
	e.OutputCap = func(inputLen int) int { return inputLen }
	wrapped := NewChaosRunner(e, ChaosConfig{
		ErrRate: 0.2, PanicRate: 0.05, LoseRate: 0.1, Seed: 9,
	})
	srv, err := New(Config{
		Engine: wrapped, Scheduler: sched.NewDAS(), Scheme: batch.Concat,
		B: 2, L: 64, Poll: 200 * time.Microsecond,
		QueueCap:         64,
		Retry:            RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond},
		BreakerThreshold: -1,
		Refill:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(92)
	var chans []<-chan Response
	for i := 0; i < 24; i++ {
		ch, err := srv.Submit(randTokens(src, src.IntRange(2, 8)), 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	srv.Start()
	srv.Drain()
	ok, failed := 0, 0
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				failed++
			} else {
				ok++
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("request %d never resolved", i)
		}
	}
	if ok+failed != len(chans) {
		t.Fatalf("resolved %d of %d", ok+failed, len(chans))
	}
	if ok == 0 {
		t.Fatal("chaos run served nothing")
	}
	st := srv.Stats()
	if got := st.Served + st.Failed + st.Missed; got != int64(len(chans)) {
		t.Fatalf("accounting: served+failed+missed = %d, want %d (%+v)", got, len(chans), st)
	}
}

// Satellite regression: a request bounced back to the queue — by a refill
// Reject or a failed batch — keeps its original arrival time and attempt
// counters, so DAS utility ordering and retry caps survive the round trip
// when it is later admitted again via refill.
func TestRefillRequeuePreservesArrivalAndAttempts(t *testing.T) {
	s, _ := refillServer(t, true, 2, Config{})
	ch, err := s.Submit([]int{5, 6, 7}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	_ = ch
	s.mu.Lock()
	if len(s.queue) != 1 {
		s.mu.Unlock()
		t.Fatal("expected one queued request")
	}
	var p *pending
	for _, q := range s.queue {
		p = q
	}
	p.attempts = 1 // simulate one prior failed batch
	arrival := p.req.Arrival
	s.mu.Unlock()

	hook := newRefillHook(s, nil, true)
	adms := hook.Refill(10)
	if len(adms) != 1 || adms[0].ID != p.req.ID {
		t.Fatalf("Refill = %v, want the queued request", adms)
	}
	if s.QueueLen() != 0 {
		t.Fatal("admission must leave the queue")
	}

	// Reject: back in the queue, parked for a Poll, nothing charged.
	hook.Reject(adms[0], fmt.Errorf("no room"))
	s.mu.Lock()
	q := s.queue[p.req.ID]
	s.mu.Unlock()
	if q != p {
		t.Fatal("Reject must requeue the same pending entry")
	}
	if p.req.Arrival != arrival {
		t.Fatalf("arrival changed: %v -> %v", arrival, p.req.Arrival)
	}
	if p.attempts != 1 {
		t.Fatalf("Reject charged an attempt: %d", p.attempts)
	}
	if p.notBefore <= 0 {
		t.Fatal("Reject must park the request")
	}

	// A failed batch charges exactly one attempt and still keeps arrival.
	s.mu.Lock()
	s.dispatch(p)
	s.failAttempt(p, fmt.Errorf("engine down"), s.clock(), time.Now())
	s.mu.Unlock()
	if p.attempts != 2 {
		t.Fatalf("batch failure must charge one attempt, got %d", p.attempts)
	}
	if p.req.Arrival != arrival {
		t.Fatal("batch failure changed the arrival time")
	}

	// Later re-admission via refill sees the same identity: clear the
	// backoff and pull it again.
	s.mu.Lock()
	p.notBefore = 0
	s.mu.Unlock()
	hook2 := newRefillHook(s, nil, true)
	adms = hook2.Refill(10)
	if len(adms) != 1 || adms[0].ID != p.req.ID {
		t.Fatalf("re-admission failed: %v", adms)
	}
	if p.req.Arrival != arrival || p.attempts != 2 {
		t.Fatalf("re-admitted request lost state: arrival %v attempts %d", p.req.Arrival, p.attempts)
	}
}

// A closed hook must refuse everything: deliveries, admissions, and a raced
// Refill must put its draw back in the queue.
func TestRefillHookClosedIsInert(t *testing.T) {
	s, _ := refillServer(t, true, 2, Config{})
	if _, err := s.Submit([]int{5, 6}, time.Hour); err != nil {
		t.Fatal(err)
	}
	hook := newRefillHook(s, nil, true)
	hook.close()
	if adms := hook.Refill(10); adms != nil {
		t.Fatalf("closed hook admitted %v", adms)
	}
	if s.QueueLen() != 1 {
		t.Fatal("closed hook must leave the queue untouched")
	}
	// Retire on a closed hook is a no-op (no delivery, no counter).
	hook.Retire(engine.Result{ID: 1, Output: []int{9}})
	if st := s.Stats(); st.Served != 0 {
		t.Fatalf("closed hook delivered: %+v", st)
	}
}

// lateRejectRunner is a real engine whose first launch acts out the
// watchdog race: it draws admissions from the hook, then sits (as if seating
// them) until the test releases it — by which time the watchdog has fired
// and the server has settled the launch — and only then rejects them.
type lateRejectRunner struct {
	*engine.Engine
	started  atomic.Bool
	release  chan struct{}
	rejected chan int
}

func (r *lateRejectRunner) RunPreparedRefill(p *engine.Prepared, hook engine.RefillHook) (*engine.Report, error) {
	if r.started.Swap(true) {
		return r.Engine.RunPreparedRefill(p, hook)
	}
	adms := hook.Refill(1 << 20)
	<-r.release
	for _, adm := range adms {
		hook.Reject(adm, errors.New("engine: batch reservation already released"))
	}
	r.rejected <- len(adms)
	return nil, errors.New("abandoned run")
}

// Regression: a Reject arriving after the watchdog closed the hook must not
// put an already-settled request back in the queue. Before the lifecycle,
// the straggler requeued requests completeBatch had just failed; they ran
// again and answered their capacity-1 channels a second time under s.mu.
func TestRefillRejectAfterCloseIsInert(t *testing.T) {
	cfg := model.Config{
		VocabSize: testVocab, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 256, Eps: 1e-5,
	}
	e := engine.New(model.New(cfg, 5), 4)
	runner := &lateRejectRunner{Engine: e, release: make(chan struct{}), rejected: make(chan int, 1)}
	s, err := New(Config{
		Engine: runner, Scheduler: sched.FCFS{}, Scheme: batch.Concat,
		B: 1, L: 64, Poll: 200 * time.Microsecond, Refill: true,
		PredictBatch:     func(*batch.Batch) time.Duration { return time.Millisecond },
		MinBatchTimeout:  20 * time.Millisecond,
		Retry:            RetryPolicy{MaxAttempts: 1}, // the timed-out launch fails its members outright
		BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(93)
	var chans []<-chan Response
	for i := 0; i < 5; i++ {
		// 40 of 64 tokens: one per launch, so four wait for Refill to draw.
		ch, err := s.Submit(randTokens(src, 40), time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	s.Start()
	st := waitStats(t, s, func(st Stats) bool { return st.Failed == 5 })
	if st.Timeouts != 1 || st.Queued != 0 {
		t.Fatalf("want one watchdog kill settling all five requests: %+v", st)
	}
	close(runner.release)
	if n := <-runner.rejected; n != 4 {
		t.Fatalf("first launch drew %d admissions, want 4", n)
	}
	if n := s.QueueLen(); n != 0 {
		t.Fatalf("late Reject requeued %d settled requests", n)
	}
	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain hung: a settled request was answered twice")
	}
	for i, ch := range chans {
		if resp := <-ch; !errors.Is(resp.Err, ErrBatchTimeout) {
			t.Fatalf("request %d: %v, want the watchdog's verdict", i, resp.Err)
		}
		select {
		case resp := <-ch:
			t.Fatalf("request %d answered twice: %+v", i, resp)
		default:
		}
	}
	st = s.Stats()
	if st.Submitted != st.Served+st.Missed+st.Failed+st.Shed || st.Batches != 1 {
		t.Fatalf("accounting after the late Reject: %+v", st)
	}
}

// Config.Refill over a bare engine (engine.New, no field set) refills: every
// launch decodes through the fused loop, so segments retire early and
// occupancy is measured, and nothing fails, retries or trips the breaker.
func TestRefillOverPlainEngineServes(t *testing.T) {
	cfg := model.Config{
		VocabSize: testVocab, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 256, Eps: 1e-5,
	}
	e := engine.New(model.New(cfg, 5), 3)
	s, err := New(Config{
		Engine: e, Scheduler: sched.NewDAS(), Scheme: batch.Concat,
		B: 4, L: 64, Poll: 200 * time.Microsecond, Refill: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(94)
	var reqs [][]int
	var chans []<-chan Response
	for i := 0; i < 12; i++ {
		toks := randTokens(src, src.IntRange(2, 20))
		ch, err := s.Submit(toks, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		reqs, chans = append(reqs, toks), append(chans, ch)
	}
	s.Start()
	s.Drain()
	for i, ch := range chans {
		resp := <-ch
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		solo, err := e.RunSingle(int64(1000+i), reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(resp.Output) != fmt.Sprint(solo.Output) {
			t.Fatalf("request %d: served %v vs solo %v", i, resp.Output, solo.Output)
		}
	}
	st := s.Stats()
	if st.Retried != 0 || st.BreakerTrips != 0 || st.Served != 12 {
		t.Fatalf("plain engine under Refill must serve cleanly: %+v", st)
	}
	if !st.Refilling || st.SegmentsRetiredEarly == 0 || st.BatchOccupancyPct <= 0 {
		t.Fatalf("bare engine must refill: refilling=%v retired-early=%d occupancy=%.1f%%",
			st.Refilling, st.SegmentsRetiredEarly, st.BatchOccupancyPct)
	}
}
