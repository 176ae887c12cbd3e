package serve

import (
	"sync"
	"testing"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/model"
	"tcb/internal/rng"
	"tcb/internal/sched"
	"tcb/internal/vocab"
)

const testVocab = 60

func testServer(t testing.TB, scheduler sched.Scheduler) (*Server, *engine.Engine) {
	t.Helper()
	cfg := model.Config{
		VocabSize: testVocab, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 256, Eps: 1e-5,
	}
	e := engine.New(model.New(cfg, 5), 3)
	s, err := New(Config{
		Engine: e, Scheduler: scheduler, Scheme: batch.Concat,
		B: 4, L: 64, Poll: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, e
}

func randTokens(src *rng.Source, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = src.IntRange(vocab.FirstWordID, testVocab-1)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing engine/scheduler must fail")
	}
	cfg := model.TestConfig(testVocab)
	e := engine.New(model.New(cfg, 1), 2)
	if _, err := New(Config{Engine: e, Scheduler: sched.FCFS{}, B: 0, L: 10}); err == nil {
		t.Fatal("B=0 must fail")
	}
}

// TestServerServesConcatOnly: the server lays every launch out as Concat, so
// New refuses every other scheme (the zero value, Naive, included), and a
// Concat server never launches more than B rows however many requests wait.
func TestServerServesConcatOnly(t *testing.T) {
	rows := []struct {
		name   string
		scheme batch.Scheme
		ok     bool
	}{
		{"zero value", 0, false},
		{"naive", batch.Naive, false},
		{"turbo", batch.Turbo, false},
		{"slotted", batch.SlottedConcat, false},
		{"concat", batch.Concat, true},
	}
	for _, row := range rows {
		_, err := New(Config{Engine: &scriptRunner{}, Scheduler: sched.NewDAS(), Scheme: row.scheme, B: 2, L: 64})
		if (err == nil) != row.ok {
			t.Errorf("%s: New err = %v, want accepted=%v", row.name, err, row.ok)
		}
	}

	const B = 2
	runner := &scriptRunner{}
	s, err := New(Config{
		Engine: runner, Scheduler: sched.NewDAS(), Scheme: batch.Concat,
		B: B, L: 64, Poll: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(13)
	var chans []<-chan Response
	for i := 0; i < 12; i++ {
		ch, err := s.Submit(randTokens(src, src.IntRange(2, 6)), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	s.Start()
	defer s.Stop()
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Fatalf("request %d failed: %v", i, resp.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d timed out", i)
		}
	}
	_, batches := runner.snapshot()
	for i, b := range batches {
		if b.Scheme != batch.Concat || len(b.Rows) > B {
			t.Errorf("launch %d: scheme %v with %d rows, want Concat with at most %d", i, b.Scheme, len(b.Rows), B)
		}
	}
}

func TestServeRoundTrip(t *testing.T) {
	s, e := testServer(t, sched.NewDAS())
	s.Start()
	defer s.Stop()

	src := rng.New(11)
	type sub struct {
		tokens []int
		ch     <-chan Response
	}
	var subs []sub
	for i := 0; i < 6; i++ {
		toks := randTokens(src, src.IntRange(2, 10))
		ch, err := s.Submit(toks, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{toks, ch})
	}
	for i, sb := range subs {
		select {
		case resp := <-sb.ch:
			if resp.Err != nil {
				t.Fatalf("request %d failed: %v", i, resp.Err)
			}
			// Server output must equal standalone inference.
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
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d timed out", i)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	s, _ := testServer(t, sched.NewDAS())
	if _, err := s.Submit(nil, time.Second); err == nil {
		t.Fatal("empty request must fail")
	}
	if _, err := s.Submit(make([]int, 1000), time.Second); err == nil {
		t.Fatal("overlong request must fail")
	}
}

func TestDeadlineExpiry(t *testing.T) {
	// Server not started: the queued request must expire once started.
	s, _ := testServer(t, sched.NewDAS())
	ch, err := s.Submit(randTokens(rng.New(13), 5), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the deadline lapse before starting
	s.Start()
	defer s.Stop()
	select {
	case resp := <-ch:
		if resp.Err != ErrDeadlineExceeded {
			t.Fatalf("err = %v, want ErrDeadlineExceeded", resp.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("expired request never resolved")
	}
}

func TestStopFailsQueued(t *testing.T) {
	s, _ := testServer(t, sched.NewDAS())
	// Enqueue without starting, then start+stop quickly: any queued request
	// must resolve with some terminal status, not hang.
	ch, err := s.Submit(randTokens(rng.New(14), 5), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Stop()
	select {
	case resp := <-ch:
		if resp.Err != nil && resp.Err != ErrServerClosed {
			t.Fatalf("unexpected err: %v", resp.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request hung across Stop")
	}
	// Submissions after stop fail fast.
	if _, err := s.Submit(randTokens(rng.New(15), 3), time.Second); err != ErrServerClosed {
		t.Fatalf("submit after stop = %v, want ErrServerClosed", err)
	}
}

func TestQueueCap(t *testing.T) {
	cfg := model.Config{
		VocabSize: testVocab, DModel: 16, NumHeads: 2, DFF: 32,
		EncLayers: 1, DecLayers: 1, MaxLen: 64, Eps: 1e-5,
	}
	e := engine.New(model.New(cfg, 6), 1)
	s, err := New(Config{
		Engine: e, Scheduler: sched.NewDAS(), Scheme: batch.Concat,
		B: 1, L: 32, QueueCap: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(16)
	// Not started: queue only fills.
	if _, err := s.Submit(randTokens(src, 3), time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(randTokens(src, 3), time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(randTokens(src, 3), time.Hour); err != ErrQueueFull {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	if s.QueueLen() != 2 {
		t.Fatalf("queue len = %d", s.QueueLen())
	}
}

func TestDrainServesQueuedThenRejects(t *testing.T) {
	s, _ := testServer(t, sched.NewDAS())
	src := rng.New(60)
	var chans []<-chan Response
	for i := 0; i < 4; i++ {
		ch, err := s.Submit(randTokens(src, 4), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	s.Start()
	done := make(chan struct{})
	go func() {
		s.Drain()
		close(done)
	}()
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Fatalf("queued request %d failed during drain: %v", i, resp.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d hung during drain", i)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned")
	}
	if _, err := s.Submit(randTokens(src, 3), time.Second); err != ErrServerClosed {
		t.Fatalf("submit after drain = %v, want ErrServerClosed", err)
	}
	st := s.Stats()
	if st.Served != 4 || st.Queued != 0 {
		t.Fatalf("stats after drain = %+v", st)
	}
}

// TestDrainIdempotentConcurrent is the regression test for Drain's
// once-gate: many concurrent Drain callers (racing each other and a live
// queue) must all return, the queue must resolve exactly once per request,
// and a trailing Drain after completion must return immediately instead of
// re-running the shutdown sequence.
func TestDrainIdempotentConcurrent(t *testing.T) {
	s, _ := testServer(t, sched.NewDAS())
	src := rng.New(71)
	var chans []<-chan Response
	for i := 0; i < 4; i++ {
		ch, err := s.Submit(randTokens(src, 4), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	s.Start()
	const drainers = 8
	var wg sync.WaitGroup
	for i := 0; i < drainers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Drain()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent Drain callers never returned")
	}
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Fatalf("request %d failed during drain: %v", i, resp.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d unresolved after drain", i)
		}
	}
	// A late caller sees the finished drain immediately.
	start := time.Now()
	s.Drain()
	if e := time.Since(start); e > time.Second {
		t.Fatalf("post-completion Drain took %v, want immediate return", e)
	}
	if st := s.Stats(); st.Served != 4 || st.Queued != 0 {
		t.Fatalf("stats after concurrent drain = %+v", st)
	}
}

// TestDrainConcurrentSharesDeadline pins that a second Drain caller waits on
// the FIRST caller's DrainTimeout deadline: with a wedged engine the two
// callers return together at roughly one timeout, not two.
func TestDrainConcurrentSharesDeadline(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s, err := New(Config{
		Engine:           blockingRunner{block: block},
		Scheduler:        sched.FCFS{},
		Scheme:           batch.Concat,
		B:                1,
		L:                32,
		Poll:             time.Millisecond,
		BreakerThreshold: -1,
		DrainTimeout:     300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.Submit([]int{1, 2, 3}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	time.Sleep(20 * time.Millisecond) // let the batch wedge in the engine
	start := time.Now()
	returned := make(chan time.Duration, 2)
	for i := 0; i < 2; i++ {
		go func() {
			s.Drain()
			returned <- time.Since(start)
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case e := <-returned:
			if e > 2*time.Second {
				t.Fatalf("drain caller %d took %v, want ~ one shared 300ms deadline", i, e)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("drain caller never returned")
		}
	}
	// The queued request (if it never launched) or the wedged one must not
	// be left hanging past the deadline path's failAll.
	select {
	case <-ch:
	case <-time.After(time.Second):
		// In-flight in a wedged engine without a watchdog: allowed to stay
		// unresolved (documented); only queued requests are failed.
	}
}

// blockingRunner wedges every launch until its channel closes — the minimal
// stand-in for an engine stuck in a kernel.
type blockingRunner struct {
	stager
	block chan struct{}
}

func (b blockingRunner) RunPreparedRefill(*engine.Prepared, engine.RefillHook) (*engine.Report, error) {
	<-b.block
	return nil, ErrChaos
}

func TestStatsCounters(t *testing.T) {
	s, _ := testServer(t, sched.NewDAS())
	s.Start()
	defer s.Stop()
	src := rng.New(61)
	ch, err := s.Submit(randTokens(src, 5), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	<-ch
	st := s.Stats()
	if st.Submitted != 1 || st.Served != 1 || st.Batches < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentSubmitStress(t *testing.T) {
	s, _ := testServer(t, sched.NewDAS())
	s.Start()
	defer s.Stop()
	const clients = 16
	const perClient = 4
	errs := make(chan error, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src := rng.New(uint64(c) + 100)
			for i := 0; i < perClient; i++ {
				ch, err := s.Submit(randTokens(src, src.IntRange(2, 10)), 10*time.Second)
				if err != nil {
					errs <- err
					return
				}
				resp := <-ch
				errs <- resp.Err
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("stress request failed: %v", err)
		}
	}
	st := s.Stats()
	if st.Served != clients*perClient {
		t.Fatalf("served = %d, want %d", st.Served, clients*perClient)
	}
}

// TestSubmitWakesIdleLoop pins the wakeup-channel behavior: with a Poll far
// larger than inference time, a submission against an idle server must be
// answered in a fraction of Poll — the loop is woken by the Submit, not by
// the expiry of a fixed sleep.
func TestSubmitWakesIdleLoop(t *testing.T) {
	cfg := model.TestConfig(testVocab)
	e := engine.New(model.New(cfg, 5), 2)
	const poll = 2 * time.Second
	s, err := New(Config{
		Engine: e, Scheduler: sched.NewDAS(), Scheme: batch.Concat,
		B: 4, L: 64, Poll: poll,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()

	// Let the loop reach its idle wait before submitting.
	time.Sleep(20 * time.Millisecond)
	src := rng.New(17)
	start := time.Now()
	ch, err := s.Submit(randTokens(src, 6), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp := <-ch
	elapsed := time.Since(start)
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if elapsed > poll/2 {
		t.Fatalf("idle->busy latency %v: submission waited out Poll=%v instead of waking the loop", elapsed, poll)
	}
}

// TestDrainWakes pins that Drain observes batch completion promptly rather
// than sleeping out Poll between queue checks.
func TestDrainWakes(t *testing.T) {
	cfg := model.TestConfig(testVocab)
	e := engine.New(model.New(cfg, 7), 2)
	const poll = 2 * time.Second
	s, err := New(Config{
		Engine: e, Scheduler: sched.NewDAS(), Scheme: batch.Concat,
		B: 4, L: 64, Poll: poll,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	src := rng.New(19)
	var chans []<-chan Response
	for i := 0; i < 3; i++ {
		ch, err := s.Submit(randTokens(src, 5), 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	start := time.Now()
	s.Drain()
	elapsed := time.Since(start)
	for i, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatalf("request %d failed during drain: %v", i, resp.Err)
		}
	}
	if elapsed > poll {
		t.Fatalf("drain took %v with Poll=%v: drain loop is sleeping instead of waking on progress", elapsed, poll)
	}
}

// gatedRunner runs the real engine once gate closes, reporting each start on
// started: the test decides when the one batch completes.
type gatedRunner struct {
	stager
	e       *engine.Engine
	started chan struct{}
	gate    chan struct{}
}

func (r gatedRunner) RunPreparedRefill(p *engine.Prepared, _ engine.RefillHook) (*engine.Report, error) {
	select {
	case r.started <- struct{}{}:
	default:
	}
	<-r.gate
	return r.e.Run(p.Batch, p.Tokens)
}

// TestDrainNotDelayedByWakeConsumer: Drain waits on a signal of its own, so
// a goroutine competing for the loop's wake channel — as the idle serving
// loop does — cannot take the last batch's completion signal and leave
// Drain sleeping out Poll. The competitor queues on wake before Drain
// starts waiting, so at the parent (one shared channel) it receives that
// signal every time.
func TestDrainNotDelayedByWakeConsumer(t *testing.T) {
	r := gatedRunner{
		e:       engine.New(model.New(model.TestConfig(testVocab), 7), 2),
		started: make(chan struct{}, 1),
		gate:    make(chan struct{}),
	}
	const poll = 3 * time.Second
	s, err := New(Config{
		Engine: r, Scheduler: sched.NewDAS(), Scheme: batch.Concat,
		B: 4, L: 64, Poll: poll,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ch, err := s.Submit(randTokens(rng.New(23), 5), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	<-r.started // the only batch is in flight

	go func() {
		for {
			select {
			case <-s.wake:
			case <-s.done:
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond) // the competitor is parked on wake
	drained := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		s.Drain()
		drained <- time.Since(start)
	}()
	time.Sleep(20 * time.Millisecond) // Drain is parked behind it
	close(r.gate)
	if resp := <-ch; resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if elapsed := <-drained; elapsed > poll/2 {
		t.Fatalf("drain took %v with Poll=%v: the batch's completion signal went to the wake consumer", elapsed, poll)
	}
}

// BreakerState returns the circuit breaker's current state
// (BreakerClosed when no breaker is configured).
func (s *Server) BreakerState() BreakerState {
	if s.breaker == nil {
		return BreakerClosed
	}
	return s.breaker.State()
}

// QueueLen returns the number of requests waiting.
func (s *Server) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}
