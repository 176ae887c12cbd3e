package serve

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/rng"
	"tcb/internal/sched"
)

func TestParseChaos(t *testing.T) {
	cfg, err := ParseChaos("err=0.2,panic=0.05,slow=0.1:50ms,lose=0.02,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := ChaosConfig{
		ErrRate: 0.2, PanicRate: 0.05, SlowRate: 0.1, LoseRate: 0.02,
		SlowDelay: 50 * time.Millisecond, Seed: 7,
	}
	if cfg != want {
		t.Fatalf("parsed %+v, want %+v", cfg, want)
	}
	cfg, err = ParseChaos("killafter=20,wedgeafter=30")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.KillAfter != 20 || cfg.WedgeAfter != 30 || !cfg.Enabled() {
		t.Fatalf("parsed %+v, want killafter=20 wedgeafter=30 enabled", cfg)
	}
	if empty, err := ParseChaos("  "); err != nil || empty.Enabled() {
		t.Fatalf("empty spec: cfg=%+v err=%v", empty, err)
	}
	for _, bad := range []string{
		"err",         // no value
		"err=1.5",     // rate out of range
		"panic=-0.1",  // negative rate
		"slow=0.1:0s", // non-positive delay
		"slow=0.1:x",  // unparseable delay
		"seed=abc",    // bad seed
		"flood=0.5",   // unknown mode
		"killafter=0", // non-positive count
		"wedgeafter=x",
	} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("spec %q must fail to parse", bad)
		}
	}
}

// chaosTrace drives a ChaosRunner n times and records the observable fault
// sequence.
func chaosTrace(cfg ChaosConfig, n int) []string {
	var trace []string
	c := NewChaosRunner(&scriptRunner{}, cfg)
	b := &batch.Batch{Scheme: batch.Concat, Rows: []batch.Row{
		{Items: []batch.Item{{ID: 1, Len: 2}, {ID: 2, Len: 3}}, PadTo: 8},
	}}
	for i := 0; i < n; i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					trace = append(trace, "panic")
				}
			}()
			rep, err := c.RunPreparedRefill(&engine.Prepared{Batch: b}, nil)
			switch {
			case err != nil:
				trace = append(trace, "err")
			default:
				trace = append(trace, fmt.Sprintf("ok:%d", len(rep.Results)))
			}
		}()
	}
	return trace
}

// TestChaosDeterminism pins the injector's contract: the same seed yields
// the same fault schedule, call for call.
func TestChaosDeterminism(t *testing.T) {
	cfg := ChaosConfig{
		ErrRate: 0.3, PanicRate: 0.2, LoseRate: 0.3,
		SlowRate: 0.1, SlowDelay: time.Microsecond, Seed: 42,
	}
	a := chaosTrace(cfg, 60)
	b := chaosTrace(cfg, 60)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	modes := map[string]bool{}
	for _, ev := range a {
		modes[ev] = true
	}
	for _, want := range []string{"err", "panic", "ok:1", "ok:2"} {
		if !modes[want] {
			t.Fatalf("60 draws at these rates never produced %q: %v", want, a)
		}
	}
}

// TestChaosKillAfter pins the replica-death trigger: the first N calls run
// clean (no random modes armed), every later call fails with ErrChaosKilled,
// and the count-based trigger reports via Counts.
func TestChaosKillAfter(t *testing.T) {
	c := NewChaosRunner(&scriptRunner{}, ChaosConfig{KillAfter: 3})
	b := &batch.Batch{Scheme: batch.Concat, Rows: []batch.Row{
		{Items: []batch.Item{{ID: 1, Len: 2}}, PadTo: 8},
	}}
	for i := 0; i < 3; i++ {
		if _, err := c.RunPreparedRefill(&engine.Prepared{Batch: b}, nil); err != nil {
			t.Fatalf("call %d before the trigger failed: %v", i+1, err)
		}
	}
	for i := 0; i < 4; i++ {
		_, err := c.RunPreparedRefill(&engine.Prepared{Batch: b}, nil)
		if !errors.Is(err, ErrChaosKilled) {
			t.Fatalf("call after kill trigger: err = %v, want ErrChaosKilled", err)
		}
	}
	if got := c.Counts().Kills; got != 4 {
		t.Fatalf("kills = %d, want 4", got)
	}
}

// TestChaosWedgeAfterClose pins the hung-replica trigger: calls past the
// threshold block until Close releases them with an ErrChaos-wrapped error —
// the teardown path a cluster uses to unwedge abandoned engine goroutines.
func TestChaosWedgeAfterClose(t *testing.T) {
	c := NewChaosRunner(&scriptRunner{}, ChaosConfig{WedgeAfter: 1})
	b := &batch.Batch{Scheme: batch.Concat, Rows: []batch.Row{
		{Items: []batch.Item{{ID: 1, Len: 2}}, PadTo: 8},
	}}
	p := &engine.Prepared{Batch: b}
	if _, err := c.RunPreparedRefill(p, nil); err != nil {
		t.Fatalf("call before the trigger failed: %v", err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.RunPreparedRefill(p, nil)
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("wedged call returned before Close: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	c.Close()
	c.Close() // idempotent
	select {
	case err := <-errc:
		if !errors.Is(err, ErrChaos) {
			t.Fatalf("released wedge err = %v, want ErrChaos", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not release the wedged call")
	}
	if got := c.Counts().Wedges; got != 1 {
		t.Fatalf("wedges = %d, want 1", got)
	}
}

// TestChaosLostResultRetried pins the lost-result path end to end: a report
// missing a request requeues just that request; when every attempt loses
// it, the typed "lost by engine" error surfaces instead of a hang.
func TestChaosLostResultRetried(t *testing.T) {
	chaos := NewChaosRunner(&scriptRunner{}, ChaosConfig{LoseRate: 1, Seed: 1})
	srv, err := New(Config{
		Engine:    chaos,
		Scheduler: sched.NewDAS(),
		Scheme:    batch.Concat,
		B:         1, L: 64,
		Poll:  200 * time.Microsecond,
		Retry: RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	ch, err := srv.Submit(randTokens(rng.New(81), 4), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp := <-ch
	if resp.Err == nil || !strings.Contains(resp.Err.Error(), "lost by engine") {
		t.Fatalf("err = %v, want lost-by-engine after exhausted retries", resp.Err)
	}
	st := srv.Stats()
	if st.Retried != 2 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want retried=2 failed=1", st)
	}
	if got := chaos.Counts().Lost; got != 3 {
		t.Fatalf("chaos lost count = %d, want 3", got)
	}
}

// TestChaosPanicsSurviveServer pins that injected panics never kill the
// process: they surface as counted errors and the server keeps serving.
func TestChaosPanicsSurviveServer(t *testing.T) {
	chaos := NewChaosRunner(&scriptRunner{}, ChaosConfig{PanicRate: 1, Seed: 2})
	srv, err := New(Config{
		Engine:    chaos,
		Scheduler: sched.NewDAS(),
		Scheme:    batch.Concat,
		B:         2, L: 64,
		Poll:             200 * time.Microsecond,
		Retry:            RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond},
		BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	ch, err := srv.Submit(randTokens(rng.New(82), 4), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp := <-ch
	var pe *PanicError
	if !errors.As(resp.Err, &pe) {
		t.Fatalf("err = %v, want *PanicError after exhausted retries", resp.Err)
	}
	st := srv.Stats()
	if st.Panics != 2 {
		t.Fatalf("panics = %d, want 2 (one per attempt)", st.Panics)
	}
}
