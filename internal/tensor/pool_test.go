package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunCoversRange drives a private pool from many goroutines at once
// and checks every row of every job is executed exactly once.
func TestPoolRunCoversRange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := NewPool()
	defer p.Close()
	const goroutines = 8
	const jobs = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < jobs; n++ {
				rows := 1 + (g*jobs+n)%97
				hits := make([]atomic.Int32, rows)
				p.Run(rows, 1, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
				})
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Errorf("goroutine %d job %d: row %d executed %d times", g, n, i, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPoolCloseExitsHelpers proves Close leaves no helper goroutine behind,
// and that a closed pool still completes jobs inline.
func TestPoolCloseExitsHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	p := NewPool()
	var n atomic.Int32
	p.Run(64, 1, func(lo, hi int) { n.Add(int32(hi - lo)) })
	if n.Load() != 64 {
		t.Fatalf("warm run covered %d rows, want 64", n.Load())
	}
	p.Close()
	p.Close() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Close, %d before", got, before)
	}
	n.Store(0)
	p.Run(64, 1, func(lo, hi int) { n.Add(int32(hi - lo)) })
	if n.Load() != 64 {
		t.Fatalf("closed-pool run covered %d rows, want 64", n.Load())
	}
}

// TestPoolWarmRunAllocs checks the job machinery itself recycles: a warm
// parallel dispatch must not allocate per call beyond the caller's closure
// (hoisted here). The fork-join version allocated a WaitGroup header and a
// goroutine per chunk per call.
func TestPoolWarmRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := NewPool()
	defer p.Close()
	var sink atomic.Int64
	fn := func(lo, hi int) { sink.Add(int64(hi - lo)) }
	for i := 0; i < 100; i++ { // warm helpers and the job pool
		p.Run(256, 1, fn)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 1000
	for i := 0; i < runs; i++ {
		p.Run(256, 1, fn)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	// Allow slack for incidental runtime allocations (GC clearing the
	// sync.Pool mid-measurement); the old path allocated ≥ 2 per run.
	if allocs > runs/2 {
		t.Fatalf("%d allocations across %d warm runs", allocs, runs)
	}
	_ = sink.Load()
}

// TestReserveShrinksPlan pins the Reserve contract: reserved cores come out
// of the worker plan, stack, floor at one worker, and release idempotently.
func TestReserveShrinksPlan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if got := planWorkers(1000, 1); got != 4 {
		t.Fatalf("baseline planWorkers = %d, want 4", got)
	}
	rel1 := Reserve(1)
	if got := planWorkers(1000, 1); got != 3 {
		t.Fatalf("after Reserve(1): planWorkers = %d, want 3", got)
	}
	rel2 := Reserve(10) // over-reservation floors at one worker
	if got := planWorkers(1000, 1); got != 1 {
		t.Fatalf("after Reserve(10): planWorkers = %d, want 1", got)
	}
	rel2()
	rel2() // idempotent
	if got := planWorkers(1000, 1); got != 3 {
		t.Fatalf("after releasing Reserve(10): planWorkers = %d, want 3", got)
	}
	rel1()
	if got := planWorkers(1000, 1); got != 4 {
		t.Fatalf("after releasing all: planWorkers = %d, want 4", got)
	}
}

// Close makes every helper exit and waits for them. Jobs submitted after
// Close run entirely on the calling goroutine. Safe to call twice.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	n := p.helpers
	p.helpers = 0
	p.live.Store(0)
	p.mu.Unlock()
	for i := 0; i < n; i++ {
		p.work <- nil
	}
	p.wg.Wait()
}
