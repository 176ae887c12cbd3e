package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the persistent worker pool behind every row-sharded kernel
// (matmul, attend, blocked, gather, ops). The previous parallelRows forked
// a fresh goroutine set plus a WaitGroup per kernel call; at serving rates
// that is tens of thousands of short-lived goroutines per second, all paying
// scheduler wakeups on the hot path. The pool keeps helpers alive across
// calls: a submitter publishes a chunked job as tickets on a buffered
// channel, helpers spin briefly between jobs before parking on the channel,
// and job records recycle through a sync.Pool, so a warm kernel dispatch
// spawns no goroutine and allocates nothing beyond the caller's closure.
//
// Reserve withholds logical cores from the chunk plan; the serve pipeline
// uses it so its scheduling/cleanup stages keep a core while compute runs.

const (
	// poolSpinRounds is how many scheduler yields a helper burns looking
	// for the next ticket before parking on a blocking receive. Spinning
	// keeps back-to-back kernel launches (a layer's GEMM chain) from
	// paying a futex wake per call.
	poolSpinRounds = 64
	// poolTicketBuf bounds the ticket channel. Submitters never block on
	// it: when the buffer is full they keep the unsent chunks themselves.
	poolTicketBuf = 128
	// poolMaxHelpers caps spawned helpers regardless of GOMAXPROCS.
	poolMaxHelpers = 256
)

// poolJob is one parallel row-range invocation in flight. Chunk c covers
// [c·base + min(c,rem), …) with the first rem chunks one row bigger — the
// exact chunk geometry of the old fork-join version (chunk sizes differ by
// at most one, earlier chunks larger).
type poolJob struct {
	fn        func(lo, hi int)
	chunks    int
	base, rem int
	// cursor hands out unclaimed chunk indices; remaining counts chunks
	// not yet completed; participants counts goroutines (submitter +
	// outstanding tickets) still holding the record.
	cursor       atomic.Int32
	remaining    atomic.Int32
	participants atomic.Int32
	// done carries the single completion signal from whichever goroutine
	// finishes the last chunk to a submitter that ran out of chunks first.
	done chan struct{}
}

// claim executes unclaimed chunks until none remain, reporting whether this
// goroutine completed the job's final chunk.
func (j *poolJob) claim() bool {
	final := false
	for {
		c := int(j.cursor.Add(1)) - 1
		if c >= j.chunks {
			return final
		}
		lo := c*j.base + min(c, j.rem)
		hi := lo + j.base
		if c < j.rem {
			hi++
		}
		j.fn(lo, hi)
		if j.remaining.Add(-1) == 0 {
			final = true
		}
	}
}

// release drops one participant reference and recycles the record once the
// last reference (submitter or stale ticket) is gone — never earlier, so a
// helper draining an already-finished ticket cannot race a reused job.
func (j *poolJob) release(p *Pool) {
	if j.participants.Add(-1) == 0 {
		j.fn = nil // do not retain the caller's closure in the pool
		p.jobs.Put(j)
	}
}

// Pool is a persistent set of parked worker goroutines executing chunked
// row-range jobs. Helpers spawn on demand up to the current worker plan and
// stay parked between jobs. Pool is safe for concurrent use. Closing is
// optional — the package default pool lives for the process — but Close
// must only be called once submitted work has returned.
type Pool struct {
	work chan *poolJob
	jobs sync.Pool

	mu      sync.Mutex
	helpers int
	closed  bool
	wg      sync.WaitGroup
	live    atomic.Int32 // == helpers, readable without mu
}

// NewPool returns an empty pool; helpers spawn lazily on first use.
func NewPool() *Pool {
	p := &Pool{work: make(chan *poolJob, poolTicketBuf)}
	p.jobs.New = func() any { return &poolJob{done: make(chan struct{}, 1)} }
	return p
}

// Run executes fn over [0, rows) split into planWorkers(rows,
// minRowsPerWorker) chunks, the calling goroutine working down the chunk
// list alongside up to chunks−1 pool helpers. It returns when every chunk
// has completed. Single-chunk plans run inline with no synchronization.
func (p *Pool) Run(rows, minRowsPerWorker int, fn func(lo, hi int)) {
	w := planWorkers(rows, minRowsPerWorker)
	if w <= 1 {
		fn(0, rows) // empty ranges included: callers may rely on one call
		return
	}
	p.ensure(w - 1)
	if p.live.Load() == 0 {
		// Closed pool (or spawn refused): degrade to inline execution.
		fn(0, rows)
		return
	}
	j := p.jobs.Get().(*poolJob)
	j.fn = fn
	j.chunks = w
	j.base, j.rem = rows/w, rows%w
	j.cursor.Store(0)
	j.remaining.Store(int32(w))
	// Count the submitter plus every intended ticket before publishing:
	// the count must never touch zero while the job is live.
	j.participants.Store(int32(w))
	sent := 0
send:
	for i := 0; i < w-1; i++ {
		select {
		case p.work <- j:
			sent++
		default:
			break send // helpers saturated; keep the rest of the chunks
		}
	}
	if unsent := (w - 1) - sent; unsent > 0 {
		j.participants.Add(int32(-unsent))
	}
	if !j.claim() {
		<-j.done // a helper still owns the final chunk
	}
	j.release(p)
}

// ensure spawns helpers until at least want are live (capped at
// poolMaxHelpers); the count only grows, tracking GOMAXPROCS increases.
func (p *Pool) ensure(want int) {
	if want > poolMaxHelpers {
		want = poolMaxHelpers
	}
	if int(p.live.Load()) >= want {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	for p.helpers < want {
		p.helpers++
		p.live.Store(int32(p.helpers))
		p.wg.Add(1)
		go p.helper()
	}
}

// helper is one pool worker: claim chunks from the next ticket, signal the
// submitter when it finished a job's last chunk, park again. A nil ticket
// is poison (Close).
func (p *Pool) helper() {
	defer p.wg.Done()
	for {
		j, ok := p.next()
		if !ok {
			return
		}
		if j.claim() {
			j.done <- struct{}{}
		}
		j.release(p)
	}
}

// next spins briefly for a ticket, then parks on the channel.
func (p *Pool) next() (*poolJob, bool) {
	for i := 0; i < poolSpinRounds; i++ {
		select {
		case j := <-p.work:
			return j, j != nil
		default:
		}
		runtime.Gosched()
	}
	j := <-p.work
	return j, j != nil
}

// defaultPool serves every package-level kernel dispatch for the life of
// the process; its helpers park between batches rather than exiting.
var defaultPool = NewPool()

// DefaultPool returns the pool shared by all package-level kernels; the
// engine owns its lifetime by reference (it is never closed in-process).
func DefaultPool() *Pool { return defaultPool }

// reservedCores is how many logical cores the chunk plan leaves free for
// non-compute work (the serve pipeline's scheduling/cleanup stages).
var reservedCores atomic.Int32

// Reserve withholds k logical cores from every subsequent kernel worker
// plan and returns an idempotent release. Reservations stack; the plan
// never drops below one worker, so compute always makes progress.
func Reserve(k int) (release func()) {
	if k < 0 {
		k = 0
	}
	kk := int32(k)
	reservedCores.Add(kk)
	var once sync.Once
	return func() { once.Do(func() { reservedCores.Add(-kk) }) }
}

// maxWorkers bounds the parallel fan-out of row-sharded kernels: the live
// GOMAXPROCS minus reserved cores, floored at one.
func maxWorkers() int {
	n := runtime.GOMAXPROCS(0) - int(reservedCores.Load())
	if n < 1 {
		n = 1
	}
	return n
}

// planWorkers returns the number of chunks parallelRows will use for a job
// of rows rows: never more than maxWorkers, and never so many that a chunk
// would own fewer than minRowsPerWorker rows. A result of 1 means the job
// runs inline on the calling goroutine, with no synchronization and no
// closure allocation — kernels consult it to keep small jobs allocation-free.
func planWorkers(rows, minRowsPerWorker int) int {
	if minRowsPerWorker < 1 {
		minRowsPerWorker = 1
	}
	w := maxWorkers()
	if byRows := rows / minRowsPerWorker; byRows < w {
		w = byRows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelRows runs fn over row ranges [lo, hi) sharded across the default
// pool. Small jobs run inline. The row range is split into exactly
// planWorkers(rows, minRowsPerWorker) chunks whose sizes differ by at most
// one, so every chunk holds at least minRowsPerWorker rows and no more than
// chunks−1 pool helpers join the caller.
func parallelRows(rows int, minRowsPerWorker int, fn func(lo, hi int)) {
	defaultPool.Run(rows, minRowsPerWorker, fn)
}
