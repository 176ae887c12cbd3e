package main

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tcb/internal/serve"
)

// outcomeKind is a request's terminal outcome as the benchmark judges it.
type outcomeKind int

const (
	delivered outcomeKind = iota // a result came back (on time or late)
	expired                      // the server's deadline sweep dropped it
	shed                         // shed under degraded service
	refused                      // Submit refused it (queue full, no replica)
	failed                       // no response, an undocumented error, or a wrong output
)

// sample is what the load generator records for one request. Instants are
// wall time; lag and latency are work time (see clock.go).
type sample struct {
	kind    outcomeKind
	onTime  bool
	lag     time.Duration // actual send − due time
	submit  time.Duration // wall time spent inside Submit
	sent    time.Time     // actual send
	latency time.Duration // due time → Response.Served; delivered only
	served  time.Time
	output  []int
	err     error
}

// phaseResult is one phase's raw record.
type phaseResult struct {
	clk     *workClock
	reqs    []request
	samples []sample
	chans   []<-chan serve.Response // nil where Submit refused
	start   time.Time               // wall time the phase began
	startV  float64                 // work-clock reading then: request i is due at startV + Due
	sendEnd time.Time               // wall time the last request was sent
	end     time.Time               // last delivery
}

func newPhase(clk *workClock, reqs []request) *phaseResult {
	p := &phaseResult{clk: clk, reqs: reqs, samples: make([]sample, len(reqs)), chans: make([]<-chan serve.Response, len(reqs))}
	p.start = time.Now()
	p.startV = clk.At(p.start)
	return p
}

// dueV is request i's due time on the work clock.
func (p *phaseResult) dueV(i int) float64 { return p.startV + p.reqs[i].Due.Seconds() }

// sleepUntil blocks until the work clock reads v: sleep to within a
// millisecond (re-reading the speed at least every 10 ms), then yield-spin.
// Pacing by absolute due time means a late send never pushes later sends
// back, and the lag it causes is measured rather than hidden.
func (c *workClock) sleepUntil(v float64) {
	for {
		now, speed := c.Now()
		d := secs((v - now) / speed)
		switch {
		case d <= 0:
			return
		case d > time.Millisecond:
			time.Sleep(min(d-time.Millisecond, 10*time.Millisecond))
		default:
			runtime.Gosched()
		}
	}
}

// runPhase paces reqs into the stack by their due times and collects every
// response. onSend, when non-nil, runs just before each Submit (the traced
// run uses it); it is nil on untraced runs.
//
// One goroutine paces; responses land in their own capacity-1 channels, so
// nothing the collector does can delay a send. They are read after the last
// send: latency is taken from Response.Served, which the server stamps at
// delivery, not from when the benchmark got round to reading the channel.
//
// The phase ends with the last request, or after maxWall of wall time if the
// machine is too slow to get there; the result holds only what was sent.
func runPhase(s *sut, clk *workClock, reqs []request, maxWall time.Duration, onSend func(i int)) phaseResult {
	res := newPhase(clk, reqs)
	sent := 0
	for ; sent < len(reqs) && time.Since(res.start) < maxWall; sent++ {
		clk.sleepUntil(res.dueV(sent))
		if onSend != nil {
			onSend(sent)
		}
		res.submit(s, sent)
	}
	res.reqs, res.samples, res.chans = reqs[:sent], res.samples[:sent], res.chans[:sent]
	res.sendEnd = time.Now()
	for i := range res.reqs {
		res.await(i)
	}
	res.finish()
	return *res
}

// wall and work are the length of the phase's sending window, in wall time
// and on the work clock.
func (p *phaseResult) wall() time.Duration { return p.sendEnd.Sub(p.start) }
func (p *phaseResult) work() float64       { return p.clk.Between(p.start, p.sendEnd) }

// runClosedLoop is the saturation phase: clients goroutines each submit the
// next unsent request the moment their previous one is answered, so the
// stack always has clients requests outstanding and never idles, and — unlike
// draining a finite burst — there is no ramp and no tail inside the measured
// window. After warm, mark is called slices+1 times, measure/slices apart —
// the edges of the measured slices; then the clients stop and the outstanding
// requests drain. The result holds only what was sent.
func runClosedLoop(s *sut, clk *workClock, reqs []request, clients int, warm, measure time.Duration, slices int, onSend func(i int), mark func()) phaseResult {
	res := newPhase(clk, reqs)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	// The first request of every client is submitted from this goroutine with
	// the Go scheduler pinned to one P, so no server goroutine runs until all
	// of them are queued. A launch's token capacity is fixed when it starts
	// and a refilled launch lives as long as the queue feeds it: if the
	// servers' first scheduling round raced the first few submissions, each
	// replica would spend the phase inside a launch a row or two wide, and
	// throughput would be set by how that race fell (measured: 159-254 req/s
	// on one workload).
	clients = min(clients, len(reqs))
	procs := runtime.GOMAXPROCS(1)
	for i := 0; i < clients; i++ {
		if onSend != nil {
			onSend(i)
		}
		res.submit(s, i)
	}
	runtime.GOMAXPROCS(procs)
	next.Store(int64(clients))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			res.await(first)
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				reqs[i].Due = secs(clk.At(time.Now()) - res.startV) // due when its client is free
				if onSend != nil {
					onSend(i)
				}
				res.submit(s, i)
				res.await(i)
			}
		}(c)
	}
	edge := res.start.Add(warm)
	for k := 0; k <= slices; k++ {
		time.Sleep(time.Until(edge))
		mark()
		edge = edge.Add(measure / time.Duration(slices))
	}
	stop.Store(true)
	res.sendEnd = time.Now()
	wg.Wait()
	sent := min(int(next.Load()), len(reqs))
	res.reqs, res.samples, res.chans = reqs[:sent], res.samples[:sent], res.chans[:sent]
	res.finish()
	return *res
}

// submit sends request i now, recording the send and any refusal. The
// request's limit is work time; the stack gets it as the wall time that is
// worth at the machine's current speed.
func (p *phaseResult) submit(s *sut, i int) {
	rq, sm := &p.reqs[i], &p.samples[i]
	now, speed := p.clk.Now()
	sm.lag = secs(now - p.dueV(i))
	sm.sent = time.Now()
	ch, err := s.Submit(rq.Tokens, secs(rq.Limit.Seconds()/speed), rq.Tenant, rq.Class, rq.PrefixLen)
	sm.submit = time.Since(sm.sent)
	if err != nil {
		sm.err, sm.kind = err, failed
		if isShedOutcome(err) {
			sm.kind = refused
		}
		return
	}
	p.chans[i] = ch
}

// finish records the phase's last delivery.
func (p *phaseResult) finish() {
	for _, sm := range p.samples {
		if sm.served.After(p.end) {
			p.end = sm.served
		}
	}
}

// await blocks for request i's response, if it was accepted.
func (p *phaseResult) await(i int) {
	if ch := p.chans[i]; ch != nil {
		p.record(i, <-ch)
	}
}

// record classifies request i's response.
func (p *phaseResult) record(i int, resp serve.Response) {
	rq, sm := &p.reqs[i], &p.samples[i]
	switch {
	case resp.Err == nil:
		sm.kind = delivered
		sm.served = resp.Served
		sm.latency = secs(p.clk.At(resp.Served) - p.dueV(i))
		sm.onTime = sm.latency <= rq.Limit
		sm.output = resp.Output
	case errors.Is(resp.Err, serve.ErrDeadlineExceeded):
		sm.kind, sm.err = expired, resp.Err
	case isShedOutcome(resp.Err):
		sm.kind, sm.err = shed, resp.Err
	default:
		sm.kind, sm.err = failed, resp.Err
	}
}

// counts tallies a phase's outcomes.
type counts struct {
	Sent      int `json:"sent"`
	OnTime    int `json:"on_time"`
	Late      int `json:"late"` // delivered after the limit, expired or shed
	Refused   int `json:"refused"`
	Failed    int `json:"failed"`
	Delivered int `json:"delivered"`
}

func (p phaseResult) counts() counts {
	c := counts{Sent: len(p.samples)}
	for _, sm := range p.samples {
		switch {
		case sm.kind == failed:
			c.Failed++
		case sm.kind == refused:
			c.Refused++
		case sm.onTime:
			c.OnTime++
		default:
			c.Late++
		}
		if sm.kind == delivered {
			c.Delivered++
		}
	}
	return c
}

// errorsIsAny reports whether err matches any target.
func errorsIsAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}
