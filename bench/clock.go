package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The benchmark's clock counts work, not wall time.
//
// The machines this runs on do not hold their speed. On a 2-vCPU VM with
// nothing else running in it, the stack's saturated throughput was measured
// at 12 000 tok/s, then 6 000, then 12 000 again, in episodes lasting from a
// second to minutes, with no steal time reported: something else shares the
// core's caches. Code that lives in the L1/L2 cache (the GEMM kernels, which
// is where the stack spends its time) slows 2-4x; a dependent scalar chain or
// a DRAM stream hardly moves. A figure in wall seconds then says as much
// about the host's other tenants as about the code.
//
// So a speedometer goroutine times a small fixed kernel of the benchmark's
// own — a pure-Go multiply-accumulate of a 16x128 block into 128x512 weights,
// rotating over 2 MB of them, the stack's own access pattern and footprint —
// every few milliseconds, and the work clock advances by speed x wall time,
// where speed = probeNominal / (what the kernel took this time). One
// work-second is what the machine gets done in one wall second when it runs
// undisturbed; at half speed it takes two wall seconds. Over 200 s of heavy
// interference, throughput per 5 s window varied by 25 % (quartile distance
// over median) on the wall clock and by 2.7 % on this one.
//
// Everything the benchmark reports as a time or a rate is in work time:
// arrivals are paced on the work clock (so offered load stays the same
// fraction of what the machine can do), deadlines are handed to the stack as
// work time converted at the speed of the moment, latencies and throughput
// are read off the work clock. A run prints its mean speed, so wall figures
// can be recovered.
//
// The probes take the CPUs in turn (the speedometer's thread moves itself
// with sched_setaffinity): a neighbour slows one core, not the machine, and a
// thread left to the OS scheduler is put on the idler core more often, which
// is the faster one, and would read the machine faster than the stack finds
// it.
//
// The kernel is the benchmark's, not the repository's: a change to the
// stack's kernels does not change the clock.

const (
	// probeNominal defines speed 1.0: what one probe takes on the machine
	// class the benchmark was defined on, undisturbed, while the stack keeps
	// both cores busy.
	probeNominal = 520 * time.Microsecond
	// probeEvery is the sampling period (each of n CPUs is sampled every
	// n x probeEvery). One probe in 10 ms costs the stack about 2.5 % of a
	// two-core machine.
	probeEvery = 10 * time.Millisecond
	// speedWindow is how far back Now looks for the current speed.
	speedWindow = 250 * time.Millisecond

	probeRows, probeInner, probeCols = 16, 128, 512
	probeWeights                     = 8 // x 256 KB
)

// speedProbe is the timed kernel's state.
type speedProbe struct {
	a    []float32
	c    []float32
	w    [probeWeights][]float32
	next int
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{a: make([]float32, probeRows*probeInner), c: make([]float32, probeRows*probeCols)}
	for i := range p.a {
		p.a[i] = float32(i%7) * 0.1
	}
	for k := range p.w {
		p.w[k] = make([]float32, probeInner*probeCols)
		for i := range p.w[k] {
			p.w[k][i] = float32(i%13) * 0.01
		}
	}
	return p
}

// run times one pass of the kernel over the next weight matrix.
func (p *speedProbe) run() time.Duration {
	w := p.w[p.next]
	p.next = (p.next + 1) % len(p.w)
	start := time.Now()
	for i := 0; i < probeRows; i++ {
		c := p.c[i*probeCols : (i+1)*probeCols]
		for j := range c {
			c[j] = 0
		}
		for k := 0; k < probeInner; k++ {
			a := p.a[i*probeInner+k]
			b := w[k*probeCols : (k+1)*probeCols]
			for j := 0; j+7 < probeCols; j += 8 {
				c[j] += a * b[j]
				c[j+1] += a * b[j+1]
				c[j+2] += a * b[j+2]
				c[j+3] += a * b[j+3]
				c[j+4] += a * b[j+4]
				c[j+5] += a * b[j+5]
				c[j+6] += a * b[j+6]
				c[j+7] += a * b[j+7]
			}
		}
	}
	return time.Since(start)
}

// workClock maps wall time to work time.
type workClock struct {
	mu sync.Mutex
	// Knots of the piecewise-linear map: at wall time t[i] the work clock
	// read v[i] seconds; speed[i], the i-th probe's, applies from t[i] on.
	// Each probe counts for the interval up to the next one, so the clock is
	// the time integral of the sampled speed: a probe that was itself held up
	// slows the clock for one period, it does not move a median.
	t     []time.Time
	v     []float64
	speed []float64
	cpu   []int // which CPU probe i ran on (index into the allowed set)
	start time.Time

	stop chan struct{}
	done chan struct{}
}

// startWorkClock starts the speedometer. Stop it with Stop.
func startWorkClock() *workClock {
	c := &workClock{stop: make(chan struct{}), done: make(chan struct{})}
	p := newSpeedProbe()
	p.run() // touch the weights once
	c.start = time.Now()
	c.t, c.v, c.speed, c.cpu = []time.Time{c.start}, []float64{0}, []float64{speedOf(p.run())}, []int{0}
	go c.run(p)
	return c
}

func speedOf(d time.Duration) float64 {
	return float64(probeNominal) / float64(max(d, time.Microsecond))
}

func (c *workClock) run(p *speedProbe) {
	defer close(c.done)
	// The thread is not unlocked: it ends with the goroutine, so no other
	// goroutine inherits its affinity.
	runtime.LockOSThread()
	cpus := allowedCPUs()
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for k := 0; ; k++ {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		on := 0
		if len(cpus) > 1 {
			on = k % len(cpus)
			pinThread(cpus[on])
		}
		s := speedOf(p.run())
		now := time.Now()
		c.mu.Lock()
		last := len(c.t) - 1
		c.v = append(c.v, c.v[last]+c.speed[last]*now.Sub(c.t[last]).Seconds())
		c.t = append(c.t, now)
		c.speed = append(c.speed, s)
		c.cpu = append(c.cpu, on)
		c.mu.Unlock()
	}
}

// Stop ends the speedometer goroutine and waits for it.
func (c *workClock) Stop() {
	close(c.stop)
	<-c.done
}

// at returns the clock's reading at wall time t; the caller holds mu.
func (c *workClock) at(t time.Time) float64 {
	i := max(sort.Search(len(c.t), func(i int) bool { return c.t[i].After(t) })-1, 0)
	return c.v[i] + c.speed[i]*t.Sub(c.t[i]).Seconds()
}

// At returns the work clock's reading at wall time t (any t since start).
func (c *workClock) At(t time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at(t)
}

// Between returns the work time elapsed between two wall times.
func (c *workClock) Between(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at(to) - c.at(from)
}

// Now returns the work clock's reading and the current speed: work done per
// wall second over the last speedWindow.
func (c *workClock) Now() (v, speed float64) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	v = c.at(now)
	from := now.Add(-speedWindow)
	if from.Before(c.t[0]) {
		from = c.t[0]
	}
	if span := now.Sub(from).Seconds(); span > 0 {
		return v, (v - c.at(from)) / span
	}
	return v, c.speed[0]
}

// SpeedByCPU returns the mean sampled speed of each CPU between two wall
// times.
func (c *workClock) SpeedByCPU(from, to time.Time) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum, n []float64
	for i, t := range c.t {
		if t.Before(from) || t.After(to) {
			continue
		}
		for len(sum) <= c.cpu[i] {
			sum, n = append(sum, 0), append(n, 0)
		}
		sum[c.cpu[i]] += c.speed[i]
		n[c.cpu[i]]++
	}
	for k := range sum {
		sum[k] /= n[k]
	}
	return sum
}

// Start is the wall time the clock started at.
func (c *workClock) Start() time.Time { return c.start }
