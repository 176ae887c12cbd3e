package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/fair"
	"tcb/internal/gpu"
	"tcb/internal/model"
	"tcb/internal/prefixcache"
	"tcb/internal/rng"
	"tcb/internal/sched"
)

var errBoom = errors.New("lifecycle test: engine down")

// faultyEngine is a real engine whose launches consult fail first: a non-nil
// error aborts the launch before the engine (or the hook) sees it.
type faultyEngine struct {
	*engine.Engine
	fail func() error
}

func (f *faultyEngine) RunPreparedRefill(p *engine.Prepared, hook engine.RefillHook) (*engine.Report, error) {
	if f.fail != nil {
		if err := f.fail(); err != nil {
			return nil, err
		}
	}
	return f.Engine.RunPreparedRefill(p, hook)
}

// TestLifecycleReleasesOnEveryOutcome drives requests to every terminal
// outcome under every loop / fairness / prefix setting and checks the
// lifecycle's promises as whole-server invariants: one response per request,
// outcome counters summing to Submitted, no WFQ backlog, no prefix pin, both
// device ledgers at zero.
func TestLifecycleReleasesOnEveryOutcome(t *testing.T) {
	always := func() error { return errBoom }
	settled := func(st Stats) bool { return st.Served+st.Missed+st.Failed+st.Shed == st.Submitted }
	parked := func(st Stats) bool { return st.Retried == st.Submitted }
	cases := []struct {
		name     string
		deadline time.Duration
		fail     func() error
		cfg      func(*Config)
		ready    func(Stats) bool // when to end the server
		drain    bool             // end with Drain instead of Stop
		want     []error          // errors a response may carry (nil = delivered)
		counter  func(Stats) int64
	}{
		{name: "delivered by early retire", deadline: time.Minute, ready: settled,
			want: []error{nil}, counter: func(st Stats) int64 { return st.Served }},
		{name: "expired in queue", deadline: time.Nanosecond, ready: settled,
			want: []error{ErrDeadlineExceeded}, counter: func(st Stats) int64 { return st.Missed }},
		{name: "expired after a failed batch", deadline: 30 * time.Millisecond, ready: settled,
			fail: func() error { time.Sleep(60 * time.Millisecond); return errBoom },
			want: []error{ErrDeadlineExceeded}, counter: func(st Stats) int64 { return st.Missed }},
		{name: "attempts exhausted", deadline: time.Minute, fail: always, ready: settled,
			cfg:  func(c *Config) { c.Retry = RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond} },
			want: []error{errBoom}, counter: func(st Stats) int64 { return st.Failed }},
		{name: "shed", deadline: time.Minute, fail: always,
			cfg: func(c *Config) {
				c.BreakerThreshold, c.BreakerCooldown, c.QueueCap = 1, time.Hour, 8 // open bound 1
				c.Retry = RetryPolicy{MaxAttempts: 10, Backoff: time.Millisecond}
			},
			ready: func(st Stats) bool { return st.Shed == st.Submitted-1 },
			want:  []error{ErrShed, ErrServerClosed}, counter: func(st Stats) int64 { return st.Shed }},
		{name: "Stop", deadline: time.Minute, fail: always, ready: parked,
			cfg:  func(c *Config) { c.Retry = RetryPolicy{MaxAttempts: 3, Backoff: time.Hour} },
			want: []error{ErrServerClosed}, counter: func(st Stats) int64 { return st.Failed }},
		{name: "DrainTimeout", deadline: time.Minute, fail: always, ready: parked, drain: true,
			cfg: func(c *Config) {
				c.Retry = RetryPolicy{MaxAttempts: 3, Backoff: time.Hour}
				c.DrainTimeout = 20 * time.Millisecond
			},
			want: []error{ErrServerClosed}, counter: func(st Stats) int64 { return st.Failed }},
	}
	mcfg := model.Config{
		VocabSize: testVocab, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 256, Eps: 1e-5,
	}
	m := model.New(mcfg, 23)
	tenants := []string{"a", "b", ""}
	const prefixLen = 12

	for _, tc := range cases {
		for _, pipelined := range []bool{false, true} {
			for _, fairOn := range []bool{false, true} {
				for _, prefixHit := range []bool{false, true} {
					tc := tc
					name := fmt.Sprintf("%s/pipeline=%v/fair=%v/prefix=%v", tc.name, pipelined, fairOn, prefixHit)
					t.Run(name, func(t *testing.T) {
						eng := engine.New(m, 3)
						eng.Mem = gpu.NewMemoryManager(0)
						cacheMem := gpu.NewMemoryManager(0)
						// Room for one entry: a second prefix fits only by
						// evicting the first, which a leaked pin forbids.
						pc := prefixcache.New(prefixTestBytes(prefixLen)*3/2, cacheMem)
						eng.PrefixCache = pc
						src := rng.New(61)
						shared, other := randTokens(src, prefixLen), randTokens(src, prefixLen)
						freeze := func(prefix []int) {
							t.Helper()
							toks := append(append([]int{}, prefix...), randTokens(src, 2)...)
							b, _ := batch.PackConcat([]batch.Item{{ID: 1, Len: len(toks), PrefixLen: prefixLen}}, 1, 64)
							if _, err := eng.Run(b, map[int64][]int{1: toks}); err != nil {
								t.Fatal(err)
							}
							if !pc.Contains(prefix, prefixLen) {
								t.Fatalf("prefix not resident (leaked pin blocks eviction?): %+v", pc.Stats())
							}
						}
						cfg := Config{
							Engine: &faultyEngine{Engine: eng, fail: tc.fail}, Scheduler: sched.NewDAS(),
							Scheme: batch.Concat, B: 4, L: 64, Poll: 200 * time.Microsecond,
							Refill: true, Pipeline: pipelined, Fair: fairOn, PrefixCache: pc,
							BreakerThreshold: -1,
						}
						if tc.cfg != nil {
							tc.cfg(&cfg)
						}
						s, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						var opt SubmitOptions
						if prefixHit {
							freeze(shared)
							opt.PrefixLen = prefixLen
						}
						var chans []<-chan Response
						for _, tenant := range tenants {
							opt.Tenant = tenant
							toks := append(append([]int{}, shared...), randTokens(src, 3)...)
							ch, err := s.SubmitOpts(toks, tc.deadline, opt)
							if err != nil {
								t.Fatal(err)
							}
							chans = append(chans, ch)
						}
						var reqs []*pending
						for _, p := range s.queue { // not started yet: no lock needed
							reqs = append(reqs, p)
							if p.prefix.Valid() != prefixHit {
								t.Fatalf("request %d pinned=%v, want %v", p.req.ID, p.prefix.Valid(), prefixHit)
							}
						}

						s.Start()
						st := waitStats(t, s, tc.ready)
						if prefixHit && settled(st) {
							freeze(other) // every pin released ⇒ the shared entry is evictable
						}
						if tc.drain {
							s.Drain()
						}
						s.Stop() // after a timed-out Drain: wait for the loop's teardown

						for i, ch := range chans {
							select {
							case resp := <-ch:
								ok := false
								for _, want := range tc.want {
									ok = ok || (want == nil && resp.Err == nil) || (want != nil && errors.Is(resp.Err, want))
								}
								if !ok {
									t.Fatalf("request %d: outcome %v, want one of %v", i, resp.Err, tc.want)
								}
							default:
								t.Fatalf("request %d has no response after shutdown", i)
							}
							select {
							case resp := <-ch:
								t.Fatalf("request %d answered twice: %+v", i, resp)
							default:
							}
						}
						st = s.Stats()
						if !settled(st) || st.Queued != 0 || st.InFlight != 0 {
							t.Fatalf("outcomes do not sum to Submitted: %+v", st)
						}
						if tc.counter(st) == 0 {
							t.Fatalf("outcome under test never happened: %+v", st)
						}
						for _, tenant := range append(tenants, fair.DefaultTenant) {
							if n := s.wfq.Backlog(tenant); n != 0 {
								t.Fatalf("tenant %q still has WFQ backlog %d", tenant, n)
							}
						}
						for _, p := range reqs {
							if p.state != stateDone || p.prefix.Valid() || !p.stampDone {
								t.Fatalf("request %d left state=%d pinned=%v stampDone=%v",
									p.req.ID, p.state, p.prefix.Valid(), p.stampDone)
							}
						}
						if eng.Mem.Used() != 0 || eng.Mem.Outstanding() != 0 ||
							cacheMem.Used() != 0 || cacheMem.Outstanding() != 0 {
							t.Fatalf("ledgers not at zero: engine %d B / %d tags, cache %d B / %d tags",
								eng.Mem.Used(), eng.Mem.Outstanding(), cacheMem.Used(), cacheMem.Outstanding())
						}
					})
				}
			}
		}
	}
}
