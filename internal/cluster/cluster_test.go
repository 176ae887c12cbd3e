package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/prefixcache"
	"tcb/internal/sched"
	"tcb/internal/serve"
	"tcb/internal/tensor"
)

// echoRunner is a minimal healthy engine: each request's output is its own
// ID. fail turns it into a hard-down engine; delay simulates a slow one.
type echoRunner struct {
	delay time.Duration

	mu   sync.Mutex
	fail bool
	runs int
}

func (r *echoRunner) Prepare(b *batch.Batch, tokens map[int64][]int) (*engine.Prepared, error) {
	return &engine.Prepared{Batch: b, Tokens: tokens}, nil
}

func (r *echoRunner) RunPreparedRefill(p *engine.Prepared, _ engine.RefillHook) (*engine.Report, error) {
	r.mu.Lock()
	r.runs++
	fail := r.fail
	r.mu.Unlock()
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	if fail {
		return nil, errors.New("replica engine down")
	}
	rep := &engine.Report{}
	for _, it := range p.Batch.Items() {
		rep.Results = append(rep.Results, engine.Result{ID: it.ID, Output: []int{int(it.ID)}})
	}
	return rep, nil
}

// testServe builds a replica server with fast test timings; mod tweaks the
// config before validation.
func testServe(eng serve.Runner, mod func(*serve.Config)) (*serve.Server, error) {
	cfg := serve.Config{
		Engine:    eng,
		Scheduler: sched.NewDAS(),
		Scheme:    batch.Concat,
		B:         4, L: 64,
		Poll:         200 * time.Microsecond,
		Retry:        serve.RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond},
		DrainTimeout: 500 * time.Millisecond,
	}
	if mod != nil {
		mod(&cfg)
	}
	return serve.New(cfg)
}

func echoSpawn(mod func(*serve.Config)) Spawn {
	return func(i int) (*serve.Server, func(), error) {
		srv, err := testServe(&echoRunner{}, mod)
		return srv, nil, err
	}
}

func tokens(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

func waitCluster(t *testing.T, c *Cluster, what string, ok func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := c.Stats()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached; stats = %+v", what, st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParsePolicy(t *testing.T) {
	for spec, want := range map[string]Policy{
		"rr": RoundRobin, "round-robin": RoundRobin,
		"least": LeastLoaded, "least-loaded": LeastLoaded,
		"length": LengthAffinity, "affinity": LengthAffinity,
	} {
		got, err := ParsePolicy(spec)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Error("unknown policy must fail to parse")
	}
}

// TestRoundRobinSpreads pins the default policy: sequential submissions
// rotate across healthy replicas evenly.
func TestRoundRobinSpreads(t *testing.T) {
	c, err := New(Config{Replicas: 3, Spawn: echoSpawn(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 9; i++ {
		ch, err := c.Submit(tokens(4), 5*time.Second)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if resp := <-ch; resp.Err != nil {
			t.Fatalf("submit %d: %v", i, resp.Err)
		}
	}
	st := c.Stats()
	for _, r := range st.Replicas {
		if r.Stats.Served != 3 {
			t.Fatalf("replica %d served %d, want 3 (round-robin): %+v", r.Index, r.Stats.Served, st)
		}
	}
}

// TestLeastLoadedAvoidsSlowReplica pins queued-cost routing: with one slow
// replica, the fast one absorbs most of a concurrent burst.
func TestLeastLoadedAvoidsSlowReplica(t *testing.T) {
	spawn := func(i int) (*serve.Server, func(), error) {
		eng := &echoRunner{}
		if i == 1 {
			eng.delay = 20 * time.Millisecond
		}
		srv, err := testServe(eng, func(cfg *serve.Config) { cfg.B = 1 })
		return srv, nil, err
	}
	c, err := New(Config{Replicas: 2, Spawn: spawn, Policy: LeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var chans []<-chan serve.Response
	for i := 0; i < 30; i++ {
		ch, err := c.Submit(tokens(4), 30*time.Second)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans = append(chans, ch)
		time.Sleep(time.Millisecond)
	}
	for i, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
	}
	st := c.Stats()
	fast, slow := st.Replicas[0].Stats.Served, st.Replicas[1].Stats.Served
	if fast <= slow {
		t.Fatalf("least-loaded sent %d to the fast replica, %d to the slow one: %+v", fast, slow, st)
	}
}

// TestLengthAffinityBands pins length bucketing: short requests land on the
// low-index replica, long requests on the high-index one.
func TestLengthAffinityBands(t *testing.T) {
	c, err := New(Config{Replicas: 2, Spawn: echoSpawn(nil), Policy: LengthAffinity, MaxLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 4; i++ {
		n := 4
		if i%2 == 1 {
			n = 60
		}
		ch, err := c.Submit(tokens(n), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if resp := <-ch; resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	st := c.Stats()
	if st.Replicas[0].Stats.Served != 2 || st.Replicas[1].Stats.Served != 2 {
		t.Fatalf("length bands not respected: %+v", st)
	}
}

// TestFailoverOnEngineError pins the failover path: a request landing on a
// hard-down replica is resubmitted to a live one and still succeeds.
func TestFailoverOnEngineError(t *testing.T) {
	spawn := func(i int) (*serve.Server, func(), error) {
		eng := &echoRunner{}
		if i == 0 {
			eng.fail = true
		}
		srv, err := testServe(eng, func(cfg *serve.Config) {
			cfg.Retry = serve.RetryPolicy{MaxAttempts: 1, Backoff: time.Millisecond}
			cfg.BreakerThreshold = -1
		})
		return srv, nil, err
	}
	c, err := New(Config{Replicas: 2, Spawn: spawn})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 4; i++ {
		ch, err := c.Submit(tokens(4), 5*time.Second)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if resp := <-ch; resp.Err != nil {
			t.Fatalf("request %d not failed over: %v", i, resp.Err)
		}
	}
	st := c.Stats()
	if st.Failovers < 2 {
		t.Fatalf("failovers = %d, want >= 2 (round-robin sent half to the dead replica): %+v", st.Failovers, st)
	}
	if st.Delivered != 4 {
		t.Fatalf("delivered = %d, want 4", st.Delivered)
	}
}

// TestZeroLostUnderReplicaKill is the invariant test: with one replica
// hard-killed mid-run by seeded chaos, every accepted submission still gets
// exactly one terminal outcome.
func TestZeroLostUnderReplicaKill(t *testing.T) {
	spawn := func(i int) (*serve.Server, func(), error) {
		var eng serve.Runner = &echoRunner{}
		var cleanup func()
		if i == 1 {
			ch := serve.NewChaosRunner(eng, serve.ChaosConfig{KillAfter: 5, Seed: 7})
			cleanup = ch.Close
			eng = ch
		}
		srv, err := testServe(eng, func(cfg *serve.Config) {
			cfg.BreakerThreshold = 2
			cfg.BreakerCooldown = 10 * time.Millisecond
		})
		return srv, cleanup, err
	}
	c, err := New(Config{Replicas: 3, Spawn: spawn, Policy: LeastLoaded, ProbeInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()

	const n = 200
	var wg sync.WaitGroup
	outcomes := make(chan error, n)
	var accepted, refused int64
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch, err := c.Submit(tokens(3+i%8), 5*time.Second)
			if err != nil {
				mu.Lock()
				refused++
				mu.Unlock()
				return
			}
			mu.Lock()
			accepted++
			mu.Unlock()
			select {
			case resp := <-ch:
				outcomes <- resp.Err
			case <-time.After(20 * time.Second):
				outcomes <- fmt.Errorf("request %d: no terminal outcome", i)
			}
		}(i)
	}
	wg.Wait()
	close(outcomes)
	var terminal int64
	for err := range outcomes {
		if err != nil && err.Error() != "" && err.Error()[0:7] == "request" {
			t.Fatal(err)
		}
		terminal++
	}
	if terminal != accepted {
		t.Fatalf("accepted %d but %d terminal outcomes (%d refused at submit)", accepted, terminal, refused)
	}
	st := c.Stats()
	if st.Delivered != accepted {
		t.Fatalf("delivered = %d, want %d: %+v", st.Delivered, accepted, st)
	}
	c.Drain()
}

// TestWedgedReplicaDrainRespawnReadmit is the tentpole lifecycle test: a
// replica wedges (engine call hangs, no watchdog), the stall detector
// triggers a bounded drain/respawn, the fresh replica passes probation and
// is counter-verified serving again.
func TestWedgedReplicaDrainRespawnReadmit(t *testing.T) {
	var mu sync.Mutex
	gen := make(map[int]int)
	spawn := func(i int) (*serve.Server, func(), error) {
		mu.Lock()
		g := gen[i]
		gen[i]++
		mu.Unlock()
		var eng serve.Runner = &echoRunner{}
		var cleanup func()
		if i == 1 && g == 0 {
			ch := serve.NewChaosRunner(eng, serve.ChaosConfig{WedgeAfter: 1})
			cleanup = ch.Close
			eng = ch
		}
		srv, err := testServe(eng, func(cfg *serve.Config) {
			cfg.B = 1 // one request per engine call, so the wedge lands with work pending
			cfg.BreakerThreshold = -1
			cfg.DrainTimeout = 100 * time.Millisecond
		})
		return srv, cleanup, err
	}
	c, err := New(Config{
		Replicas:        2,
		Spawn:           spawn,
		ProbeInterval:   10 * time.Millisecond,
		StallTimeout:    120 * time.Millisecond,
		RespawnDeadline: 300 * time.Millisecond,
		ReadmitProbes:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()

	// Round-robin: request 2 warms replica 1 (its one allowed call),
	// request 4 wedges it with a batch in flight.
	var chans []<-chan serve.Response
	for i := 0; i < 4; i++ {
		ch, err := c.Submit(tokens(40), 10*time.Second)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans = append(chans, ch)
	}

	start := time.Now()
	waitCluster(t, c, "respawn", func(st Stats) bool { return st.Respawns >= 1 })
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("respawn took %v, want well under the configured deadlines", took)
	}
	// Every pre-wedge submission still terminates — the wedged batch fails
	// over once teardown releases it.
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Fatalf("request %d: %v (must fail over, not error)", i, resp.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d: lost across the respawn", i)
		}
	}
	// The fresh replica must pass probation (probes) and serve again.
	st := waitCluster(t, c, "readmission", func(st Stats) bool {
		for _, r := range st.Replicas {
			if r.Index == 1 && r.State == "healthy" && r.Respawns == 1 && r.Stats.Served >= 1 {
				return true
			}
		}
		return false
	})
	if st.Respawns != 1 {
		t.Fatalf("respawns = %d, want exactly 1: %+v", st.Respawns, st)
	}
	// And take real traffic: round-robin now lands on it again.
	for i := 0; i < 4; i++ {
		ch, err := c.Submit(tokens(40), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if resp := <-ch; resp.Err != nil {
			t.Fatalf("post-respawn request %d: %v", i, resp.Err)
		}
	}
}

// TestAllEjectedDegradesToShedding pins graceful degradation: with every
// replica's engine down and breakers latched open, the cluster keeps
// accepting what the replicas' reduced queues allow, sheds the excess with
// a typed error, and reports itself unserviceable — nothing hangs.
func TestAllEjectedDegradesToShedding(t *testing.T) {
	spawn := func(i int) (*serve.Server, func(), error) {
		// The delay holds each breaker closed until the whole burst is queued;
		// a first batch that fails instantly refuses the burst instead.
		srv, err := testServe(&echoRunner{fail: true, delay: 20 * time.Millisecond}, func(cfg *serve.Config) {
			cfg.BreakerThreshold = 1
			cfg.BreakerCooldown = time.Hour // latch open
			cfg.QueueCap = 8                // open bound 1
			cfg.Retry = serve.RetryPolicy{MaxAttempts: 1, Backoff: time.Millisecond}
		})
		return srv, nil, err
	}
	c, err := New(Config{Replicas: 2, Spawn: spawn, ProbeInterval: 10 * time.Millisecond, ProbeDeadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()

	// Burst while the breakers are still closed: long requests (one per
	// row) so each replica's first batch fails alone, trips its breaker,
	// and the rest of its queue is shed down to the reduced bound.
	var chans []<-chan serve.Response
	for i := 0; i < 12; i++ {
		ch, err := c.Submit(tokens(40), 2*time.Second)
		if err != nil {
			// Refused outright (reduced queue full): also a clean outcome.
			if !errors.Is(err, serve.ErrBreakerOpen) && !errors.Is(err, serve.ErrServerClosed) {
				t.Fatalf("submit %d: unexpected refusal %v", i, err)
			}
			continue
		}
		chans = append(chans, ch)
	}
	var sawShed bool
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err == nil {
				t.Fatalf("request %d: served by a down engine?", i)
			}
			if errors.Is(resp.Err, serve.ErrShed) {
				sawShed = true
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d: hung instead of degrading", i)
		}
	}
	if !sawShed {
		t.Fatal("expected at least one utility-ordered shed outcome after the breakers tripped")
	}
	waitCluster(t, c, "ejection of all replicas", func(st Stats) bool { return st.Ejections >= 2 })
	if h := c.Health(); h.Serviceable {
		t.Fatalf("all-ejected cluster must not report serviceable: %+v", h)
	}
	if st := c.Stats(); st.ProbeFailures == 0 {
		t.Fatalf("probes against down engines must fail and be counted: %+v", st)
	}
}

// TestClusterTeardownNoLeaks pins that a full lifecycle — replicas with
// seeded chaos (one killed, one wedged), live traffic, monitor, Stop —
// leaves no goroutines behind.
func TestClusterTeardownNoLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	spawn := func(i int) (*serve.Server, func(), error) {
		var eng serve.Runner = &echoRunner{}
		var cleanup func()
		switch i {
		case 1:
			ch := serve.NewChaosRunner(eng, serve.ChaosConfig{KillAfter: 3, Seed: 1})
			cleanup, eng = ch.Close, ch
		case 2:
			ch := serve.NewChaosRunner(eng, serve.ChaosConfig{WedgeAfter: 3})
			cleanup, eng = ch.Close, ch
		}
		srv, err := testServe(eng, func(cfg *serve.Config) {
			cfg.BreakerThreshold = 2
			cfg.BreakerCooldown = 10 * time.Millisecond
			cfg.DrainTimeout = 100 * time.Millisecond
		})
		return srv, cleanup, err
	}
	c, err := New(Config{
		Replicas:        3,
		Spawn:           spawn,
		ProbeInterval:   10 * time.Millisecond,
		StallTimeout:    100 * time.Millisecond,
		RespawnDeadline: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	var wg sync.WaitGroup
	for i := 0; i < 60; i++ {
		ch, err := c.Submit(tokens(3+i%6), 3*time.Second)
		if err != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ch
		}()
	}
	wg.Wait()
	c.Stop()
	// Idempotent teardown must not panic or hang.
	c.Stop()
	c.Drain()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubmitValidationIsSynchronous pins that request-shaped errors (too
// long, empty) surface at Submit instead of burning failover attempts.
func TestSubmitValidationIsSynchronous(t *testing.T) {
	c, err := New(Config{Replicas: 2, Spawn: echoSpawn(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, err := c.Submit(nil, time.Second); err == nil {
		t.Fatal("empty submission must be refused")
	}
	var tl *serve.TooLongError
	if _, err := c.Submit(tokens(65), time.Second); !errors.As(err, &tl) {
		t.Fatalf("oversized submission err = %v, want TooLongError", err)
	}
	if st := c.Stats(); st.Failovers != 0 || st.Submitted != 0 {
		t.Fatalf("validation must not count as traffic: %+v", st)
	}
}

// TestStatsPrefixAggregation sums fabricated per-replica prefix counters —
// the caches are per-replica (respawns start cold), so the cluster view is
// additive with the hit rate recomputed over the summed totals.
func TestStatsPrefixAggregation(t *testing.T) {
	rows := []ReplicaStats{
		{Stats: serve.Stats{PrefixEnabled: true, Prefix: prefixcache.Stats{
			Hits: 6, Misses: 2, Inserts: 2, TokensSaved: 60, ResidentBytes: 100, Entries: 2,
			LateHits: 1, LateTokensSaved: 10, RoundShared: 3, RoundSharedTokensSaved: 30,
		}}},
		{Stats: serve.Stats{PrefixEnabled: true, Prefix: prefixcache.Stats{
			Hits: 2, Misses: 6, Inserts: 5, Evictions: 1, Rejected: 1, TokensSaved: 20, ResidentBytes: 300, Entries: 4,
			LateHits: 2, LateTokensSaved: 20, RoundShared: 1, RoundSharedTokensSaved: 10,
		}}},
		{Stats: serve.Stats{}}, // cache off on this replica: contributes nothing
	}
	agg, enabled := prefixTotals(rows)
	if !enabled {
		t.Fatal("two replicas carry caches")
	}
	want := prefixcache.Stats{
		Hits: 8, Misses: 8, Inserts: 7, Evictions: 1, Rejected: 1,
		TokensSaved: 80, ResidentBytes: 400, Entries: 6, HitRate: 0.5,
		LateHits: 3, LateTokensSaved: 30, RoundShared: 4, RoundSharedTokensSaved: 40,
	}
	if agg != want {
		t.Fatalf("aggregate = %+v, want %+v", agg, want)
	}
	if _, enabled := prefixTotals(rows[2:]); enabled {
		t.Fatal("no cache anywhere must report disabled")
	}
}

// TestStatsKernelsSnapshot: the cluster reports the process-wide dispatch
// counters exactly once at the top level.
func TestStatsKernelsSnapshot(t *testing.T) {
	c, err := New(Config{Replicas: 2, Spawn: echoSpawn(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if got, want := c.Stats().Kernels, tensor.KernelCounters(); got != want {
		t.Fatalf("cluster kernels = %+v, want the process snapshot %+v", got, want)
	} else if got.ISA != "avx2" && got.ISA != "go" {
		t.Fatalf("cluster kernels name no lane-helper body: %+v", got)
	}
}
