package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/fair"
	"tcb/internal/model"
	"tcb/internal/rng"
	"tcb/internal/sched"
)

// fairServer builds an unstarted fair server whose queue the tests poke
// directly (no loop racing them).
func fairServer(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	cfg := model.Config{
		VocabSize: testVocab, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 256, Eps: 1e-5,
	}
	e := engine.New(model.New(cfg, 5), 3)
	c := Config{
		Engine: e, Scheduler: sched.NewDAS(), Scheme: batch.Concat,
		B: 4, L: 64, Poll: 200 * time.Microsecond, Fair: true,
	}
	if mut != nil {
		mut(&c)
	}
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFairShedFloodingTenantFirst: breaker-open shedding must charge the
// tenant over its share, not whoever has the lowest utility globally. The
// flooding tenant's requests are LONGER (lower utility) here, so the global
// shed would also pick them — the discriminating part is below, where the
// flooder's requests are shorter and the global order would evict the
// well-behaved tenant first.
func TestFairShedFloodingTenantFirst(t *testing.T) {
	src := rng.New(7)
	s := fairServer(t, func(c *Config) { c.QueueCap = 80 }) // open bound 10

	// Flooder submits 20 SHORT requests (high utility: the global shed
	// would keep all of them); the light tenant 3 longer ones.
	for i := 0; i < 20; i++ {
		if _, err := s.SubmitOpts(randTokens(src, 4), time.Minute, SubmitOptions{Tenant: "flood"}); err != nil {
			t.Fatal(err)
		}
	}
	lightCh := make([]<-chan Response, 0, 3)
	for i := 0; i < 3; i++ {
		ch, err := s.SubmitOpts(randTokens(src, 32), time.Minute, SubmitOptions{Tenant: "light"})
		if err != nil {
			t.Fatal(err)
		}
		lightCh = append(lightCh, ch)
	}

	s.mu.Lock()
	s.shedLocked()
	queueLen := len(s.queue)
	lightLeft := 0
	for _, p := range s.queue {
		if p.req.Tenant == "light" {
			lightLeft++
		}
	}
	s.mu.Unlock()

	if queueLen != 10 {
		t.Fatalf("queue = %d after shed, want 10", queueLen)
	}
	if lightLeft != 3 {
		t.Fatalf("light tenant kept %d of 3 — fair shed must charge the flooder", lightLeft)
	}
	for _, ch := range lightCh {
		select {
		case r := <-ch:
			t.Fatalf("light tenant shed: %v", r.Err)
		default:
		}
	}
	st := s.Stats()
	if st.Tenants["flood"].Shed != 13 {
		t.Fatalf("flood shed = %d, want 13", st.Tenants["flood"].Shed)
	}
}

// TestGlobalShedUnchangedWhenFairOff: with Fair off every request shares one
// virtual tenant, so the share-based shed is the original global
// lowest-utility order, tenants ignored.
func TestGlobalShedUnchangedWhenFairOff(t *testing.T) {
	src := rng.New(8)
	s := fairServer(t, func(c *Config) { c.Fair = false; c.QueueCap = 40 }) // open bound 5
	// Flooder short (high utility), light tenant long (low utility): the
	// global order evicts light first even though flood is over any share.
	for i := 0; i < 6; i++ {
		if _, err := s.SubmitOpts(randTokens(src, 4), time.Minute, SubmitOptions{Tenant: "flood"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.SubmitOpts(randTokens(src, 32), time.Minute, SubmitOptions{Tenant: "light"}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.shedLocked()
	lightLeft := 0
	for _, p := range s.queue {
		if p.req.Tenant == "light" {
			lightLeft++
		}
	}
	s.mu.Unlock()
	if lightLeft != 0 {
		t.Fatal("global shed must evict by utility alone (light's long request goes first)")
	}
	if st := s.Stats(); st.FairEnabled {
		t.Fatal("FairEnabled must be false")
	}
}

// TestFairPoolWindowsFlooder: the scheduler's candidate pool must surface
// the light tenant's requests inside the window even under a 50-deep flood
// backlog.
func TestFairPoolWindowsFlooder(t *testing.T) {
	src := rng.New(9)
	s := fairServer(t, func(c *Config) { c.QueueCap = 256 })
	for i := 0; i < 50; i++ {
		if _, err := s.SubmitOpts(randTokens(src, 8), time.Minute, SubmitOptions{Tenant: "flood"}); err != nil {
			t.Fatal(err)
		}
	}
	var lightIDs []int64
	for i := 0; i < 2; i++ {
		if _, err := s.SubmitOpts(randTokens(src, 8), time.Minute, SubmitOptions{Tenant: "light"}); err != nil {
			t.Fatal(err)
		}
		lightIDs = append(lightIDs, s.next)
	}
	s.mu.Lock()
	pool := s.poolLocked(s.clock())
	s.mu.Unlock()
	if want := fair.Window(s.cfg.B); len(pool) != want {
		t.Fatalf("pool = %d candidates, want the %d-wide window", len(pool), want)
	}
	pos := map[int64]int{}
	for i, r := range pool {
		pos[r.ID] = i
	}
	for _, id := range lightIDs {
		at, ok := pos[id]
		if !ok {
			t.Fatalf("light request %d pushed out of the window by the flood", id)
		}
		if at > 3 {
			t.Fatalf("light request %d at position %d, want near the front", id, at)
		}
	}
}

// TestRequeuePreservesTenantAndAttempts: a failed batch's requeue must keep
// tenant identity, the charged attempt counter, and the original arrival
// time — losing any of them would let a retry jump (or lose) its place.
func TestRequeuePreservesTenantAndAttempts(t *testing.T) {
	src := rng.New(10)
	s := fairServer(t, nil)
	if _, err := s.SubmitOpts(randTokens(src, 8), time.Minute, SubmitOptions{Tenant: "alpha", Class: fair.ClassInteractive}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	var p *pending
	for _, q := range s.queue {
		p = q
	}
	s.dispatch(p) // simulate selection
	arrival, queuedAt := p.req.Arrival, p.queued
	s.failAttempt(p, errors.New("engine exploded"), s.clock(), time.Now())
	back := s.queue[p.req.ID]
	s.mu.Unlock()
	if back == nil {
		t.Fatal("request not requeued")
	}
	if back.req.Tenant != "alpha" || back.class != fair.ClassInteractive {
		t.Fatalf("identity lost: tenant=%q class=%q", back.req.Tenant, back.class)
	}
	if back.attempts != 1 {
		t.Fatalf("attempts = %d, want 1", back.attempts)
	}
	if back.req.Arrival != arrival || !back.queued.Equal(queuedAt) {
		t.Fatal("arrival/queued time changed across requeue")
	}
	if back.notBefore == 0 {
		t.Fatal("requeue must carry backoff")
	}
}

// TestSubmitOptsClassDefaults: an SLO class supplies the weight and, when
// the caller passes no deadline, the deadline default.
func TestSubmitOptsClassDefaults(t *testing.T) {
	src := rng.New(11)
	s := fairServer(t, nil)
	if _, err := s.SubmitOpts(randTokens(src, 8), 0, SubmitOptions{Class: fair.ClassInteractive}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	var p *pending
	for _, q := range s.queue {
		p = q
	}
	s.mu.Unlock()
	cls := fair.DefaultClasses().Lookup(fair.ClassInteractive)
	if p.req.Weight != cls.Weight {
		t.Fatalf("weight = %g, want %g", p.req.Weight, cls.Weight)
	}
	window := p.req.Deadline - p.req.Arrival
	if want := cls.Deadline.Seconds(); window < want*0.9 || window > want*1.1 {
		t.Fatalf("deadline window = %gs, want ~%gs", window, want)
	}
}

// TestHTTPTenantThrottle429: the shared front charges its injected Admit
// once per request, by input length under the X-Tenant identity; a refusal is
// 429 + Retry-After and never reaches the server.
func TestHTTPTenantThrottle429(t *testing.T) {
	reg := fair.NewRegistry(fair.TenantConfig{Name: "meter", BucketRate: 1, BucketBurst: 8})
	lim := fair.NewLimiter(reg)
	srv, _ := testServer(t, sched.NewDAS())
	srv.Start()
	ts := httptest.NewServer(NewFrontHandler(Front{
		Submit: srv.SubmitOpts,
		Admit:  lim.Take,
		Stats:  func() any { return srv.Stats() },
		Health: func() (any, bool) { return srv.Health(), true },
	}))
	t.Cleanup(func() { ts.Close(); srv.Stop() })

	post := func(tenant string, n int) *http.Response {
		body, _ := json.Marshal(InferRequest{Tokens: randTokens(rng.New(12), n), DeadlineMS: 5000})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set(TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := post("meter", 8); resp.StatusCode != http.StatusOK {
		t.Fatalf("first take: status %d", resp.StatusCode)
	}
	resp := post("meter", 8)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained bucket: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	// Default tenant (no header) is not limited by meter's empty bucket.
	if resp := post("", 8); resp.StatusCode != http.StatusOK {
		t.Fatalf("default tenant: status %d", resp.StatusCode)
	}
	if c := lim.Counts()["meter"]; c.Allowed != 1 || c.Throttled != 1 {
		t.Fatalf("meter admission counts = %+v, want 1 allowed 1 throttled", c)
	}
	st := srv.Stats()
	if st.Tenants["meter"].Admitted != 1 || st.Tenants[fair.DefaultTenant].Admitted != 1 {
		t.Fatalf("the throttled request reached the server: %+v", st.Tenants)
	}
}

// TestFairServesBothTenantsLive: end-to-end smoke — a fair server under a
// two-tenant mix delivers work for both and reports a sane Jain index.
func TestFairServesBothTenantsLive(t *testing.T) {
	src := rng.New(13)
	s := fairServer(t, nil)
	s.Start()
	defer s.Stop()

	var chans []<-chan Response
	for i := 0; i < 8; i++ {
		tenant := "a"
		if i%2 == 1 {
			tenant = "b"
		}
		ch, err := s.SubmitOpts(randTokens(src, 6), 10*time.Second,
			SubmitOptions{Tenant: tenant, Class: fair.ClassStandard})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Err != nil {
				t.Fatalf("request %d: %v", i, r.Err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("request %d timed out", i)
		}
	}
	st := s.Stats()
	if st.Tenants["a"].Delivered != 4 || st.Tenants["b"].Delivered != 4 {
		t.Fatalf("deliveries = %+v", st.Tenants)
	}
	if st.JainGoodput < 0.99 {
		t.Fatalf("Jain = %g for an even split", st.JainGoodput)
	}
	if st.ClassP99MS[fair.ClassStandard] <= 0 {
		t.Fatalf("class P99 missing: %+v", st.ClassP99MS)
	}
}
