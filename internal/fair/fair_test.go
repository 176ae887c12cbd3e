package fair

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestWFQInterleavesFlooder: a flooder with 100 queued requests and a
// light tenant with 2 must drain light's head near the front — WFQ order
// puts the light tenant's requests before almost all of the flood.
func TestWFQInterleavesFlooder(t *testing.T) {
	w := NewWFQ(nil, nil)
	type stamped struct {
		tenant string
		f      float64
	}
	var all []stamped
	for i := 0; i < 100; i++ {
		all = append(all, stamped{"flood", w.Stamp("flood", 10)})
	}
	for i := 0; i < 2; i++ {
		all = append(all, stamped{"light", w.Stamp("light", 10)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].f < all[j].f })
	// Equal weights: light's two requests must appear within the first
	// four positions (behind at most one flood request each).
	pos := map[string][]int{}
	for i, s := range all {
		pos[s.tenant] = append(pos[s.tenant], i)
	}
	if pos["light"][1] > 3 {
		t.Fatalf("light tenant buried at positions %v", pos["light"])
	}
}

// TestWFQWeightsProportional: with weight 3 vs 1 and identical backlogs,
// the first 40 positions in virtual-time order should contain ~3× as many
// heavy-tenant requests.
func TestWFQWeightsProportional(t *testing.T) {
	weights := map[string]float64{"heavy": 3, "light": 1}
	w := NewWFQ(nil, func(name string) float64 { return weights[name] })
	type stamped struct {
		tenant string
		f      float64
	}
	var all []stamped
	for i := 0; i < 60; i++ {
		all = append(all, stamped{"heavy", w.Stamp("heavy", 10)})
		all = append(all, stamped{"light", w.Stamp("light", 10)})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].f < all[j].f })
	heavy := 0
	for _, s := range all[:40] {
		if s.tenant == "heavy" {
			heavy++
		}
	}
	if heavy < 27 || heavy > 33 { // ideal 30 of 40
		t.Fatalf("heavy got %d of first 40 slots, want ~30", heavy)
	}
}

// TestWFQIdleTenantNoBanking: a tenant idle while the clock advances must
// not accumulate credit — its first request after the idle spell starts at
// the current virtual clock, not at zero.
func TestWFQIdleTenantNoBanking(t *testing.T) {
	w := NewWFQ(nil, nil)
	// Busy tenant pushes the clock forward.
	for i := 0; i < 50; i++ {
		f := w.Stamp("busy", 10)
		w.Dispatched("busy", f)
	}
	clock := w.VClock()
	if clock <= 0 {
		t.Fatal("virtual clock did not advance")
	}
	f := w.Stamp("idle", 10)
	if f < clock {
		t.Fatalf("idle tenant stamped %g before the clock %g (banked credit)", f, clock)
	}
}

// TestWFQAbandonedReleasesHorizon: a tenant whose backlog all expires must
// not keep an inflated horizon once drained.
func TestWFQAbandonedReleasesHorizon(t *testing.T) {
	w := NewWFQ(nil, nil)
	for i := 0; i < 20; i++ {
		w.Stamp("doomed", 100)
	}
	for i := 0; i < 20; i++ {
		w.Abandoned("doomed")
	}
	if got := w.Backlog("doomed"); got != 0 {
		t.Fatalf("backlog = %d after full abandonment", got)
	}
	// Advance the clock past the abandoned horizon; the tenant's next
	// stamp must start at the clock, not its stale lastFinish.
	f := w.Stamp("other", 5000)
	w.Dispatched("other", f)
	g := w.Stamp("doomed", 10)
	if g < w.VClock() {
		t.Fatalf("abandoned tenant stamped %g before clock %g", g, w.VClock())
	}
}

// TestWFQConcurrentStamps: racing stamps/dispatches stay consistent (run
// under -race in CI).
func TestWFQConcurrentStamps(t *testing.T) {
	w := NewWFQ(nil, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%3)
			for i := 0; i < 200; i++ {
				f := w.Stamp(tenant, 7)
				if i%2 == 0 {
					w.Dispatched(tenant, f)
				} else {
					w.Abandoned(tenant)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 3; g++ {
		if b := w.Backlog(fmt.Sprintf("t%d", g)); b != 0 {
			t.Fatalf("tenant t%d backlog = %d after drain", g, b)
		}
	}
}

func TestBucketTakeAndRefill(t *testing.T) {
	b := NewBucket(100, 50) // 100 tokens/s, burst 50
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }

	if ok, _ := b.Take(50); !ok {
		t.Fatal("full bucket refused its burst")
	}
	ok, retry := b.Take(10)
	if ok {
		t.Fatal("empty bucket granted tokens")
	}
	if retry < time.Millisecond || retry > 200*time.Millisecond {
		t.Fatalf("retryAfter = %v, want ~100ms", retry)
	}
	now = now.Add(100 * time.Millisecond) // refills 10 tokens
	if ok, _ := b.Take(10); !ok {
		t.Fatal("bucket did not refill")
	}
	// Refill caps at burst.
	now = now.Add(time.Hour)
	if ok, _ := b.Take(50); !ok {
		t.Fatal("bucket did not cap refill at burst")
	}
	if ok, _ := b.Take(1); ok {
		t.Fatal("bucket exceeded burst")
	}
}

func TestBucketUnlimitedAndOversized(t *testing.T) {
	if ok, _ := NewBucket(0, 0).Take(1e9); !ok {
		t.Fatal("rate 0 must be unlimited")
	}
	var nilBucket *Bucket
	if ok, _ := nilBucket.Take(1); !ok {
		t.Fatal("nil bucket must be unlimited")
	}
	// A request larger than the burst still gets a finite retry estimate.
	b := NewBucket(10, 5)
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }
	b.Take(5)
	ok, retry := b.Take(100)
	if ok {
		t.Fatal("oversized take granted")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("oversized retryAfter = %v", retry)
	}
}

func TestLimiterProvisionsFromRegistry(t *testing.T) {
	reg := NewRegistry(TenantConfig{Name: "paid", BucketRate: 1000, BucketBurst: 1000})
	reg.DefaultRate, reg.DefaultBurst = 10, 10
	l := NewLimiter(reg)

	if ok, _ := l.Take("paid", 500); !ok {
		t.Fatal("paid tenant refused within burst")
	}
	// Unknown tenant gets the default 10-token bucket.
	if ok, _ := l.Take("stranger", 10); !ok {
		t.Fatal("stranger refused its default burst")
	}
	ok, retry := l.Take("stranger", 10)
	if ok {
		t.Fatal("stranger exceeded its default burst")
	}
	if retry <= 0 {
		t.Fatal("throttle must carry a retry hint")
	}
	c := l.Counts()
	if c["stranger"].Allowed != 1 || c["stranger"].Throttled != 1 {
		t.Fatalf("stranger counts = %+v", c["stranger"])
	}
	if c["paid"].Throttled != 0 {
		t.Fatalf("paid throttled = %d", c["paid"].Throttled)
	}
	// Nil limiter is a no-op front.
	var nl *Limiter
	if ok, _ := nl.Take("x", 1); !ok {
		t.Fatal("nil limiter must admit")
	}
}

func TestParseTenants(t *testing.T) {
	ts, err := ParseTenants("free:1:200:400, premium:4 , bulk")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("parsed %d tenants", len(ts))
	}
	if ts[0].Name != "free" || ts[0].Weight != 1 || ts[0].BucketRate != 200 || ts[0].BucketBurst != 400 {
		t.Fatalf("free = %+v", ts[0])
	}
	if ts[1].Name != "premium" || ts[1].Weight != 4 || ts[1].BucketRate != 0 {
		t.Fatalf("premium = %+v", ts[1])
	}
	if ts[2].Name != "bulk" || ts[2].Weight != 0 {
		t.Fatalf("bulk = %+v", ts[2])
	}
	for _, bad := range []string{"a:b", "x:-1", "x:1:nope", "x:1:1:nope", ":2", "a:1:2:3:4"} {
		if _, err := ParseTenants(bad); err == nil {
			t.Fatalf("ParseTenants(%q) accepted", bad)
		}
	}
	if ts, err := ParseTenants("  "); err != nil || ts != nil {
		t.Fatalf("blank spec = %v, %v", ts, err)
	}
}

func TestRegistryLookupDefaults(t *testing.T) {
	reg := NewRegistry(TenantConfig{Name: "a", Weight: 2})
	reg.DefaultRate, reg.DefaultBurst = 7, 14
	if got := reg.Weight("a"); got != 2 {
		t.Fatalf("weight a = %g", got)
	}
	if got := reg.Weight("unknown"); got != 1 {
		t.Fatalf("weight unknown = %g", got)
	}
	cfg := reg.Lookup("a")
	if cfg.BucketRate != 7 || cfg.BucketBurst != 14 {
		t.Fatalf("registered tenant missing default buckets: %+v", cfg)
	}
	if got := reg.Lookup(""); got.Name != DefaultTenant {
		t.Fatalf("empty lookup = %+v", got)
	}
	var nilReg *Registry
	if got := nilReg.Lookup("x"); got.normWeight() != 1 {
		t.Fatalf("nil registry lookup = %+v", got)
	}
	if names := nilReg.Names(); names != nil {
		t.Fatalf("nil registry names = %v", names)
	}
}

func TestParseClasses(t *testing.T) {
	s, err := ParseClasses("gold:8:100ms,bronze:0.5:4s")
	if err != nil {
		t.Fatal(err)
	}
	if c := s.Lookup("gold"); c.Weight != 8 || c.Deadline != 100*time.Millisecond {
		t.Fatalf("gold = %+v", c)
	}
	// Unknown class degrades to weight 1.
	if c := s.Lookup("mystery"); c.Weight != 1 {
		t.Fatalf("mystery = %+v", c)
	}
	// Defaults come back for empty specs.
	d, err := ParseClasses("")
	if err != nil {
		t.Fatal(err)
	}
	if c := d.Lookup(ClassInteractive); c.Weight != 4 {
		t.Fatalf("interactive = %+v", c)
	}
	if c := d.Lookup(""); c.Name != ClassStandard {
		t.Fatalf("default class = %+v", c)
	}
	for _, bad := range []string{"x:1", "x:0:1s", "x:1:0s", "x:1:soon"} {
		if _, err := ParseClasses(bad); err == nil {
			t.Fatalf("ParseClasses(%q) accepted", bad)
		}
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal alloc index = %g", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("one-taker index = %g", got)
	}
	if got := JainIndex(nil); got != 1 {
		t.Fatalf("empty index = %g", got)
	}
	if got := JainIndexMap(map[string]int64{"a": 3, "b": 3}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("map index = %g", got)
	}
}

// VClock returns the current virtual clock (tests and introspection).
func (w *WFQ) VClock() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.vclock
}
