package serve

import (
	"testing"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/gpu"
	"tcb/internal/model"
	"tcb/internal/prefixcache"
	"tcb/internal/rng"
	"tcb/internal/sched"
)

// prefixTestBytes is one resident entry's cost at the test model's DModel=32
// with one decoder layer: encoder rows (p×32×4) plus cross K and V
// (2×p×32×4 each... K and V together 2·p·32·4), i.e. 3·p·32·4 = 384·p.
func prefixTestBytes(p int) int64 { return int64(3 * p * 32 * 4) }

// prefixServeWorkload builds a fixed shared-prompt request set: two pooled
// 12-token prefixes, 12 requests alternating between them with distinct
// 2–6-token suffixes, every prefix declared.
func prefixServeWorkload(seed uint64) (reqs [][]int, decl []int) {
	src := rng.New(seed)
	pool := [][]int{randTokens(src, 12), randTokens(src, 12)}
	for i := 0; i < 12; i++ {
		p := pool[i%2]
		r := append(append([]int{}, p...), randTokens(src, src.IntRange(2, 6))...)
		reqs = append(reqs, r)
		decl = append(decl, len(p))
	}
	return reqs, decl
}

// runPrefixMode serves the workload on a fresh server over m and returns the
// per-request outputs. With cache set, the prefix cache is backed by its own
// memory ledger, which must balance to zero after Stop.
func runPrefixMode(t *testing.T, m *model.Model, reqs [][]int, decl []int, cache, refill, pipeline bool) ([][]int, Stats) {
	t.Helper()
	eng := engine.New(m, 3)
	var pc *prefixcache.Cache
	var mem *gpu.MemoryManager
	if cache {
		mem = gpu.NewMemoryManager(0)
		pc = prefixcache.New(0, mem)
		eng.PrefixCache = pc
	}
	s, err := New(Config{
		Engine: eng, Scheduler: sched.FCFS{}, Scheme: batch.Concat,
		B: 4, L: 64, Poll: 200 * time.Microsecond,
		QueueCap: len(reqs), Refill: refill, Pipeline: pipeline,
		PrefixCache: pc,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	outs := make([][]int, len(reqs))
	submit := func(i int) <-chan Response {
		ch, err := s.SubmitOpts(reqs[i], 10*time.Second, SubmitOptions{PrefixLen: decl[i]})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		return ch
	}
	receive := func(i int, ch <-chan Response) {
		resp := <-ch
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		outs[i] = resp.Output
	}
	// Hit or miss is decided at submit time, so the first request of each
	// pooled prompt is served to completion (freezing the prefix) before
	// the rest are queued — they then all pin the resident entries.
	for i := 0; i < 2; i++ {
		receive(i, submit(i))
	}
	chans := make([]<-chan Response, len(reqs))
	for i := 2; i < len(reqs); i++ {
		chans[i] = submit(i)
	}
	s.Drain()
	for i := 2; i < len(reqs); i++ {
		receive(i, chans[i])
	}
	st := s.Stats()
	s.Stop()
	if mem != nil && (mem.Used() != 0 || mem.Outstanding() != 0) {
		t.Fatalf("prefix ledger out of balance after Stop: %d bytes, %d outstanding",
			mem.Used(), mem.Outstanding())
	}
	return outs, st
}

// TestPrefixServeEquality is the end-to-end exactness contract: the same
// declared-prefix workload must produce bitwise-identical outputs with and
// without the cache, in plain, refill, pipelined and refill+pipelined
// serving — a hit changes when an answer arrives, never what it says.
func TestPrefixServeEquality(t *testing.T) {
	cfg := model.Config{
		VocabSize: testVocab, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 256, Eps: 1e-5,
	}
	m := model.New(cfg, 21)
	reqs, decl := prefixServeWorkload(31)
	base, baseSt := runPrefixMode(t, m, reqs, decl, false, false, false)
	if baseSt.PrefixEnabled {
		t.Fatal("no-cache server must not report a prefix cache")
	}
	for _, mode := range []struct {
		name             string
		refill, pipeline bool
	}{
		{"plain", false, false},
		{"refill", true, false},
		{"pipeline", false, true},
		{"refill+pipeline", true, true},
	} {
		outs, st := runPrefixMode(t, m, reqs, decl, true, mode.refill, mode.pipeline)
		for i := range outs {
			if len(outs[i]) != len(base[i]) {
				t.Fatalf("%s: request %d output length %d vs %d", mode.name, i, len(outs[i]), len(base[i]))
			}
			for j := range outs[i] {
				if outs[i][j] != base[i][j] {
					t.Fatalf("%s: request %d token %d: %d vs %d", mode.name, i, j, outs[i][j], base[i][j])
				}
			}
		}
		if !st.PrefixEnabled {
			t.Fatalf("%s: cached server must report PrefixEnabled", mode.name)
		}
		if st.Prefix.Hits == 0 {
			t.Fatalf("%s: shared-prompt workload produced no cache hits: %+v", mode.name, st.Prefix)
		}
		// Entries is 0 here: Drain already cleared the cache at loop exit.
		if st.Prefix.Inserts == 0 || st.Prefix.Entries != 0 {
			t.Fatalf("%s: want frozen inserts and a drained cache: %+v", mode.name, st.Prefix)
		}
	}
}

// TestPrefixPinsReleasedAfterDelivery proves the admission pin's lifecycle
// through eviction: with a budget of one entry, a second shared prompt can
// only become resident by evicting the first — which requires every pin
// taken on it to have been released at its requests' terminal outcomes.
func TestPrefixPinsReleasedAfterDelivery(t *testing.T) {
	cfg := model.Config{
		VocabSize: testVocab, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 256, Eps: 1e-5,
	}
	m := model.New(cfg, 22)
	eng := engine.New(m, 3)
	mem := gpu.NewMemoryManager(0)
	pc := prefixcache.New(prefixTestBytes(12)+prefixTestBytes(12)/2, mem)
	eng.PrefixCache = pc
	s, err := New(Config{
		Engine: eng, Scheduler: sched.FCFS{}, Scheme: batch.Concat,
		B: 4, L: 64, Poll: 200 * time.Microsecond, PrefixCache: pc,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()

	src := rng.New(41)
	a, b := randTokens(src, 12), randTokens(src, 12)
	serveOne := func(prefix []int) {
		t.Helper()
		r := append(append([]int{}, prefix...), randTokens(src, 4)...)
		ch, err := s.SubmitOpts(r, 10*time.Second, SubmitOptions{PrefixLen: 12})
		if err != nil {
			t.Fatal(err)
		}
		if resp := <-ch; resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	serveOne(a) // cold: freezes a
	serveOne(a) // hit on a
	if st := pc.Stats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("want 1 hit on 1 resident entry, got %+v", st)
	}
	// The pin is released just after the response send; give the loop that
	// instant before demanding a's slot back.
	time.Sleep(100 * time.Millisecond)
	serveOne(b) // cold: must evict a — only possible with a's pins released
	if st := pc.Stats(); st.Evictions != 1 || st.Rejected != 0 || st.Entries != 1 {
		t.Fatalf("second prompt must evict the first, not be rejected: %+v", st)
	}
	if pc.Contains(a, 12) || !pc.Contains(b, 12) {
		t.Fatal("resident entry must now be b")
	}
}

// TestPrefixSubmitValidation: a declared prefix must leave a non-empty
// suffix, and a declaration without a cache still serves correctly (the
// engine simply encodes prefix and suffix as two exact segments).
func TestPrefixSubmitValidation(t *testing.T) {
	s, e := testServer(t, sched.FCFS{})
	s.Start()
	defer s.Stop()

	src := rng.New(51)
	toks := randTokens(src, 8)
	if _, err := s.SubmitOpts(toks, time.Second, SubmitOptions{PrefixLen: 8}); err == nil {
		t.Fatal("declared prefix covering the whole request must be rejected")
	}
	if _, err := s.SubmitOpts(toks, time.Second, SubmitOptions{PrefixLen: -1}); err == nil {
		t.Fatal("negative declared prefix must be rejected")
	}
	ch, err := s.SubmitOpts(toks, 10*time.Second, SubmitOptions{PrefixLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	resp := <-ch
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	solo, err := e.RunSingle(9000, toks)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Output) != len(solo.Output) {
		t.Fatalf("declared-without-cache output length %d vs solo %d", len(resp.Output), len(solo.Output))
	}
	for i := range solo.Output {
		if resp.Output[i] != solo.Output[i] {
			t.Fatalf("declared-without-cache output differs at %d: %d vs %d", i, resp.Output[i], solo.Output[i])
		}
	}
}

// TestPrefixStatsCountEngineResolutions: Stats.Prefix reports the prefixes
// the engine resolved without encoding after the Submit-time lookup missed.
// Every request is queued cold before the loop starts. The first launch
// seats the first prompt's requests and freezes that prompt, so the queued
// requests of the same prompt admitted mid-flight are late hits; the other
// prompt is never in a launch row, so an admission round that takes several
// of its requests encodes it once and the others share that encode.
func TestPrefixStatsCountEngineResolutions(t *testing.T) {
	cfg := model.Config{
		VocabSize: testVocab, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 256, Eps: 1e-5,
	}
	const prefixLen = 12
	src := rng.New(34)
	pool := [][]int{randTokens(src, prefixLen), randTokens(src, prefixLen)}
	var reqs [][]int
	for i := 0; i < 12; i++ {
		p := pool[min(i/6, 1)] // six of the first prompt, then six of the second
		reqs = append(reqs, append(append([]int{}, p...), randTokens(src, 3)...))
	}
	eng := engine.New(model.New(cfg, 23), 3)
	pc := prefixcache.New(0, nil)
	eng.PrefixCache = pc
	s, err := New(Config{
		Engine: eng, Scheduler: sched.FCFS{}, Scheme: batch.Concat,
		B: 1, L: 4 * (prefixLen + 3), Poll: 200 * time.Microsecond,
		QueueCap: len(reqs), Refill: true, PrefixCache: pc,
	})
	if err != nil {
		t.Fatal(err)
	}
	chans := make([]<-chan Response, len(reqs))
	for i, r := range reqs {
		if chans[i], err = s.SubmitOpts(r, 10*time.Second, SubmitOptions{PrefixLen: prefixLen}); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	s.Drain()
	for i, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
	}
	st := s.Stats().Prefix
	s.Stop()
	if st.Hits != 0 {
		t.Fatalf("every request was queued cold, yet %d hit at Submit", st.Hits)
	}
	if st.LateHits == 0 || st.RoundShared == 0 ||
		st.LateTokensSaved != prefixLen*st.LateHits || st.RoundSharedTokensSaved != prefixLen*st.RoundShared {
		t.Fatalf("want late hits and same-round shares, each saving a %d-token prefix: %+v", prefixLen, st)
	}
}
