package prefixcache

import (
	"fmt"
	"sync"
	"testing"

	"tcb/internal/gpu"
	"tcb/internal/model"
	"tcb/internal/rng"
	"tcb/internal/tensor"
)

// fakeState builds a plausible frozen state for an n-token prefix: encoder
// rows plus one decoder layer of cross K/V, all n × d. Entry cost is
// 3·n·d·4 bytes.
func fakeState(n, d int) (*tensor.Matrix, *model.PrefixKV) {
	enc := tensor.New(n, d)
	kv := &model.PrefixKV{Len: n, Layers: []model.PrefixLayerKV{
		{K: tensor.New(n, d), V: tensor.New(n, d)},
	}}
	return enc, kv
}

func entryBytes(n, d int) int64 { return int64(3 * n * d * 4) }

func TestMissInsertHit(t *testing.T) {
	c := New(0, nil)
	toks := []int{3, 4, 5, 6, 7}

	if h := c.Acquire(toks, 4); h.Valid() {
		t.Fatal("empty cache must miss")
	}
	enc, kv := fakeState(4, 8)
	if !c.Insert(toks, 4, enc, kv) {
		t.Fatal("insert into empty cache must succeed")
	}
	h := c.Acquire(toks, 4)
	if !h.Valid() || h.Len() != 4 {
		t.Fatalf("resident prefix must hit with Len 4, got valid=%v len=%d", h.Valid(), h.Len())
	}
	// A hit must hand back the exact frozen state, not a copy: the engine
	// splices these matrices into the batch.
	if h.Enc() != enc || h.KV() != kv {
		t.Fatal("hit must return the inserted matrices themselves")
	}
	// Peek is the engine's non-counting view of the same state.
	penc, pkv, ok := c.Peek(toks, 4)
	if !ok || penc != enc || pkv != kv {
		t.Fatal("Peek must see the same frozen state")
	}
	if !c.Contains(toks, 4) {
		t.Fatal("Contains must report the resident prefix")
	}
	h.Release()

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("want 1 hit / 1 miss / 1 insert, got %+v", st)
	}
	if st.TokensSaved != 4 {
		t.Fatalf("a 4-token hit saves 4 tokens, got %d", st.TokensSaved)
	}
	if st.Entries != 1 || st.ResidentBytes != entryBytes(4, 8) {
		t.Fatalf("want 1 entry of %d bytes, got %d of %d", entryBytes(4, 8), st.Entries, st.ResidentBytes)
	}
	if st.HitRate != 0.5 {
		t.Fatalf("hit rate = %g, want 0.5", st.HitRate)
	}
}

func TestInsertRejectsMalformedState(t *testing.T) {
	c := New(0, nil)
	toks := []int{1, 2, 3}
	enc, kv := fakeState(3, 8)
	for name, ok := range map[string]bool{
		"n=0":         c.Insert(toks, 0, enc, kv),
		"n>len":       c.Insert(toks, 4, enc, kv),
		"nil enc":     c.Insert(toks, 3, nil, kv),
		"nil kv":      c.Insert(toks, 3, enc, nil),
		"short enc":   c.Insert(toks, 3, tensor.New(2, 8), kv),
		"kv len skew": c.Insert(toks, 3, enc, &model.PrefixKV{Len: 2}),
	} {
		if ok {
			t.Errorf("%s: malformed insert must be refused", name)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Inserts != 0 {
		t.Fatalf("malformed inserts must leave the cache empty, got %+v", st)
	}
}

func TestInsertIdempotent(t *testing.T) {
	c := New(0, nil)
	toks := []int{9, 8, 7}
	enc, kv := fakeState(3, 4)
	if !c.Insert(toks, 3, enc, kv) {
		t.Fatal("first insert must succeed")
	}
	enc2, kv2 := fakeState(3, 4)
	if !c.Insert(toks, 3, enc2, kv2) {
		t.Fatal("re-insert of a resident prefix must report resident")
	}
	st := c.Stats()
	if st.Inserts != 1 || st.Entries != 1 || st.ResidentBytes != entryBytes(3, 4) {
		t.Fatalf("re-insert must be a no-op, got %+v", st)
	}
	// The original frozen state survives (they are bitwise identical by
	// construction, but pointer identity proves no churn).
	if h := c.Acquire(toks, 3); h.Enc() != enc {
		t.Fatal("re-insert must not replace the resident entry")
	}
}

func TestExactLengthMatchOnly(t *testing.T) {
	c := New(0, nil)
	toks := []int{5, 5, 5, 5}
	enc, kv := fakeState(4, 4)
	c.Insert(toks, 4, enc, kv)
	// The 3-token prefix of a resident 4-token prefix is NOT resident: its
	// trie vertex exists but holds no entry.
	if h := c.Acquire(toks, 3); h.Valid() {
		t.Fatal("shorter prefix of a resident entry must miss")
	}
	// Both lengths can be resident independently.
	enc3, kv3 := fakeState(3, 4)
	c.Insert(toks, 3, enc3, kv3)
	h3, h4 := c.Acquire(toks, 3), c.Acquire(toks, 4)
	if h3.Enc() != enc3 || h4.Enc() != enc {
		t.Fatal("nested prefixes must resolve to their own entries")
	}
	h3.Release()
	h4.Release()
}

func TestBudgetEvictsLRU(t *testing.T) {
	// Room for exactly two 4×4 entries.
	c := New(2*entryBytes(4, 4), nil)
	a, b, d := []int{1, 1, 1, 1}, []int{2, 2, 2, 2}, []int{3, 3, 3, 3}
	ea, kva := fakeState(4, 4)
	eb, kvb := fakeState(4, 4)
	ed, kvd := fakeState(4, 4)
	c.Insert(a, 4, ea, kva)
	c.Insert(b, 4, eb, kvb)
	// Refresh a: b becomes the LRU victim.
	h := c.Acquire(a, 4)
	h.Release()
	if !c.Insert(d, 4, ed, kvd) {
		t.Fatal("insert over budget must evict the LRU entry and succeed")
	}
	if c.Contains(b, 4) {
		t.Fatal("least-recently-hit entry must be the one evicted")
	}
	if !c.Contains(a, 4) || !c.Contains(d, 4) {
		t.Fatal("refreshed and new entries must stay resident")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.ResidentBytes != 2*entryBytes(4, 4) {
		t.Fatalf("want 1 eviction and 2 resident entries, got %+v", st)
	}
}

func TestPinnedEntriesSurviveEviction(t *testing.T) {
	c := New(2*entryBytes(4, 4), nil)
	a, b, d := []int{1, 1, 1, 1}, []int{2, 2, 2, 2}, []int{3, 3, 3, 3}
	ea, kva := fakeState(4, 4)
	eb, kvb := fakeState(4, 4)
	ed, kvd := fakeState(4, 4)
	c.Insert(a, 4, ea, kva)
	c.Insert(b, 4, eb, kvb)
	ha, hb := c.Acquire(a, 4), c.Acquire(b, 4)

	// Every resident entry is pinned: the insert must be refused, never
	// block, and never evict under a live segment.
	if c.Insert(d, 4, ed, kvd) {
		t.Fatal("insert must be rejected while every candidate victim is pinned")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Evictions != 0 {
		t.Fatalf("want 1 rejection and 0 evictions, got %+v", st)
	}
	if !c.Contains(a, 4) || !c.Contains(b, 4) {
		t.Fatal("pinned entries must survive")
	}

	// Releasing one pin frees a victim; double-release must not free two.
	ha.Release()
	ha.Release()
	if !c.Insert(d, 4, ed, kvd) {
		t.Fatal("insert must succeed once a victim is unpinned")
	}
	if c.Contains(a, 4) {
		t.Fatal("the unpinned entry must be the victim")
	}
	if !c.Contains(b, 4) {
		t.Fatal("the still-pinned entry must survive")
	}
	hb.Release()
}

func TestMemoryManagerBalances(t *testing.T) {
	mem := gpu.NewMemoryManager(0)
	c := New(0, mem)
	src := rng.New(7)
	for i := 0; i < 10; i++ {
		toks := make([]int, 6)
		for j := range toks {
			toks[j] = src.Intn(50)
		}
		enc, kv := fakeState(6, 8)
		c.Insert(toks, 6, enc, kv)
	}
	st := c.Stats()
	if mem.Used() != st.ResidentBytes {
		t.Fatalf("ledger %d bytes vs cache %d", mem.Used(), st.ResidentBytes)
	}
	if n := c.Clear(); n != st.Entries {
		t.Fatalf("Clear removed %d entries, want %d", n, st.Entries)
	}
	if mem.Used() != 0 || mem.Outstanding() != 0 {
		t.Fatalf("ledger must balance to zero after Clear: %d bytes, %d outstanding",
			mem.Used(), mem.Outstanding())
	}
	if st := c.Stats(); st.Entries != 0 || st.ResidentBytes != 0 {
		t.Fatalf("cache must be empty after Clear, got %+v", st)
	}
}

func TestCapacityRejectionBalances(t *testing.T) {
	// Device capacity fits one entry, not two; the cache holds no budget of
	// its own, so the manager is the limit.
	mem := gpu.NewMemoryManager(entryBytes(4, 4) + entryBytes(4, 4)/2)
	c := New(0, mem)
	a, b := []int{1, 2, 3, 4}, []int{5, 6, 7, 8}
	ea, kva := fakeState(4, 4)
	eb, kvb := fakeState(4, 4)
	if !c.Insert(a, 4, ea, kva) {
		t.Fatal("first entry fits")
	}
	h := c.Acquire(a, 4) // pin: eviction cannot make room
	if c.Insert(b, 4, eb, kvb) {
		t.Fatal("second entry must be rejected at device capacity with the first pinned")
	}
	h.Release()
	if !c.Insert(b, 4, eb, kvb) {
		t.Fatal("second entry must fit after evicting the unpinned first")
	}
	st := c.Stats()
	if st.Rejected != 1 || st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("want 1 rejection, 1 eviction, 1 entry, got %+v", st)
	}
	c.Clear()
	if mem.Used() != 0 || mem.Outstanding() != 0 {
		t.Fatal("ledger must balance after rejection + eviction + clear")
	}
}

func TestClearDropsPins(t *testing.T) {
	mem := gpu.NewMemoryManager(0)
	c := New(0, mem)
	toks := []int{4, 4, 4}
	enc, kv := fakeState(3, 4)
	c.Insert(toks, 3, enc, kv)
	h := c.Acquire(toks, 3)
	if n := c.Clear(); n != 1 {
		t.Fatalf("Clear must drop the pinned entry at teardown, removed %d", n)
	}
	if mem.Used() != 0 || mem.Outstanding() != 0 {
		t.Fatal("ledger must balance even when Clear drops a pin")
	}
	h.Release() // late release of a cleared entry must be harmless
}

func TestWarmAcquireAllocsFree(t *testing.T) {
	c := New(0, nil)
	toks := []int{10, 11, 12, 13, 14, 15, 16, 17}
	enc, kv := fakeState(8, 16)
	c.Insert(toks, 8, enc, kv)
	allocs := testing.AllocsPerRun(100, func() {
		h := c.Acquire(toks, 8)
		h.Release()
	})
	if allocs != 0 {
		t.Fatalf("warm Acquire/Release allocated %.1f times per run, want 0", allocs)
	}
}

// TestChaosRefcountEviction hammers the cache from many goroutines — pin,
// release, insert over a tight budget, periodic Clear — and checks the
// invariants that matter under -race: no pinned entry is ever evicted under
// its holder (the handle's frozen state stays usable), and the memory
// ledger balances to zero at the end.
func TestChaosRefcountEviction(t *testing.T) {
	mem := gpu.NewMemoryManager(0)
	c := New(6*entryBytes(4, 8), mem) // room for ~6 of 16 prefixes: constant churn
	prefixes := make([][]int, 16)
	src := rng.New(99)
	for i := range prefixes {
		toks := make([]int, 4)
		for j := range toks {
			toks[j] = src.Intn(40)
		}
		prefixes[i] = toks
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < 400; i++ {
				p := prefixes[r.Intn(len(prefixes))]
				switch r.Intn(10) {
				case 0: // teardown mid-traffic
					c.Clear()
				case 1, 2, 3: // miss-then-insert, as the engine does post-encode
					if h := c.Acquire(p, 4); h.Valid() {
						if h.Len() != 4 || h.Enc() == nil || h.KV() == nil {
							t.Error("pinned entry lost its frozen state")
						}
						h.Release()
					} else {
						enc, kv := fakeState(4, 8)
						c.Insert(p, 4, enc, kv)
					}
				default: // plain pinned read
					h := c.Acquire(p, 4)
					if h.Valid() && h.Enc().Rows != 4 {
						t.Error("frozen rows corrupted under churn")
					}
					h.Release()
					h.Release() // double release must stay safe under races
				}
			}
		}(uint64(100 + g))
	}
	wg.Wait()
	c.Clear()
	if mem.Used() != 0 || mem.Outstanding() != 0 {
		t.Fatalf("ledger out of balance after chaos: %d bytes, %d outstanding",
			mem.Used(), mem.Outstanding())
	}
	st := c.Stats()
	if st.Entries != 0 || st.ResidentBytes != 0 {
		t.Fatalf("cache not empty after final Clear: %+v", st)
	}
	if st.Hits+st.Misses == 0 || st.Inserts == 0 {
		t.Fatalf("chaos exercised nothing: %+v", st)
	}
}

// FuzzTrieResidency cross-checks the trie against a map model: after an
// arbitrary interleaving of inserts and acquires over short token strings,
// every prefix the model says was inserted (and never evicted — the fuzz
// cache is unbounded) must hit, and everything else must miss.
func FuzzTrieResidency(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{9, 1, 9, 1, 9, 1, 2, 2, 2})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(0, nil)
		resident := map[string]bool{}
		for i := 0; i+1 < len(data); i += 2 {
			// Each op covers a 1–4 token prefix drawn from a 4-token alphabet,
			// so interleavings collide constantly.
			n := 1 + int(data[i]&3)
			toks := make([]int, n)
			v := data[i+1]
			for j := range toks {
				toks[j] = int(v>>uint(2*j)) & 3
			}
			// Key the model by the tokens themselves: bytes that differ only
			// above the low 2n bits spell the same prefix.
			key := fmt.Sprint(toks)
			if data[i]&4 == 0 {
				enc, kv := fakeState(n, 4)
				if !c.Insert(toks, n, enc, kv) {
					t.Fatalf("unbounded insert of %v failed", toks)
				}
				resident[key] = true
			} else {
				h := c.Acquire(toks, n)
				if h.Valid() != resident[key] {
					t.Fatalf("Acquire(%v) = %v, model says %v", toks, h.Valid(), resident[key])
				}
				h.Release()
			}
		}
	})
}

// Len returns the pinned prefix's length in tokens (0 for a zero Handle).
func (h Handle) Len() int {
	if h.e == nil {
		return 0
	}
	return h.e.length
}

// Enc returns the pinned prefix's frozen encoder output rows (read-only).
func (h Handle) Enc() *tensor.Matrix {
	if h.e == nil {
		return nil
	}
	return h.e.enc
}

// KV returns the pinned prefix's frozen cross-attention K/V (read-only).
func (h Handle) KV() *model.PrefixKV {
	if h.e == nil {
		return nil
	}
	return h.e.kv
}
