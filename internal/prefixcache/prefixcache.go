// Package prefixcache is the shared-prompt prefix KV cache: a
// reference-counted, byte-budgeted trie over token prefixes mapping each
// declared prefix to its frozen encoder output rows and per-decoder-layer
// cross-attention K/V (model.PrefixKV).
//
// Exactness comes from the model layer, not from here: separate positional
// encoding per segment (§4.1.1) makes a declared prefix's encoder rows a
// function of its own tokens alone, so the frozen rows a hit replays are
// bitwise identical to the rows a cold encode would produce. The cache is
// therefore free to hit or miss arbitrarily — outputs never change, only
// the work to produce them.
//
// Lifecycle: the serving layer Acquires (pins) an entry at admission and
// Releases it at the request's terminal outcome — delivery, deadline miss,
// failure, shed, or server teardown — so an entry backing an in-flight
// segment can never be evicted under it (the prefix-cache analogue of
// §4.2.2's rule that early cleaning must not free slots another live segment
// still references). Eviction is LRU by last hit and only ever considers
// entries with zero pins; resident bytes are charged per entry against an
// optional gpu.MemoryManager so device accounting balances to zero when the
// cache is cleared at drain.
package prefixcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tcb/internal/gpu"
	"tcb/internal/model"
	"tcb/internal/tensor"
)

// Cache is safe for concurrent use by the serving layer and engine.
type Cache struct {
	mu     sync.Mutex
	root   *node
	budget int64 // resident-byte budget; <= 0 means unbounded
	mem    *gpu.MemoryManager

	// LRU by last hit: head is most recently hit, tail the eviction victim.
	head, tail *entry

	used    int64
	entries int

	hits, misses, inserts, evictions, rejected, tokensSaved int64
}

// node is one trie vertex; the edge from its parent is labelled tok.
type node struct {
	parent   *node
	tok      int
	children map[int]*node
	e        *entry
}

// entry is one cached prefix.
type entry struct {
	c          *Cache
	n          *node
	length     int // prefix length in tokens
	enc        *tensor.Matrix
	kv         *model.PrefixKV
	bytes      int64
	tag        string
	refs       int
	prev, next *entry
}

// memSeq numbers cache entries process-wide for memory-manager tags.
var memSeq atomic.Int64

// New returns a cache with the given resident-byte budget (<= 0 means
// unbounded). mem, when non-nil, is charged one allocation per resident
// entry, so device accounting covers the cache alongside batch launches.
func New(budget int64, mem *gpu.MemoryManager) *Cache {
	return &Cache{budget: budget, mem: mem, root: &node{children: make(map[int]*node)}}
}

// Handle is a pin on a cache entry. The zero Handle is a miss. Each Handle
// must be Released exactly once by its owner; Release on a zero or
// already-released Handle is a no-op.
type Handle struct {
	e *entry
}

// Valid reports whether the handle pins an entry (i.e. the lookup hit).
func (h Handle) Valid() bool { return h.e != nil }

// Release drops the pin. Idempotent through the receiving pointer: the
// handle forgets its entry on first release.
func (h *Handle) Release() {
	if h == nil || h.e == nil {
		return
	}
	e := h.e
	h.e = nil
	c := e.c
	c.mu.Lock()
	if e.refs > 0 {
		e.refs--
	}
	c.mu.Unlock()
}

// Acquire looks up tokens[:n] and, on an exact match, pins the entry and
// returns its handle; the zero Handle reports a miss. A hit refreshes the
// entry's LRU position and counts n tokens saved (the encoder work the hit
// avoids). The warm path performs no heap allocations.
func (c *Cache) Acquire(tokens []int, n int) Handle {
	if n <= 0 || n > len(tokens) {
		return Handle{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	nd := c.root
	for i := 0; i < n; i++ {
		next := nd.children[tokens[i]]
		if next == nil {
			c.misses++
			return Handle{}
		}
		nd = next
	}
	e := nd.e
	if e == nil || e.length != n {
		c.misses++
		return Handle{}
	}
	c.hits++
	c.tokensSaved += int64(n)
	e.refs++
	c.lruFront(e)
	return Handle{e: e}
}

// Contains reports whether tokens[:n] is resident, without pinning or
// touching the LRU order or hit/miss counters.
func (c *Cache) Contains(tokens []int, n int) bool {
	_, _, ok := c.Peek(tokens, n)
	return ok
}

// Peek returns the frozen state of tokens[:n] without pinning, counting or
// LRU-refreshing — the engine's lookup for items whose pin the serving
// layer already holds. The returned matrices are read-only and stay valid
// (immutable, never recycled) even past eviction; only the byte accounting
// ends at eviction.
func (c *Cache) Peek(tokens []int, n int) (*tensor.Matrix, *model.PrefixKV, bool) {
	if n <= 0 || n > len(tokens) {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	nd := c.root
	for i := 0; i < n; i++ {
		if nd = nd.children[tokens[i]]; nd == nil {
			return nil, nil, false
		}
	}
	if nd.e == nil || nd.e.length != n {
		return nil, nil, false
	}
	return nd.e.enc, nd.e.kv, true
}

// Insert stores the frozen state of tokens[:n]. enc must be the prefix's own
// encoder output (n rows; the cache takes ownership) and kv its built
// PrefixKV. Inserting an already-resident prefix is a no-op (the frozen
// values are bitwise identical by construction). When the byte budget or the
// memory manager's capacity cannot fit the entry even after evicting every
// unpinned one, the insert is rejected and counted; the cache never blocks
// and never evicts a pinned entry. Returns whether the prefix is resident
// after the call.
func (c *Cache) Insert(tokens []int, n int, enc *tensor.Matrix, kv *model.PrefixKV) bool {
	if n <= 0 || n > len(tokens) || enc == nil || enc.Rows != n || kv == nil || kv.Len != n {
		return false
	}
	bytes := int64(enc.Rows*enc.Cols)*4 + kv.Bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	nd := c.root
	for i := 0; i < n; i++ {
		next := nd.children[tokens[i]]
		if next == nil {
			next = &node{parent: nd, tok: tokens[i], children: make(map[int]*node)}
			nd.children[tokens[i]] = next
		}
		nd = next
	}
	if nd.e != nil {
		return true // already resident; frozen values are identical
	}
	// Make room under the byte budget.
	if c.budget > 0 {
		for c.used+bytes > c.budget && c.evictOneLocked() {
		}
		if c.used+bytes > c.budget {
			c.rejected++
			c.pruneLocked(nd)
			return false
		}
	}
	tag := ""
	if c.mem != nil {
		tag = fmt.Sprintf("prefix-%d", memSeq.Add(1))
		err := c.mem.Alloc(tag, bytes)
		for err != nil && c.evictOneLocked() {
			err = c.mem.Alloc(tag, bytes)
		}
		if err != nil {
			c.rejected++
			c.pruneLocked(nd)
			return false
		}
	}
	e := &entry{c: c, n: nd, length: n, enc: enc, kv: kv, bytes: bytes, tag: tag}
	nd.e = e
	c.used += bytes
	c.entries++
	c.inserts++
	c.lruFront(e)
	return true
}

// evictOneLocked removes the least-recently-hit unpinned entry; it reports
// whether anything was evicted.
func (c *Cache) evictOneLocked() bool {
	for e := c.tail; e != nil; e = e.prev {
		if e.refs == 0 {
			c.removeLocked(e)
			c.evictions++
			return true
		}
	}
	return false
}

// removeLocked detaches e from the trie, the LRU list and the accounting.
func (c *Cache) removeLocked(e *entry) {
	e.n.e = nil
	c.pruneLocked(e.n)
	c.lruUnlink(e)
	c.used -= e.bytes
	c.entries--
	if e.tag != "" {
		_ = c.mem.Free(e.tag)
	}
}

// pruneLocked deletes now-empty trie vertices on the path back to the root.
func (c *Cache) pruneLocked(nd *node) {
	for nd != nil && nd.parent != nil && nd.e == nil && len(nd.children) == 0 {
		delete(nd.parent.children, nd.tok)
		p := nd.parent
		nd.parent = nil
		nd = p
	}
}

// Clear evicts every entry — pinned or not — and frees its memory charge.
// It is the teardown path (serve Drain/Stop): by then every request has
// reached a terminal outcome, so no pins should remain; any that do are
// forcibly dropped so device accounting still balances to zero. Returns the
// number of entries cleared.
func (c *Cache) Clear() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for c.head != nil {
		c.removeLocked(c.head)
		n++
	}
	return n
}

// lruFront moves e to the front of the LRU list (inserting it if new).
func (c *Cache) lruFront(e *entry) {
	if c.head == e {
		return
	}
	c.lruUnlink(e)
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// lruUnlink detaches e from the LRU list if it is linked.
func (c *Cache) lruUnlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Stats is a point-in-time snapshot of cache counters.
type Stats struct {
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Inserts       int64   `json:"inserts"`
	Evictions     int64   `json:"evictions"`
	Rejected      int64   `json:"rejected"`       // inserts refused (budget/capacity)
	TokensSaved   int64   `json:"tokens_saved"`   // encoder tokens hits avoided
	ResidentBytes int64   `json:"resident_bytes"` // bytes charged right now
	Entries       int     `json:"entries"`
	HitRate       float64 `json:"hit_rate"` // hits / (hits + misses); 0 when idle

	// The engine resolves a cold declared prefix again when its admission
	// round encodes, without the cache seeing a lookup: LateHits found it
	// resident by then, RoundShared inherited the encode of an earlier
	// admission of the same round, and the *TokensSaved fields are the
	// encoder tokens each avoided on top of TokensSaved. The serving layer
	// fills these from engine reports; Cache.Stats leaves them zero.
	LateHits               int64 `json:"late_hits"`
	LateTokensSaved        int64 `json:"late_tokens_saved"`
	RoundShared            int64 `json:"round_shared"`
	RoundSharedTokensSaved int64 `json:"round_shared_tokens_saved"`
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Hits: c.hits, Misses: c.misses, Inserts: c.inserts,
		Evictions: c.evictions, Rejected: c.rejected,
		TokensSaved:   c.tokensSaved,
		ResidentBytes: c.used,
		Entries:       c.entries,
	}
	if total := c.hits + c.misses; total > 0 {
		st.HitRate = float64(c.hits) / float64(total)
	}
	return st
}
