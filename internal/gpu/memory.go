// Package gpu simulates the device the paper runs on: a memory pool with
// tensor-granularity allocation and an accounting of when data can be
// freed. Its purpose is to reproduce §4.2.2's early-memory-cleaning
// behaviour: under pure ConcatBatching request data inside a row cannot be
// separated into tensors, so nothing frees until the whole batch finishes;
// under slotted ConcatBatching each slot is an independent tensor that
// frees as soon as its requests finish decoding, letting the next batch's
// loading overlap the current batch's tail.
package gpu

import (
	"fmt"
	"sync"
)

// MemoryManager tracks simulated device-memory allocations in bytes. It is
// safe for concurrent use: the engine allocates and frees batch tags from
// concurrent Run calls.
type MemoryManager struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	peak     int64
	allocs   map[string]int64
}

// NewMemoryManager returns a manager with the given capacity in bytes.
// capacity <= 0 means unlimited.
func NewMemoryManager(capacity int64) *MemoryManager {
	return &MemoryManager{capacity: capacity, allocs: make(map[string]int64)}
}

// Alloc reserves bytes under the given tag. It fails on duplicate tags,
// non-positive sizes, or capacity exhaustion.
func (m *MemoryManager) Alloc(tag string, bytes int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if bytes <= 0 {
		return fmt.Errorf("gpu: alloc %q of %d bytes", tag, bytes)
	}
	if _, ok := m.allocs[tag]; ok {
		return fmt.Errorf("gpu: tag %q already allocated", tag)
	}
	if m.capacity > 0 && m.used+bytes > m.capacity {
		return fmt.Errorf("gpu: out of memory: %d used + %d requested > %d capacity",
			m.used, bytes, m.capacity)
	}
	m.allocs[tag] = bytes
	m.used += bytes
	if m.used > m.peak {
		m.peak = m.used
	}
	return nil
}

// Free releases the allocation under tag. Freeing an unknown tag is an
// error (double-free detection).
func (m *MemoryManager) Free(tag string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	bytes, ok := m.allocs[tag]
	if !ok {
		return fmt.Errorf("gpu: free of unknown tag %q", tag)
	}
	delete(m.allocs, tag)
	m.used -= bytes
	return nil
}

// Resize adjusts the allocation under tag by delta bytes: positive grows,
// negative shrinks. Growing fails when it would exceed capacity; shrinking
// clamps at zero. The tag stays allocated (even at zero bytes) until Free.
// This is the live-engine form of §4.2.2's early memory cleaning: a running
// batch's reservation shrinks the moment a request retires mid-flight and
// grows when a refill admission takes the freed capacity, instead of holding
// the whole launch until the last request finishes.
func (m *MemoryManager) Resize(tag string, delta int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, ok := m.allocs[tag]
	if !ok {
		return fmt.Errorf("gpu: resize of unknown tag %q", tag)
	}
	if delta > 0 && m.capacity > 0 && m.used+delta > m.capacity {
		return fmt.Errorf("gpu: out of memory: %d used + %d requested > %d capacity",
			m.used, delta, m.capacity)
	}
	next := cur + delta
	if next < 0 {
		next = 0
	}
	m.used += next - cur
	m.allocs[tag] = next
	if m.used > m.peak {
		m.peak = m.used
	}
	return nil
}

// Used returns the bytes currently allocated.
func (m *MemoryManager) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// Peak returns the high-water mark of Used since construction.
func (m *MemoryManager) Peak() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// Outstanding returns the number of live allocations.
func (m *MemoryManager) Outstanding() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.allocs)
}
