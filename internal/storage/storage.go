// Package storage provides the page stores underneath the index
// structures: a trivial in-memory store for algorithmic experiments and a
// file-backed store with fixed-size slots, a free list, slot chaining for
// nodes larger than one slot (the BV-tree's multiple-page-size mode of
// §7.3 relies on this) and an in-memory write set that reaches the file
// only at Sync. Neither store caches reads; the decoded-node cache above
// them is the one cache.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bvtree/internal/page"
)

// Store persists variable-length node blobs keyed by page ID.
//
// Implementations must be safe for concurrent use. Both stores in this
// package serve ReadNode and Stats under a shared lock so parallel
// readers do not serialise against each other; Alloc, WriteNode, Free,
// Sync and Close are exclusive.
type Store interface {
	// Alloc reserves a new node ID with empty contents.
	Alloc() (page.ID, error)
	// ReadNode returns the blob most recently written to id.
	ReadNode(id page.ID) ([]byte, error)
	// WriteNode replaces the blob stored at id.
	WriteNode(id page.ID, blob []byte) error
	// Free releases id and its storage.
	Free(id page.ID) error
	// Stats returns cumulative operation counters.
	Stats() Stats
	// Sync flushes buffered state to durable storage, when applicable.
	Sync() error
	// Close releases resources. The store is unusable afterwards.
	Close() error
}

// BatchReader is implemented by no store.
//
// Deprecated: a range walk reads each data page through the node cache,
// as a Lookup does; nothing reads a batch of blobs.
type BatchReader interface {
	ReadNodes(ids []page.ID) ([][]byte, error)
}

// Lender is the borrowed read seam of a cold miss: the caller decodes a
// node where the store read it, and no blob is built for a decode that
// reads it once. Both stores in this package implement it; callers
// discover it by type assertion and fall back to ReadNode on a store
// without it.
type Lender interface {
	// LendNode reads node id as ReadNode would, with the same errors and
	// counters, calls use with the node's id and blob, and returns what
	// use returns. The blob is lent: use must neither keep it nor write
	// to it. FileStore lends a one-slot node in its pooled slot buffer
	// and MemStore its stored blob; a chained node, or a slot in
	// FileStore's write set, is lent as a private copy. A use that is a
	// value built once, not a closure per call, makes the read allocate
	// nothing of its own.
	LendNode(id page.ID, use func(id page.ID, blob []byte) (any, error)) (any, error)
}

// Prefetcher is implemented by no store.
//
// Deprecated: no store has a cache for a hint to warm.
type Prefetcher interface {
	Prefetch(ids []page.ID)
}

// Stats counts store activity. SlotReads/SlotWrites are physical I/O
// operations; NodeReads/NodeWrites are logical accesses.
type Stats struct {
	Allocs     uint64
	Frees      uint64
	NodeReads  uint64
	NodeWrites uint64
	SlotReads  uint64
	SlotWrites uint64
	// CacheHits, CacheMisses and Evictions are always 0.
	//
	// Deprecated: no store has a buffer pool.
	CacheHits, CacheMisses, Evictions uint64
	// FreeSlots is the current free-list length — a gauge, not a counter.
	// Always 0 for MemStore, which has no free list.
	FreeSlots int64
}

// Sub returns the difference s - t, for measuring an interval. FreeSlots
// is a gauge and keeps its end-of-interval value.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Allocs:     s.Allocs - t.Allocs,
		Frees:      s.Frees - t.Frees,
		NodeReads:  s.NodeReads - t.NodeReads,
		NodeWrites: s.NodeWrites - t.NodeWrites,
		SlotReads:  s.SlotReads - t.SlotReads,
		SlotWrites: s.SlotWrites - t.SlotWrites,
		FreeSlots:  s.FreeSlots,
	}
}

// MemStore is an in-memory Store. It is safe for concurrent use:
// ReadNode and Stats hold a shared lock, mutations are exclusive. The
// counters are atomic because concurrent readers bump NodeReads while
// other readers snapshot Stats.
type MemStore struct {
	mu    sync.RWMutex
	blobs map[page.ID][]byte
	next  page.ID
	stats Stats
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: make(map[page.ID][]byte), next: 1}
}

// Alloc implements Store.
func (m *MemStore) Alloc() (page.ID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.next
	m.next++
	m.blobs[id] = nil
	atomic.AddUint64(&m.stats.Allocs, 1)
	return id, nil
}

// ReadNode implements Store. Concurrent reads share the lock.
func (m *MemStore) ReadNode(id page.ID) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b, ok := m.blobs[id]
	if !ok {
		return nil, fmt.Errorf("storage: read of unallocated page %d", id)
	}
	atomic.AddUint64(&m.stats.NodeReads, 1)
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// LendNode implements Lender. A stored blob is never written in place —
// WriteNode stores a fresh copy — so it is lent as it is, and use runs
// after the lock is released.
func (m *MemStore) LendNode(id page.ID, use func(page.ID, []byte) (any, error)) (any, error) {
	m.mu.RLock()
	b, ok := m.blobs[id]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: read of unallocated page %d", id)
	}
	atomic.AddUint64(&m.stats.NodeReads, 1)
	return use(id, b)
}

// WriteNode implements Store.
func (m *MemStore) WriteNode(id page.ID, blob []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.blobs[id]; !ok {
		return fmt.Errorf("storage: write to unallocated page %d", id)
	}
	cp := make([]byte, len(blob))
	copy(cp, blob)
	m.blobs[id] = cp
	atomic.AddUint64(&m.stats.NodeWrites, 1)
	return nil
}

// Free implements Store.
func (m *MemStore) Free(id page.ID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.blobs[id]; !ok {
		return fmt.Errorf("storage: free of unallocated page %d", id)
	}
	delete(m.blobs, id)
	atomic.AddUint64(&m.stats.Frees, 1)
	return nil
}

// Stats implements Store.
func (m *MemStore) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return loadStats(&m.stats)
}

// loadStats assembles a snapshot of atomically-updated counters.
func loadStats(s *Stats) Stats {
	return Stats{
		Allocs:     atomic.LoadUint64(&s.Allocs),
		Frees:      atomic.LoadUint64(&s.Frees),
		NodeReads:  atomic.LoadUint64(&s.NodeReads),
		NodeWrites: atomic.LoadUint64(&s.NodeWrites),
		SlotReads:  atomic.LoadUint64(&s.SlotReads),
		SlotWrites: atomic.LoadUint64(&s.SlotWrites),
		FreeSlots:  atomic.LoadInt64(&s.FreeSlots),
	}
}

// Sync implements Store.
func (m *MemStore) Sync() error { return nil }

// Close implements Store.
func (m *MemStore) Close() error { return nil }
