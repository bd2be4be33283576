package bvtree

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bvtree/internal/page"
	"bvtree/internal/region"
	"bvtree/internal/storage"
)

// NodeStore supplies decoded nodes to the tree. Implementations return
// live node pointers: the tree mutates them in place and calls SaveIndex /
// SaveData to persist the mutation. The tree serialises mutations behind
// an exclusive lock but runs read-only operations in parallel, so Index
// and Data must be safe to call concurrently with each other (though
// never concurrently with Alloc/Save/Free, which only run under the
// tree's exclusive lock).
type NodeStore interface {
	AllocIndex(level int, reg region.BitString) (page.ID, *page.IndexNode, error)
	AllocData(reg region.BitString) (page.ID, *page.DataPage, error)
	Index(id page.ID) (*page.IndexNode, error)
	Data(id page.ID) (*page.DataPage, error)
	SaveIndex(id page.ID, n *page.IndexNode) error
	SaveData(id page.ID, p *page.DataPage) error
	Free(id page.ID) error
}

// dataBatcher is the batched-read seam of the range walk (dataBatch)
// and of Nearest (prefetch), implemented by the decoded cache of a paged
// tree and by the chain-resolving node source of a pinned view. Trees
// expose it as Tree.bsrc so both run identically on live trees and
// snapshots.
type dataBatcher interface {
	dataBatch(ids []page.ID, pages []*page.DataPage, blobs [][]byte, miss []page.ID) ([]*page.DataPage, [][]byte, []page.ID, error)
	prefetch(ids []page.ID, scratch []page.ID) []page.ID
}

// errMirrorless is what a read returns for a node that reached it without
// a fresh columnar mirror (page.IndexNode.Cols, page.DataPage.DCols). The
// columns are the only form readers scan, so every node a NodeStore hands
// out must carry them: a store builds the mirror at its three publication
// points — allocation, save, and the decode of a stored page (readIndex,
// readData) — and a writer saves a node it has changed before anything
// reads it again. A node that breaks the rule is a bug, reported by page
// rather than answered from a second, entry-by-entry implementation.
var errMirrorless = errors.New("bvtree: node has no fresh columnar mirror")

func mirrorless(id page.ID) error { return fmt.Errorf("%w: page %d", errMirrorless, id) }

// memNodes keeps decoded nodes in memory; saves are no-ops. It is the
// store used for algorithmic experiments, where only logical node accesses
// matter. The map is guarded by an RWMutex rather than the tree lock
// alone because pinned snapshot readers fetch nodes without holding any
// tree lock, concurrently with writer map mutations.
type memNodes struct {
	mu    sync.RWMutex
	nodes map[page.ID]interface{}
	next  page.ID
	dims  int
}

func newMemNodes(dims int) *memNodes {
	return &memNodes{nodes: make(map[page.ID]interface{}), next: 1, dims: dims}
}

func (m *memNodes) AllocIndex(level int, reg region.BitString) (page.ID, *page.IndexNode, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.next
	m.next++
	n := &page.IndexNode{Level: level, Region: reg}
	n.SyncCols(m.dims) // published like a saved node: mirror built
	m.nodes[id] = n
	return id, n, nil
}

func (m *memNodes) AllocData(reg region.BitString) (page.ID, *page.DataPage, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.next
	m.next++
	p := &page.DataPage{Region: reg}
	p.SyncDataCols(m.dims)
	m.nodes[id] = p
	return id, p, nil
}

func (m *memNodes) Index(id page.ID) (*page.IndexNode, error) {
	m.mu.RLock()
	n, ok := m.nodes[id].(*page.IndexNode)
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("bvtree: page %d is not an index node", id)
	}
	return n, nil
}

func (m *memNodes) Data(id page.ID) (*page.DataPage, error) {
	m.mu.RLock()
	p, ok := m.nodes[id].(*page.DataPage)
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("bvtree: page %d is not a data page", id)
	}
	return p, nil
}

func (m *memNodes) SaveIndex(id page.ID, n *page.IndexNode) error {
	// Saves are the publication point of every entry-slice mutation, so
	// this is where the columnar mirror is brought back in lockstep.
	n.SyncCols(m.dims)
	m.mu.Lock()
	m.nodes[id] = n
	m.mu.Unlock()
	return nil
}

func (m *memNodes) SaveData(id page.ID, p *page.DataPage) error {
	p.SyncDataCols(m.dims)
	m.mu.Lock()
	m.nodes[id] = p
	m.mu.Unlock()
	return nil
}

func (m *memNodes) Free(id page.ID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.nodes[id]; !ok {
		return fmt.Errorf("bvtree: free of unknown page %d", id)
	}
	delete(m.nodes, id)
	return nil
}

// cacheShards is the shard count of the decoded-node cache. Shards spread
// cache-map mutations from parallel readers (a miss inserts the decoded
// node) across independent mutexes so the read path does not funnel
// through one cache lock.
const cacheShards = 16

// nodeShard is one stripe of the decoded-node cache.
type nodeShard struct {
	mu    sync.Mutex
	nodes map[page.ID]interface{}
}

// pagedNodes adapts a storage.Store: nodes are serialised through
// package page. Decoded nodes are kept in a sharded cache; because every
// mutation is saved (written through) before the operation returns, cached
// nodes are always clean and can be evicted freely between operations.
//
// Concurrency: parallel readers may race to decode the same page; both
// decodes are identical clean copies and the last insert wins, so the race
// is benign. Node *contents* are only mutated under the tree's exclusive
// lock, which also guarantees the writer-uniqueness invariant eviction
// relies on (see evictIfNeeded).
type pagedNodes struct {
	st     storage.Store
	dims   int
	cap    int
	size   atomic.Int64 // total cached nodes across shards
	shards [cacheShards]nodeShard

	// br/pf are the store's optional batched-read and prefetch seams,
	// resolved once at construction. Either may be nil (a fault-injecting
	// wrapper, say, implements only the plain Store), in which case a
	// range walk falls back to per-node reads and prefetch does nothing.
	br storage.BatchReader
	pf storage.Prefetcher
}

func newPagedNodes(st storage.Store, dims, cacheNodes int) *pagedNodes {
	if cacheNodes <= 0 {
		cacheNodes = 4096
	}
	s := &pagedNodes{st: st, dims: dims, cap: cacheNodes}
	s.br, _ = st.(storage.BatchReader)
	s.pf, _ = st.(storage.Prefetcher)
	for i := range s.shards {
		s.shards[i].nodes = make(map[page.ID]interface{})
	}
	return s
}

func (s *pagedNodes) shard(id page.ID) *nodeShard {
	return &s.shards[uint64(id)%cacheShards]
}

func (s *pagedNodes) cacheGet(id page.ID) (interface{}, bool) {
	sh := s.shard(id)
	sh.mu.Lock()
	v, ok := sh.nodes[id]
	sh.mu.Unlock()
	return v, ok
}

func (s *pagedNodes) cachePut(id page.ID, v interface{}) {
	sh := s.shard(id)
	sh.mu.Lock()
	if _, ok := sh.nodes[id]; !ok {
		s.size.Add(1)
	}
	sh.nodes[id] = v
	sh.mu.Unlock()
}

func (s *pagedNodes) cacheDel(id page.ID) {
	sh := s.shard(id)
	sh.mu.Lock()
	if _, ok := sh.nodes[id]; ok {
		s.size.Add(-1)
		delete(sh.nodes, id)
	}
	sh.mu.Unlock()
}

// evictIfNeeded trims the decoded cache to half capacity. It is called
// between tree operations (never mid-operation), so within one mutating
// operation live node pointers stay unique: a writer never sees two
// decoded copies of the same page. Readers may refetch an evicted page
// mid-operation, but a fresh decode of a clean page is indistinguishable
// from the evicted copy.
func (s *pagedNodes) evictIfNeeded() {
	if int(s.size.Load()) <= s.cap {
		return
	}
	perShard := s.cap/2/cacheShards + 1
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for id := range sh.nodes {
			if len(sh.nodes) <= perShard {
				break
			}
			delete(sh.nodes, id)
			s.size.Add(-1)
		}
		sh.mu.Unlock()
	}
}

func (s *pagedNodes) AllocIndex(level int, reg region.BitString) (page.ID, *page.IndexNode, error) {
	id, err := s.st.Alloc()
	if err != nil {
		return 0, nil, err
	}
	n := &page.IndexNode{Level: level, Region: reg}
	if err := s.SaveIndex(id, n); err != nil {
		return 0, nil, err
	}
	return id, n, nil
}

func (s *pagedNodes) AllocData(reg region.BitString) (page.ID, *page.DataPage, error) {
	id, err := s.st.Alloc()
	if err != nil {
		return 0, nil, err
	}
	p := &page.DataPage{Region: reg}
	if err := s.SaveData(id, p); err != nil {
		return 0, nil, err
	}
	return id, p, nil
}

func (s *pagedNodes) Index(id page.ID) (*page.IndexNode, error) {
	if v, ok := s.cacheGet(id); ok {
		return asIndex(id, v)
	}
	n, err := s.readIndex(id)
	if err == nil {
		s.cachePut(id, n)
	}
	return n, err
}

func (s *pagedNodes) Data(id page.ID) (*page.DataPage, error) {
	if v, ok := s.cacheGet(id); ok {
		return asData(id, v)
	}
	p, err := s.readData(id)
	if err == nil {
		s.cachePut(id, p)
	}
	return p, err
}

// readIndex is the one place a stored index page becomes a node: read,
// decoded, and given its columnar mirror before anyone can see it —
// through the cache (Index) or privately (a pinned view's miss). Readers
// never build columns themselves; racing decodes each sync their own
// copy and the last cachePut wins whole.
func (s *pagedNodes) readIndex(id page.ID) (*page.IndexNode, error) {
	blob, err := s.st.ReadNode(id)
	if err != nil {
		return nil, err
	}
	n, err := page.DecodeIndex(blob)
	if err != nil {
		return nil, fmt.Errorf("bvtree: decode index page %d: %w", id, err)
	}
	n.SyncCols(s.dims)
	return n, nil
}

// readData is readIndex for data pages.
func (s *pagedNodes) readData(id page.ID) (*page.DataPage, error) {
	blob, err := s.st.ReadNode(id)
	if err != nil {
		return nil, err
	}
	p, _, err := page.DecodeData(blob)
	if err != nil {
		return nil, fmt.Errorf("bvtree: decode data page %d: %w", id, err)
	}
	p.SyncDataCols(s.dims)
	return p, nil
}

// dataBatch fetches the data pages named by ids for a streaming scan.
// On success pages, blobs and miss (reused from the caller's scratch)
// are resized to describe every id: pages[i] is set when the decoded
// cache already held the page, otherwise blobs[i] holds the raw encoded
// page, fetched together with the other misses through one batched read
// when the store supports it. Fetched blobs are deliberately NOT decoded
// into (or admitted to) the decoded cache: a low-selectivity range scan
// would flush the working set the point-query path relies on, and the
// range walk decodes blobs into its own scratch instead.
func (s *pagedNodes) dataBatch(ids []page.ID, pages []*page.DataPage, blobs [][]byte, miss []page.ID) ([]*page.DataPage, [][]byte, []page.ID, error) {
	pages, blobs, miss = pages[:0], blobs[:0], miss[:0]
	for _, id := range ids {
		if v, ok := s.cacheGet(id); ok {
			dp, err := asData(id, v)
			if err != nil {
				return pages, blobs, miss, err
			}
			pages, blobs = append(pages, dp), append(blobs, nil)
			continue
		}
		pages, blobs = append(pages, nil), append(blobs, nil)
		miss = append(miss, id)
	}
	if len(miss) == 0 {
		return pages, blobs, miss, nil
	}
	if s.br != nil && len(miss) > 1 {
		got, err := s.br.ReadNodes(miss)
		if err != nil {
			return pages, blobs, miss, err
		}
		j := 0
		for i := range ids {
			if pages[i] == nil {
				blobs[i] = got[j]
				j++
			}
		}
		return pages, blobs, miss, nil
	}
	for i, id := range ids {
		if pages[i] != nil {
			continue
		}
		blob, err := s.st.ReadNode(id)
		if err != nil {
			return pages, blobs, miss, err
		}
		blobs[i] = blob
	}
	return pages, blobs, miss, nil
}

// prefetch hints the store to warm the pages of ids that are not already
// decoded, reusing scratch for the filtered list. A no-op when the store
// has no prefetch seam.
func (s *pagedNodes) prefetch(ids []page.ID, scratch []page.ID) []page.ID {
	if s.pf == nil || len(ids) == 0 {
		return scratch
	}
	scratch = scratch[:0]
	for _, id := range ids {
		if _, ok := s.cacheGet(id); !ok {
			scratch = append(scratch, id)
		}
	}
	if len(scratch) > 0 {
		s.pf.Prefetch(scratch)
	}
	return scratch
}

func (s *pagedNodes) SaveIndex(id page.ID, n *page.IndexNode) error {
	n.SyncCols(s.dims)
	s.cachePut(id, n)
	return s.st.WriteNode(id, page.EncodeIndex(n))
}

func (s *pagedNodes) SaveData(id page.ID, p *page.DataPage) error {
	p.SyncDataCols(s.dims)
	s.cachePut(id, p)
	return s.st.WriteNode(id, page.EncodeData(p, s.dims))
}

func (s *pagedNodes) Free(id page.ID) error {
	s.cacheDel(id)
	return s.st.Free(id)
}
