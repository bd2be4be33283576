package bvtree

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"bvtree/internal/page"
	"bvtree/internal/region"
	"bvtree/internal/storage"
)

// NodeStore is what a reader reads nodes through, a live tree's
// pagedNodes or a pinned view's snapNodes; both methods run in parallel
// with each other. borrowData is the one read of a data page: it lends
// the page for one scan — a version-chain pre-image, a cached page or a
// pooled scratch page (sc non-nil) — which the reader ends with
// pagedNodes.release, keeping nothing of it. Writers, under the tree's
// exclusive lock, go to the live tree's pagedNodes (Tree.paged).
type NodeStore interface {
	Index(id page.ID) (*page.IndexNode, error)
	borrowData(id page.ID, lookup bool) (p *page.DataPage, sc *scratchPage, err error)
}

// cacheShards is the shard count of the decoded-node cache. Shards spread
// cache-map mutations from parallel readers (a miss inserts the decoded
// node) across independent mutexes so the read path does not funnel
// through one cache lock.
const cacheShards = 16

// nodeShard is one stripe of the decoded-node cache. nodes maps a cached
// page to its node, which is all a hit reads. Each page also has an
// eviction entry, in a dense slice that trim and writeBack scan instead
// of the map; an entry keeps its position while its page is cached, and
// a removal leaves a hole, listed in holes for the next new page to fill,
// so removing costs one map operation.
type nodeShard struct {
	mu      sync.Mutex
	nodes   map[page.ID]cached
	entries []entry
	holes   []int32
	// seq is the shard's write sequence: every dirty cachePut and every
	// Free bumps it under mu. A pinned view admits a node it decoded only
	// while seq has not moved since its miss (admit).
	seq uint64
	// missed is the record of the shard's recent Lookup misses, which
	// decides whether a Lookup admits the data page it missed
	// (pagedNodes.borrowData).
	missed missRing
}

// missRing is the record of the last data pages a shard's Lookups
// missed: a ring of page IDs in the order they were recorded, beside an
// open-addressed set of the same IDs for an O(1) membership test. Both
// grow with the record, up to the ring's bound, so a shard that never
// misses holds nothing. Every method runs under the shard's mu.
type missRing struct {
	ids  []page.ID // ids[next] is the oldest once the ring is full
	next int
	// set holds the IDs of ids by linear probing, page.Nil in an empty
	// slot; its length is a power of two at least twice len(ids).
	set   []page.ID
	shift uint // 64 − log2(len(set)): home's multiplicative hash keeps the top bits
}

// seen reports whether page id is among the pages recorded, and records
// it when it is not, dropping the oldest once the ring holds limit pages.
func (r *missRing) seen(id page.ID, limit int) bool {
	if len(r.set) > 0 {
		mask := len(r.set) - 1
		for i := r.home(id); r.set[i] != page.Nil; i = (i + 1) & mask {
			if r.set[i] == id {
				return true
			}
		}
	}
	if len(r.ids) < limit {
		r.ids = append(r.ids, id)
		if 2*len(r.ids) > len(r.set) {
			r.rehash(max(8, 2*len(r.set))) // which inserts id with the rest
			return false
		}
	} else {
		r.drop(r.ids[r.next])
		r.ids[r.next] = id
		r.next = (r.next + 1) % len(r.ids)
	}
	r.insert(id)
	return false
}

// home is the slot where page id's probe starts: Fibonacci hashing, so
// that a shard's IDs, which share their residue modulo cacheShards,
// spread over the whole set.
func (r *missRing) home(id page.ID) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> r.shift)
}

func (r *missRing) insert(id page.ID) {
	mask := len(r.set) - 1
	i := r.home(id)
	for r.set[i] != page.Nil {
		i = (i + 1) & mask
	}
	r.set[i] = id
}

// drop removes page id, which the set holds, shifting back each later
// entry of its probe run whose home the hole does not cut it off from.
func (r *missRing) drop(id page.ID) {
	mask := len(r.set) - 1
	i := r.home(id)
	for r.set[i] != id {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; r.set[j] != page.Nil; j = (j + 1) & mask {
		if h := r.home(r.set[j]); (j-h)&mask >= (j-i)&mask {
			r.set[i] = r.set[j]
			i = j
		}
	}
	r.set[i] = page.Nil
}

// rehash rebuilds the set from ids at n slots, a power of two.
func (r *missRing) rehash(n int) {
	r.set = make([]page.ID, n)
	r.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, id := range r.ids {
		r.insert(id)
	}
}

// cached is a decoded node, the position of its page's entry, and the
// entry's stamp, mirrored so that a hit in the current generation reads
// the map alone and writes nothing.
type cached struct {
	node  interface{}
	pos   int32
	stamp uint32
}

// entry is what trim needs of a cached page: dirty when its node was
// saved since it last reached the store; level, its eviction level (0 for
// a data page, the index level for an index node); stamp, the trim
// generation (pagedNodes.clock) in which the node last entered the cache
// or was hit. The stamp carries the node's clock bit, set while stamp is
// the current generation, so a trim clears every bit at once by starting
// the next; one that wraps after 2^32 trims costs at most one misordered
// eviction. A hole has live unset.
type entry struct {
	id    page.ID
	stamp uint32
	level uint8
	dirty bool
	live  bool
}

// touch returns page id's node and stamps it with generation now (mu
// held).
func (sh *nodeShard) touch(id page.ID, now uint32) (interface{}, bool) {
	c, ok := sh.nodes[id]
	if ok && c.stamp != now {
		c.stamp = now
		sh.nodes[id] = c
		sh.entries[c.pos].stamp = now
	}
	return c.node, ok
}

// put caches v as page id, replacing any node it had, stamped with
// generation now, and reports whether the page is new to the shard (mu
// held).
func (sh *nodeShard) put(id page.ID, v interface{}, dirty bool, now uint32) bool {
	e := entry{id: id, stamp: now, level: levelOf(v), dirty: dirty, live: true}
	if c, ok := sh.nodes[id]; ok {
		sh.nodes[id] = cached{v, c.pos, now}
		sh.entries[c.pos] = e
		return false
	}
	pos := int32(len(sh.entries))
	if n := len(sh.holes); n > 0 {
		pos, sh.holes = sh.holes[n-1], sh.holes[:n-1]
		sh.entries[pos] = e
	} else {
		sh.entries = append(sh.entries, e)
	}
	sh.nodes[id] = cached{v, pos, now}
	return true
}

// remove drops page id and reports whether it was cached (mu held).
func (sh *nodeShard) remove(id page.ID) bool {
	c, ok := sh.nodes[id]
	if ok {
		sh.removeAt(c.pos)
	}
	return ok
}

// removeAt drops the page of entries[pos], leaving a hole (mu held).
func (sh *nodeShard) removeAt(pos int32) {
	delete(sh.nodes, sh.entries[pos].id)
	sh.entries[pos] = entry{}
	sh.holes = append(sh.holes, pos)
}

// evictLevels bounds the levels trim tells apart; higher index levels
// share the top one.
const evictLevels = 32

func levelOf(v interface{}) uint8 {
	if n, ok := v.(*page.IndexNode); ok {
		return uint8(min(n.Level, evictLevels-1))
	}
	return 0
}

// class is the node's eviction class in trim generation clock; trim
// evicts the lower classes first. Data pages come before index nodes, and
// index nodes go level by level upward; inside a level a node whose clock
// bit is clear comes before one touched since the last trim.
func (e *entry) class(clock uint32) int {
	c := 2 * int(e.level)
	if e.stamp == clock {
		c++
	}
	return c
}

// entryRef names a cached page by its ID and the position of its entry,
// for a trim to evict it by.
type entryRef struct {
	id  page.ID
	pos int32
}

// pagedNodes adapts a storage.Store: nodes are serialised through
// package page. Decoded nodes are kept in a sharded cache, and a save
// only publishes the node there and marks it dirty; a dirty node is
// encoded and written when it must reach the store — by Flush, or before
// an eviction under the tree's exclusive lock (writeBack). A node is
// therefore in the cache, or current in the store, or both, and a read
// that misses the cache reads a current copy.
//
// Concurrency: parallel readers may race to decode the same page; both
// decodes are identical clean copies and the last insert wins, so the race
// is benign. Node *contents* are only mutated under the tree's exclusive
// lock, which also guarantees the writer-uniqueness invariant eviction
// relies on (see trim). A pinned view runs beside a writer, so the nodes
// it decodes enter the cache only through admit's sequence check.
type pagedNodes struct {
	st     storage.Store
	dims   int
	cap    int
	size   atomic.Int64 // total cached nodes across shards
	shards [cacheShards]nodeShard

	// clock is the trim generation, advanced by every trim (cached.stamp).
	clock atomic.Uint32
	// trimMu admits one trim at a time and guards its scratch slices:
	// the clean nodes by class, and the lowest IDs of the cut class.
	trimMu  sync.Mutex
	byClass [2 * evictLevels][]entryRef
	low     []entryRef

	// indexReads and dataReads count the index nodes and data pages read
	// from the store: the cache's misses, by kind.
	indexReads, dataReads atomic.Uint64

	// lender is the store's optional borrowed-read seam, resolved once at
	// construction. It may be nil (a fault-injecting wrapper, say,
	// implements only the plain Store), in which case a miss decodes a
	// copy ReadNode made.
	lender storage.Lender
	// decodeIndex and decodeData decode a page for read; they are built
	// once, so that lending a page to them allocates no closure.
	decodeIndex, decodeData func(page.ID, []byte) (any, error)
	// scratch pools the pages a reader decodes a data page it does not
	// admit into (borrowData).
	scratch sync.Pool

	// err is the first failed write-back, meta write or sync. The store
	// may then hold anything, so nothing is written after it and every
	// later save and flush fails with it (see poisoned), as a store's own
	// poisoning makes every later write fail. Written and read under the
	// tree's exclusive lock.
	err error
}

func newPagedNodes(st storage.Store, dims, cacheNodes int) *pagedNodes {
	if cacheNodes <= 0 {
		cacheNodes = 4096
	}
	s := &pagedNodes{st: st, dims: dims, cap: cacheNodes}
	s.lender, _ = st.(storage.Lender)
	s.decodeIndex = func(id page.ID, blob []byte) (any, error) {
		n, err := page.DecodeIndexCols(blob, s.dims)
		if err != nil {
			return nil, fmt.Errorf("bvtree: decode index page %d: %w", id, err)
		}
		return n, nil
	}
	s.decodeData = func(id page.ID, blob []byte) (any, error) {
		p, err := s.decodeDataInto(id, blob, nil)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	s.scratch.New = func() any {
		sc := &scratchPage{}
		sc.decode = func(id page.ID, blob []byte) (any, error) {
			p, err := s.decodeDataInto(id, blob, &sc.page)
			if err != nil {
				return nil, err
			}
			return p, nil
		}
		return sc
	}
	for i := range s.shards {
		s.shards[i].nodes = make(map[page.ID]cached)
	}
	return s
}

// decodeDataInto decodes data page id from blob into dst (nil: a new
// page, see page.DecodeDataCols) and checks that it has the tree's
// dimensionality.
func (s *pagedNodes) decodeDataInto(id page.ID, blob []byte, dst *page.DataPage) (*page.DataPage, error) {
	p, dims, err := page.DecodeDataCols(blob, dst)
	if err != nil {
		return nil, fmt.Errorf("bvtree: decode data page %d: %w", id, err)
	}
	if dims != s.dims {
		return nil, fmt.Errorf("bvtree: decode data page %d: %w: %d dims in a %d-dimensional tree", id, page.ErrCorrupt, dims, s.dims)
	}
	return p, nil
}

// scratchPage is a page borrowData decodes a miss into, with its decoder
// bound once, so that lending a page to it allocates nothing.
type scratchPage struct {
	page   page.DataPage
	decode func(page.ID, []byte) (any, error)
}

func (s *pagedNodes) shard(id page.ID) *nodeShard {
	return &s.shards[uint64(id)%cacheShards]
}

// cacheGet returns the cached node of page id and stamps it with the
// current trim generation. On a miss it returns the shard's write
// sequence, for admit.
func (s *pagedNodes) cacheGet(id page.ID) (interface{}, uint64, bool) {
	sh := s.shard(id)
	sh.mu.Lock()
	v, ok := sh.touch(id, s.clock.Load())
	seq := sh.seq
	sh.mu.Unlock()
	return v, seq, ok
}

// cachePut publishes v as page id: dirty for a save, clean for a decode.
func (s *pagedNodes) cachePut(id page.ID, v interface{}, dirty bool) {
	sh := s.shard(id)
	sh.mu.Lock()
	if dirty {
		sh.seq++
	}
	if sh.put(id, v, dirty, s.clock.Load()) {
		s.size.Add(1)
	}
	sh.mu.Unlock()
}

// admit caches v, which a reader decoded from the store after a miss
// that returned write sequence seq, if the page is still absent and the
// sequence has not moved. A pinned view runs beside writers, so its blob
// may be stale: a writer can save the page, write it back and evict it
// between the view's miss and its read. The save bumped the sequence, so
// such a blob is refused; while the sequence stands, no save or free of
// the page has happened since the miss, when the page was absent and so
// current in the store, and the blob is that current copy. Checking
// absence keeps a node a writer may hold from being replaced.
func (s *pagedNodes) admit(id page.ID, v interface{}, seq uint64) {
	sh := s.shard(id)
	sh.mu.Lock()
	if _, ok := sh.nodes[id]; !ok && sh.seq == seq {
		sh.put(id, v, false, s.clock.Load())
		s.size.Add(1)
	}
	sh.mu.Unlock()
}

// flush writes every dirty node back, then meta, and syncs the store.
func (s *pagedNodes) flush(meta *page.Meta) error {
	if s.err != nil {
		return s.poisoned()
	}
	if s.err = s.writeBack(); s.err == nil {
		s.err = s.st.WriteNode(metaPageID, page.EncodeMeta(meta))
	}
	if s.err == nil {
		s.err = s.st.Sync()
	}
	return s.err
}

// writeBack encodes every dirty node and writes it to the store, in
// ascending page ID order so that the store sees the same operations
// whatever the map order. It runs under the tree's exclusive lock (flush,
// or trim for a writer), so no node changes while it is encoded, and a
// node's dirty mark is cleared only once its write succeeded; it keeps
// its eviction level and clock stamp, so an index node written back stays
// in its class and is not evicted as a data page would be. Each node
// is written under its shard latch: a deferred free run by a releasing
// reader (mvccState.sweepLocked) takes the page out of the cache either
// before its write, which is then skipped, or after it.
func (s *pagedNodes) writeBack() error {
	var ids []page.ID
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.dirty {
				ids = append(ids, e.id)
			}
		}
		sh.mu.Unlock()
	}
	slices.Sort(ids)
	for _, id := range ids {
		sh := s.shard(id)
		sh.mu.Lock()
		var err error
		if c, ok := sh.nodes[id]; ok && sh.entries[c.pos].dirty {
			switch n := c.node.(type) {
			case *page.IndexNode:
				err = s.st.WriteNode(id, page.EncodeIndex(n))
			case *page.DataPage:
				err = s.st.WriteNode(id, page.EncodeData(n, s.dims))
			}
			if err == nil {
				sh.entries[c.pos].dirty = false
			}
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// trim bounds the decoded cache. Past its capacity it evicts clean nodes
// down to the high-water mark cap - cap/8, in class order: every data
// page before any index node, then index nodes level by level upward,
// and inside a level the nodes not touched since the last trim first
// (cached.class). Ties break by ascending page ID, so one program always
// evicts the same nodes, and the index, about 1/F of the tree (the
// paper's eq 9), stays resident while anything else can go. Starting the
// next generation then clears every clock bit. One trim runs at a time;
// a trim that finds another running leaves the eviction to it.
//
// It selects; it does not sort. Holding every shard latch, so that it
// sees one state of the cache, it scans the shards' entry slices once
// and walks no map, gathering the clean nodes by class with their
// positions. Whole classes then go from the lowest up, and of the class
// where the excess runs out, the lowest page IDs, which a bounded heap
// (lowest) picks out; every eviction is made by position. A reader
// that hits or misses meanwhile waits out the scan.
//
// A writer (exclusive under the tree lock) first writes every dirty node
// back, so it can drop any node; every other caller drops only nodes
// that are clean under the shard latch, and a dirty node waits for the
// next writer. It runs between tree operations (never mid-operation), so
// within one mutating operation live node pointers stay unique: a writer
// never sees two decoded copies of the same page. Readers may refetch an
// evicted page mid-operation, but a fresh decode of a current page is
// indistinguishable from the evicted copy.
func (s *pagedNodes) trim(exclusive bool) error {
	if int(s.size.Load()) <= s.cap {
		return nil
	}
	if exclusive && s.err == nil {
		if s.err = s.writeBack(); s.err != nil {
			return s.err
		}
	}
	if !s.trimMu.TryLock() {
		return nil
	}
	defer s.trimMu.Unlock()
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	clock := s.clock.Load()
	byClass := &s.byClass
	for c := range byClass {
		byClass[c] = byClass[c][:0]
	}
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		total += len(sh.nodes)
		for j := range sh.entries {
			if e := &sh.entries[j]; e.live && !e.dirty {
				c := e.class(clock)
				byClass[c] = append(byClass[c], entryRef{e.id, int32(j)})
			}
		}
	}
	// Evict whole classes from the lowest up, and of the class where the
	// excess runs out its lowest page IDs.
	excess := total - (s.cap - s.cap/8)
	for c := 0; c < len(byClass) && excess > 0; c++ {
		refs := byClass[c]
		if len(refs) > excess {
			s.low = lowest(s.low, refs, excess)
			refs = s.low
		}
		for _, r := range refs {
			s.shard(r.id).removeAt(r.pos)
		}
		s.size.Add(-int64(len(refs)))
		excess -= len(refs)
	}
	s.clock.Add(1)
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
	return nil
}

// lowest returns the k of refs with the lowest page IDs, which are
// distinct, in dst's storage. It keeps them in a max-heap, which most
// refs leave with one comparison against its top: O(n log k), where
// sorting refs is O(n log n) for a k that is often a tenth of n.
func lowest(dst, refs []entryRef, k int) []entryRef {
	h := dst[:0]
	for _, r := range refs {
		if len(h) < k {
			h = append(h, r)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if h[p].id > h[i].id {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
			continue
		}
		if len(h) == 0 || r.id > h[0].id {
			continue
		}
		h[0] = r
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1].id > h[c].id {
				c++
			}
			if h[i].id > h[c].id {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	return h
}

func (s *pagedNodes) AllocIndex(level int, reg region.BitString) (page.ID, *page.IndexNode, error) {
	id, err := s.st.Alloc()
	if err != nil {
		return 0, nil, err
	}
	n := page.NewIndexNode(level, reg, s.dims)
	return id, n, s.SaveIndex(id, n)
}

func (s *pagedNodes) AllocData(reg region.BitString) (page.ID, *page.DataPage, error) {
	id, err := s.st.Alloc()
	if err != nil {
		return 0, nil, err
	}
	p := page.NewDataPage(reg, s.dims)
	return id, p, s.SaveData(id, p)
}

func (s *pagedNodes) Index(id page.ID) (*page.IndexNode, error) {
	if v, _, ok := s.cacheGet(id); ok {
		return asIndex(id, v)
	}
	n, err := s.readIndex(id)
	if err == nil {
		s.cachePut(id, n, false)
	}
	return n, err
}

// Data fetches data page id for a writer (wData), admitting a miss.
func (s *pagedNodes) Data(id page.ID) (*page.DataPage, error) {
	if v, _, ok := s.cacheGet(id); ok {
		return asData(id, v)
	}
	p, err := s.readData(id)
	if err == nil {
		s.cachePut(id, p, false)
	}
	return p, err
}

// borrowData holds the one admission rule for a data page a reader
// misses: a Lookup's miss (lookup set) of a page among the last
// cap/cacheShards its shard's Lookups missed is decoded afresh and
// admitted, so a hot page enters on its second miss. Any other miss is
// decoded into pooled scratch, admitting nothing, and only a Lookup's is
// recorded, so a scan flushes neither the working set nor the record. A
// hit is the cached page.
func (s *pagedNodes) borrowData(id page.ID, lookup bool) (*page.DataPage, *scratchPage, error) {
	sh := s.shard(id)
	sh.mu.Lock()
	v, ok := sh.touch(id, s.clock.Load())
	seq := sh.seq
	again := !ok && lookup && sh.missed.seen(id, max(s.cap/cacheShards, 1))
	sh.mu.Unlock()
	switch {
	case ok:
		p, err := asData(id, v)
		return p, nil, err
	case again:
		p, err := s.readData(id)
		if err == nil {
			s.admit(id, p, seq)
		}
		return p, nil, err
	}
	s.dataReads.Add(1)
	sc := s.scratch.Get().(*scratchPage)
	if _, err := s.read(id, sc.decode); err != nil {
		s.scratch.Put(sc)
		return nil, nil, err
	}
	return &sc.page, sc, nil
}

// poisonWord fills a scratch page release takes back in a race build.
const poisonWord = 0xdead_beef_dead_beef

// release ends a borrow: it returns the scratch page borrowData lent
// (nil: none) to the pool, poisoned first in race builds.
func (s *pagedNodes) release(sc *scratchPage) {
	if sc != nil {
		if raceBuild {
			sc.page.Poison(poisonWord)
		}
		s.scratch.Put(sc)
	}
}

// read brings page id in from the store and decodes it with decode
// (decodeIndex or decodeData): on the slot the store lends when it lends
// one, so a one-slot page costs its read and its decode and no blob, and
// on a copy ReadNode made otherwise. Both decoders copy every word they
// keep out of the blob, so no node aliases a lent buffer.
func (s *pagedNodes) read(id page.ID, decode func(page.ID, []byte) (any, error)) (any, error) {
	if s.lender != nil {
		return s.lender.LendNode(id, decode)
	}
	blob, err := s.st.ReadNode(id)
	if err != nil {
		return nil, err
	}
	return decode(id, blob)
}

// readIndex is the one place a stored index page becomes a node: read
// and decoded, in one pass over its bytes, into its columns before anyone
// can see it — through the cache (Index) or privately (a pinned view's
// miss). Racing decodes each make their own copy and the last cachePut
// wins whole.
func (s *pagedNodes) readIndex(id page.ID) (*page.IndexNode, error) {
	s.indexReads.Add(1)
	v, err := s.read(id, s.decodeIndex)
	n, _ := v.(*page.IndexNode)
	return n, err
}

// peekIndex is Index for an observer: a hit sets no clock bit, and a
// miss is decoded privately and counted nowhere but in the store.
func (s *pagedNodes) peekIndex(id page.ID) (*page.IndexNode, error) {
	sh := s.shard(id)
	sh.mu.Lock()
	c, ok := sh.nodes[id]
	sh.mu.Unlock()
	if ok {
		return asIndex(id, c.node)
	}
	v, err := s.read(id, s.decodeIndex)
	n, _ := v.(*page.IndexNode)
	return n, err
}

// readData is readIndex for data pages: its coordinate rows and its
// payload row, exactly sized; a writer lays them out at capacity when it
// takes the page (wData).
func (s *pagedNodes) readData(id page.ID) (*page.DataPage, error) {
	s.dataReads.Add(1)
	v, err := s.read(id, s.decodeData)
	p, _ := v.(*page.DataPage)
	return p, err
}

// SaveIndex publishes n as page id: it is cached dirty, to be encoded
// when it must reach the store.
func (s *pagedNodes) SaveIndex(id page.ID, n *page.IndexNode) error {
	s.cachePut(id, n, true)
	return s.poisoned()
}

// SaveData is SaveIndex for data pages.
func (s *pagedNodes) SaveData(id page.ID, p *page.DataPage) error {
	s.cachePut(id, p, true)
	return s.poisoned()
}

// poisoned is what a save or flush returns after err is set: err wrapped
// in storage.ErrPoisoned, the form a poisoned store's own operations
// return, so every write after a failed checkpoint fails as a write to
// the poisoned store would.
func (s *pagedNodes) poisoned() error {
	if s.err == nil || errors.Is(s.err, storage.ErrPoisoned) {
		return s.err
	}
	return fmt.Errorf("%w: %w", storage.ErrPoisoned, s.err)
}

// Free drops page id from the cache, dirty or not, and frees it.
func (s *pagedNodes) Free(id page.ID) error {
	sh := s.shard(id)
	sh.mu.Lock()
	if sh.remove(id) {
		s.size.Add(-1)
	}
	sh.seq++
	sh.mu.Unlock()
	return s.st.Free(id)
}
