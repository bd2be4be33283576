package bvtree

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bvtree/internal/geometry"
	"bvtree/internal/obs"
	"bvtree/internal/page"
	"bvtree/internal/region"
)

// This file implements the tree's multi-version concurrency control:
// copy-on-write node mutation against an epoch counter, so that readers
// can pin an epoch and traverse an immutable tree while writers keep
// committing, and so that a consistent online backup can stream the
// pinned state (see backup.go).
//
// Protocol. The epoch counter advances on every pin, never on writes:
// a pin taken under the tree's shared lock observes some epoch p and
// guarantees that every write that could disturb its view happens at a
// strictly larger epoch (a writer holds the exclusive lock, so no pin
// can be created mid-mutation). Before a writer mutates a page that a
// pin may still need, it captures the current decoded node into that
// page's version chain — tagged with the current epoch, under mv.mu,
// strictly before the replacement is published to the node store — and
// mutates a private clone instead. A pinned reader resolves a page by
// taking the oldest chain version with epoch > pin; on a chain miss it
// reads the live store and re-checks the chain, which closes the race
// with a concurrent first-capture: if the live read returned a
// post-write node, the capture that preceded its publication is already
// visible on the chain.
//
// Reclamation. Pages superseded or freed while pins are active are
// retained — version chains keep superseded decoded nodes alive, and
// the grave list defers storage.Free so page IDs cannot be recycled
// into a pinned reader's view. A pin release that finds anything
// retained sweeps the state: a version (or grave) tagged with epoch e
// is retained exactly while a pin p < e is still active, and
// freed/dropped otherwise. With no pins active both sets are empty —
// CheckSnapshots verifies exactly that, and the torture/differential
// tests call it after every drain.

// pageVersion is one superseded decoded node: the state a page had when
// epoch was captured, immutable from the moment it enters a chain.
type pageVersion struct {
	epoch uint64
	node  interface{} // *page.IndexNode or *page.DataPage
}

// mvccState is the snapshot machinery of one tree. It has its own
// mutex, nested strictly inside the tree lock on writer paths and taken
// bare by pinned readers (which hold no tree lock at all).
type mvccState struct {
	mu    sync.Mutex
	epoch uint64 // advanced on every pin; writes happen "at" the current value
	// pins holds the active pinned epochs in ascending order. Every pin
	// takes a fresh epoch, so each is held once, and pin only ever
	// appends the largest.
	pins  []uint64
	nPins atomic.Int64 // len(pins), lock-free writer fast path
	nOld  atomic.Int64 // chain versions + graves, lock-free reader fast path
	chain map[page.ID][]pageVersion
	grave map[page.ID]uint64 // page -> epoch at which its free was deferred

	freeFn func(page.ID) error // executes a deferred free (pagedNodes.Free)
	met    *obs.MVCCMetrics
}

func newMVCCState(free func(page.ID) error) *mvccState {
	return &mvccState{
		chain:  make(map[page.ID][]pageVersion),
		grave:  make(map[page.ID]uint64),
		freeFn: free,
		met:    &obs.MVCCMetrics{},
	}
}

// pin registers a reader at the current epoch and advances the counter.
// Must be called under the tree's shared (or exclusive) lock so it
// cannot interleave with a mutation.
func (v *mvccState) pin() uint64 {
	v.mu.Lock()
	p := v.epoch
	v.epoch++
	v.pins = append(v.pins, p)
	v.mu.Unlock()
	v.nPins.Add(1)
	v.met.Pins.Inc()
	v.met.PinnedEpochs.Add(1)
	return p
}

// release drops pin p and, when any version or grave is retained,
// sweeps those no remaining pin can reach. The search runs from the back
// of the list, where the newest pins, the ones that end first, are.
// Safe to call without any tree lock.
func (v *mvccState) release(p uint64) {
	v.mu.Lock()
	i := len(v.pins) - 1
	for i >= 0 && v.pins[i] != p {
		i--
	}
	if i < 0 {
		v.mu.Unlock()
		panic(fmt.Sprintf("bvtree: release of epoch %d, which is not pinned", p))
	}
	v.pins = append(v.pins[:i], v.pins[i+1:]...)
	v.nPins.Add(-1)
	v.met.PinnedEpochs.Add(-1)
	// capture and deferFree count what they retain under mu, so with
	// nOld at zero a sweep would find nothing.
	if v.nOld.Load() > 0 {
		v.sweepLocked()
	}
	v.mu.Unlock()
}

// minPinLocked returns the smallest active pinned epoch.
func (v *mvccState) minPinLocked() (uint64, bool) {
	if len(v.pins) == 0 {
		return 0, false
	}
	return v.pins[0], true
}

// sweepLocked drops every version and executes every deferred free that
// no active pin can still reach: an entry tagged with epoch e is needed
// exactly while some pin p < e remains.
func (v *mvccState) sweepLocked() {
	min, havePin := v.minPinLocked()
	for id, versions := range v.chain {
		keep := 0
		if havePin {
			for keep < len(versions) && versions[keep].epoch <= min {
				keep++
			}
		} else {
			keep = len(versions)
		}
		if keep == 0 {
			continue
		}
		if keep == len(versions) {
			delete(v.chain, id)
		} else {
			v.chain[id] = versions[keep:]
		}
		v.nOld.Add(int64(-keep))
		v.met.Reclaimed.Add(uint64(keep))
		v.met.Versions.Add(int64(-keep))
	}
	for id, e := range v.grave {
		if havePin && min < e {
			continue
		}
		delete(v.grave, id)
		v.nOld.Add(-1)
		// The free runs with mv.mu held; pagedNodes.Free only takes cache
		// shard and store locks, which never nest around mv.mu.
		if err := v.freeFn(id); err == nil {
			v.met.ReclaimedFre.Inc()
		}
	}
}

// resolve returns the node that page id held at the time pin was taken,
// if a writer has superseded it since: the oldest captured version with
// epoch > pin. The nOld fast path keeps an untouched tree at one atomic
// load per node fetch.
func (v *mvccState) resolve(id page.ID, pin uint64) (interface{}, bool) {
	if v.nOld.Load() == 0 {
		return nil, false
	}
	v.mu.Lock()
	for _, pv := range v.chain[id] {
		if pv.epoch > pin {
			v.mu.Unlock()
			return pv.node, true
		}
	}
	v.mu.Unlock()
	return nil, false
}

// capture decides how a writer may mutate the current decoded node n of
// page id. It returns (clone, true) when the caller must mutate (and
// save) the clone because an active pin may still need n; (nil, false)
// means no pin can observe n and in-place mutation is safe. At most one
// version per page is captured per epoch: once a page's pre-image for
// the current epoch is on the chain, later writes in the same epoch
// mutate the published copy in place (no pin can have been created in
// between, since pins advance the epoch).
func (v *mvccState) capture(id page.ID, n interface{}) (interface{}, bool) {
	if v.nPins.Load() == 0 {
		return nil, false
	}
	v.mu.Lock()
	if len(v.pins) == 0 {
		v.mu.Unlock()
		return nil, false
	}
	versions := v.chain[id]
	if k := len(versions); k > 0 && versions[k-1].epoch == v.epoch {
		if versions[k-1].node == n {
			// The captured pre-image is still the live node (its clone was
			// fetched but never saved): it must stay immutable, so hand out
			// a fresh clone without re-capturing.
			v.mu.Unlock()
			return cloneNode(n), true
		}
		// n is this epoch's already-published copy; nothing can pin
		// between two writes of one epoch, so mutate it in place.
		v.mu.Unlock()
		return nil, false
	}
	v.chain[id] = append(versions, pageVersion{epoch: v.epoch, node: n})
	v.nOld.Add(1)
	v.mu.Unlock()
	v.met.Captures.Inc()
	v.met.Versions.Add(1)
	return cloneNode(n), true
}

// deferFree parks the free of page id until every pin that might still
// read it has drained. It reports whether the free was deferred; when
// no pins are active the caller frees immediately.
func (v *mvccState) deferFree(id page.ID) (bool, error) {
	if v.nPins.Load() == 0 {
		return false, nil
	}
	v.mu.Lock()
	if len(v.pins) == 0 {
		v.mu.Unlock()
		return false, nil
	}
	if _, dup := v.grave[id]; dup {
		v.mu.Unlock()
		v.met.DoubleFrees.Inc()
		return true, fmt.Errorf("bvtree: double free of page %d detected by epoch reclamation", id)
	}
	v.grave[id] = v.epoch
	v.nOld.Add(1)
	v.mu.Unlock()
	v.met.DeferredFree.Inc()
	return true, nil
}

func cloneNode(n interface{}) interface{} {
	switch x := n.(type) {
	case *page.IndexNode:
		return x.Clone()
	case *page.DataPage:
		return x.Clone()
	}
	panic("bvtree: cloneNode of non-node value")
}

// CheckSnapshots is the leak/double-free invariant checker of epoch
// reclamation. With no pins active it verifies that every captured
// version has been reclaimed and every deferred free executed; at any
// time it verifies that no double free was ever recorded. The torture
// sweep and the snapshot differential tests call it after draining all
// readers, so a reclamation bug fails CI deterministically.
func (t *Tree) CheckSnapshots() error {
	if t.mv == nil {
		return nil
	}
	v := t.mv
	v.mu.Lock()
	defer v.mu.Unlock()
	if n := v.met.DoubleFrees.Load(); n != 0 {
		return fmt.Errorf("bvtree: snapshot invariant: %d double-freed page(s)", n)
	}
	if len(v.pins) != 0 {
		return nil // drain incomplete: retained state is legitimate
	}
	if len(v.chain) != 0 {
		return fmt.Errorf("bvtree: snapshot invariant: %d page version chain(s) leaked after epoch drain", len(v.chain))
	}
	if len(v.grave) != 0 {
		return fmt.Errorf("bvtree: snapshot invariant: %d deferred free(s) leaked after epoch drain", len(v.grave))
	}
	if n := v.nOld.Load(); n != 0 {
		return fmt.Errorf("bvtree: snapshot invariant: version accounting off by %d", n)
	}
	return nil
}

// --- writer choke points ---

var errSnapshotReadOnly = errors.New("bvtree: snapshot views are read-only")

// lockWrite takes the exclusive lock for a mutating operation. A pinned
// view (mv == nil) is refused before any node is fetched: wIndex and
// wData capture nothing for it, and its writes would edit and publish
// the owner's live nodes.
func (t *Tree) lockWrite() error {
	if t.mv == nil {
		return errSnapshotReadOnly
	}
	t.mu.Lock()
	return nil
}

// wIndex fetches index node id for mutation. When pinned readers may
// still need the current version it is captured and a private clone
// returned; otherwise no reader can see the node and the cached one is
// returned, to be edited in place. Either way its columns come laid out
// for one entry past its capacity (a node decoded from the store is
// exactly sized), the most it holds before it splits. The caller edits
// the result and saves it as usual.
func (t *Tree) wIndex(id page.ID) (*page.IndexNode, error) {
	n, err := t.fetchIndex(id)
	if err != nil || t.mv == nil {
		return n, err
	}
	if c, ok := t.mv.capture(id, n); ok {
		n = c.(*page.IndexNode)
	}
	n.Reserve(t.capacity(n.Level) + 1)
	return n, nil
}

// allocIndex allocates an index node, laid out as wIndex lays one out.
func (t *Tree) allocIndex(level int, reg region.BitString) (page.ID, *page.IndexNode, error) {
	id, n, err := t.paged.AllocIndex(level, reg)
	if err == nil {
		n.Reserve(t.capacity(level) + 1)
	}
	return id, n, err
}

// wData is wIndex for data pages: its rows come laid out for one item
// past the page capacity (dataRows), so an insert writes in place until
// the page splits.
func (t *Tree) wData(id page.ID) (*page.DataPage, error) {
	p, err := t.fetchData(id)
	if err != nil || t.mv == nil {
		return p, err
	}
	if c, ok := t.mv.capture(id, p); ok {
		p = c.(*page.DataPage)
	}
	p.Reserve(t.dataRows())
	return p, nil
}

// dataRows is the capacity a writer lays a data page's rows out at: one
// past the page capacity, for the item that overflows it before the split.
func (t *Tree) dataRows() int { return t.opt.DataCapacity + 1 }

// freePage releases page id, deferring the physical free while pinned
// readers might still traverse into it (deferral also prevents the
// store from recycling the ID into a pinned view).
func (t *Tree) freePage(id page.ID) error {
	if t.mv != nil {
		if deferred, err := t.mv.deferFree(id); deferred || err != nil {
			return err
		}
	}
	return t.paged.Free(id)
}

// --- pinned read views ---

// snapNodes is the NodeStore of a pinned view: reads resolve through
// the version chains of the pin's epoch and fall back to the owner's
// decoded cache, then its store. A node it decodes on a miss enters the
// shared cache — an index node always, so that range walks warm the
// index a Lookup descends, a data page by borrowData's rule — only
// through admit's check that the page is still absent and its shard's
// write sequence has not moved since the miss, which refuses any blob a
// writer may have superseded meanwhile.
type snapNodes struct {
	pn  *pagedNodes // the owner's live node store
	mv  *mvccState
	pin uint64
}

func (s *snapNodes) Index(id page.ID) (*page.IndexNode, error) {
	if v, ok := s.mv.resolve(id, s.pin); ok {
		return asIndex(id, v)
	}
	var n *page.IndexNode
	var err error
	if v, seq, ok := s.pn.cacheGet(id); ok {
		n, err = asIndex(id, v)
	} else if n, err = s.pn.readIndex(id); err == nil {
		s.pn.admit(id, n, seq)
	}
	// Re-check: if the live node postdates the pin, its pre-image was
	// chained before it was published.
	if old, ok := s.mv.resolve(id, s.pin); ok {
		return asIndex(id, old)
	}
	return n, err
}

func (s *snapNodes) borrowData(id page.ID, lookup bool) (*page.DataPage, *scratchPage, error) {
	if v, ok := s.mv.resolve(id, s.pin); ok {
		p, err := asData(id, v)
		return p, nil, err
	}
	p, sc, err := s.pn.borrowData(id, lookup)
	// Re-check, as Index does.
	if old, ok := s.mv.resolve(id, s.pin); ok {
		s.pn.release(sc)
		p, err := asData(id, old)
		return p, nil, err
	}
	return p, sc, err
}

func asIndex(id page.ID, v interface{}) (*page.IndexNode, error) {
	n, ok := v.(*page.IndexNode)
	if !ok {
		return nil, fmt.Errorf("bvtree: page %d is not an index node", id)
	}
	return n, nil
}

func asData(id page.ID, v interface{}) (*page.DataPage, error) {
	p, ok := v.(*page.DataPage)
	if !ok {
		return nil, fmt.Errorf("bvtree: page %d is not a data page", id)
	}
	return p, nil
}

// pinView pins the current epoch and makes v, whose NodeStore is s, an
// immutable Tree over the state pinned, overwriting whatever v and s
// held. The caller must hold at least the shared lock. The view shares the
// owner's counters and histograms, so work done through it is
// observable exactly like lock-holding reads. readView and Snapshot
// both build their views here.
func (t *Tree) pinView(v *Tree, s *snapNodes) uint64 {
	*s = snapNodes{pn: t.paged, mv: t.mv, pin: t.mv.pin()}
	*v = Tree{
		st:        s,
		opt:       t.opt,
		il:        t.il,
		root:      t.root,
		rootLevel: t.rootLevel,
		size:      t.size,
		lsn:       t.lsn,
		stats:     t.stats,
		metrics:   t.metrics,
		paged:     t.paged,
	}
	return s.pin
}

// viewPool holds the views readView lends, each with its snapNodes as
// its NodeStore, so that a traversal read pins without allocating. A
// view in the pool holds no reference but to its own snapNodes.
var viewPool = sync.Pool{New: func() any { return &Tree{st: new(snapNodes)} }}

// readView pins the current epoch and returns an immutable view of the
// tree at it, taken from viewPool; the shared lock is dropped before
// returning, so the caller's traversal runs without blocking writers.
// The caller hands the view back to releaseView when the traversal is
// done and keeps no reference to it. On a tree that is itself a view
// (mv == nil) it returns the tree and holds the shared lock until
// releaseView — a view is already immutable, so its "lock" is
// uncontended.
func (t *Tree) readView() *Tree {
	t.mu.RLock()
	if t.mv == nil {
		return t
	}
	v := viewPool.Get().(*Tree)
	t.pinView(v, v.st.(*snapNodes))
	t.mu.RUnlock()
	return v
}

// releaseView ends the read readView began: it releases v's pin, clears
// every reference v holds, runs the owner's between-operation
// housekeeping and returns v to viewPool. On a tree that is itself a
// view it drops the shared lock instead.
func (t *Tree) releaseView(v *Tree) {
	if t.mv == nil {
		t.mu.RUnlock()
		t.endOp()
		return
	}
	s := v.st.(*snapNodes)
	t.mv.release(s.pin)
	*s = snapNodes{}
	*v = Tree{st: s}
	t.endOp()
	viewPool.Put(v)
}

// Snapshot is a pinned, immutable view of a Tree: every read observes
// exactly the state the tree had at the moment the snapshot was taken,
// regardless of concurrent mutations. Snapshots are cheap (no data is
// copied up front; writers copy superseded pages on demand) but hold
// resources — superseded page versions and deferred frees accumulate
// until Release. Always release a snapshot; a snapshot is safe for
// concurrent use by multiple readers.
type Snapshot struct {
	v        *Tree
	owner    *Tree
	pin      uint64
	released atomic.Bool
}

// Snapshot pins the tree's current state and returns an immutable view
// of it. The snapshot observes none of the mutations that commit after
// it is taken. Call Release when done. Unlike the views traversal reads
// borrow from a pool, a snapshot's view is its own: it lives until
// Release and any number of goroutines may read it meanwhile.
func (t *Tree) Snapshot() (*Snapshot, error) {
	if t.mv == nil {
		return nil, errors.New("bvtree: cannot snapshot a snapshot view")
	}
	v := new(Tree)
	t.mu.RLock()
	pin := t.pinView(v, new(snapNodes))
	t.mu.RUnlock()
	return &Snapshot{v: v, owner: t, pin: pin}, nil
}

// Release unpins the snapshot, allowing the pages it kept alive to be
// reclaimed. Release is idempotent; using the snapshot after Release is
// a bug (reads may observe later states or freed pages).
func (s *Snapshot) Release() {
	if s.released.CompareAndSwap(false, true) {
		s.owner.mv.release(s.pin)
		s.owner.endOp()
	}
}

// Len returns the number of items in the pinned state.
func (s *Snapshot) Len() int { return s.v.Len() }

// Height returns the index height of the pinned state.
func (s *Snapshot) Height() int { return s.v.rootLevel }

// Lookup returns the payloads stored at p in the pinned state.
func (s *Snapshot) Lookup(p geometry.Point) ([]uint64, error) { return s.v.Lookup(p) }

// RangeQuery visits every pinned item inside rect.
func (s *Snapshot) RangeQuery(rect geometry.Rect, visit Visitor) error {
	return s.v.RangeQuery(rect, visit)
}

// Count returns the number of pinned items inside rect.
func (s *Snapshot) Count(rect geometry.Rect) (int, error) { return s.v.Count(rect) }

// Scan visits every pinned item.
func (s *Snapshot) Scan(visit Visitor) error { return s.v.Scan(visit) }

// Nearest returns the k pinned items closest to p.
func (s *Snapshot) Nearest(p geometry.Point, k int) ([]Neighbor, error) { return s.v.Nearest(p, k) }

// Validate checks the structural invariants of the pinned state.
func (s *Snapshot) Validate(full bool) error { return s.v.Validate(full) }
