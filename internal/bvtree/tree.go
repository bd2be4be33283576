// Package bvtree implements the BV-tree of M. Freeston, "A General
// Solution of the n-dimensional B-tree Problem" (SIGMOD 1995): an
// n-dimensional index with guaranteed minimum node occupancy of one third
// and logarithmic exact-match search and update cost.
//
// The data space is partitioned by the regular binary partitioning of
// package region. The index tree over this partition hierarchy is
// deliberately unbalanced: when a directory split boundary would cut
// through an existing region, that region's entry is promoted to the
// parent node as a guard instead of being split, and the exact-match
// search carries a per-level guard set down the tree so that every search
// path still has exactly one node per partition level. This creates "the
// effect of splitting a region without actually splitting it" and is what
// removes the cascade-splitting behaviour of the K-D-B tree and the
// spanning-set problem of the BANG file.
package bvtree

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"bvtree/internal/geometry"
	"bvtree/internal/obs"
	"bvtree/internal/page"
	"bvtree/internal/region"
	"bvtree/internal/storage"
	"bvtree/internal/wal"
	"bvtree/internal/zorder"
)

// Options configures a Tree.
type Options struct {
	// Dims is the dimensionality of the indexed points. Required.
	Dims int
	// DataCapacity is P: the maximum number of items per data page.
	// When zero, a tree created in a store with slots takes the largest
	// P whose worst-case data page fits one slot
	// (page.DataCapacityFor; 168 at Dims 2 in a default FileStore), and
	// a tree in a store without slots, as New makes, takes 32. A
	// reopened tree keeps the P it was created with.
	DataCapacity int
	// Fanout is F: the maximum number of entries per index node
	// (default 16). With LevelScaledPages a node at index level x holds
	// Fanout*x entries instead (§7.3 of the paper).
	Fanout int
	// LevelScaledPages enables the multiple-page-size scheme of §7.3,
	// which removes the worst-case height penalty of promoted subtrees.
	LevelScaledPages bool
	// CacheNodes bounds the decoded-node cache of a paged tree
	// (default 4096). Past it the cache evicts data pages first, then
	// index nodes from level 1 upward, so a cache of at least the index
	// size (about 1/F of the data pages) keeps the whole index resident
	// and a cold Lookup reads one page; Metrics reports the residency.
	// Every index node the tree decodes is cached, a range walk's and a
	// pinned read's too. A data page is cached when a writer takes it,
	// and when a Lookup, on the tree or a Snapshot, misses it while it is
	// among the last CacheNodes/16 data pages its cache shard's Lookups
	// missed: a hot page enters on its second miss. Every other read of a
	// missed data page — a first Lookup miss, a range walk's, Nearest's —
	// scans it in scratch and keeps it nowhere. New ignores it: an
	// in-memory tree keeps every node decoded.
	CacheNodes int
	// RangeWorkers is ignored.
	//
	// Deprecated: every range and count query runs inline on its
	// caller's goroutine.
	RangeWorkers int
}

// fill validates o and sets its zero shape fields to their defaults; a
// zero DataCapacity is sized to slotPayload, the SlotPayload of the
// store the tree is created in.
func (o *Options) fill(slotPayload int) error {
	if o.Dims < 1 || o.Dims > geometry.MaxDims {
		return fmt.Errorf("bvtree: Dims %d out of range 1..%d", o.Dims, geometry.MaxDims)
	}
	if o.DataCapacity == 0 {
		o.DataCapacity = 32
		if slotPayload > 0 {
			o.DataCapacity = page.DataCapacityFor(slotPayload, o.Dims)
		}
	}
	if o.DataCapacity < 4 {
		return fmt.Errorf("bvtree: DataCapacity %d below minimum 4", o.DataCapacity)
	}
	if o.Fanout == 0 {
		o.Fanout = 16
	}
	if o.Fanout < 4 {
		return fmt.Errorf("bvtree: Fanout %d below minimum 4", o.Fanout)
	}
	return nil
}

// OpStats is a snapshot of the structural event counters accumulated over
// the life of a tree. Obtain one with (*Tree).Stats. It is a thin view
// over the obs.TreeCounters the tree records into — the same counters
// that (*Tree).Metrics reports — so the two can never disagree.
type OpStats = obs.TreeCountersSnapshot

// Tree is a BV-tree. All methods are safe for concurrent use under a
// reader–writer contract with multi-version reads:
//
//   - Point reads — Lookup, Contains, SearchCost, CollectStats, Dump,
//     Validate, Len, Height, Stats, ResetAccessCount — hold a
//     shared lock and run in parallel with one another.
//   - Traversal reads — RangeQuery, PartialMatch, Scan, Count, Nearest —
//     and the explicit Snapshot API take the shared lock only to pin an
//     epoch, then run lock-free against an immutable copy-on-write view:
//     a slow visitor or a long scan never blocks a writer, and the
//     result is exactly the tree state at the moment the call started.
//   - Mutating operations — Insert, Delete, ApplyBatch, BulkLoad,
//     Maintain, Flush — hold the lock exclusively; before disturbing a
//     page a pinned reader may still need, they capture its pre-image
//     into a version chain (mvcc.go). On a tree with a write-ahead log
//     (see Open) Insert, Delete, ApplyBatch and BulkLoad also enqueue
//     their log records inside that exclusive section and return once
//     the records are durable, and Flush is the checkpoint that empties
//     the log (see commit).
//
// The guard-set exact-match search (§3), range traversal and best-first
// kNN are methods of the tree's view, which has no write method: they
// keep all scratch state (guard sets, visit stacks, candidate heaps) on
// the operation's own stack and never write to nodes, which is what
// makes the shared-lock read path sound; the only shared mutable state
// they touch is the OpStats counters (atomic), the decoded-node caches
// (internally synchronised, see pagedNodes and the storage stores) and
// the epoch/version machinery (mvccState, internally synchronised).
type Tree struct {
	mu sync.RWMutex
	view

	// The write-ahead log, attached by Open after replay; nil on a tree
	// without one. log is set before the tree is shared and never
	// changes; wm and ckptBytes are guarded by mu.
	log       *wal.Log
	wm        *obs.WALMetrics // the WAL section of Metrics; nil until enabled
	ckptBytes int64           // the AutoCheckpoint trigger; off when <= 0

	// mv is the snapshot/epoch machinery (see mvcc.go).
	mv *mvccState
}

// view is the readable state of a tree, and its unexported methods are
// every algorithm that only reads it. A Tree embeds its live view, read
// under the tree's lock and written by the tree's writers; a pinned view
// (readView, Snapshot) is a copy of it whose NodeStore resolves each
// page as it was at the pin. A view has no write method, so a write
// through a pinned view does not compile.
type view struct {
	st  NodeStore
	opt Options
	il  *zorder.Interleaver

	root      page.ID
	rootLevel int // index level of the root; 0 while the root is a data page
	size      int
	// lsn is the log sequence number of the tree's state: the number of
	// logged operations it holds, over its whole history. Every Flush
	// stores it in the meta record, so a reopened tree starts at its
	// checkpoint's LSN, with a log or without one, and a restored tree at
	// its backup's; replay advances it past the checkpoint, and a logged
	// commit advances it in the critical section that applies the
	// operation. Views copy it at pin time and backups stamp it. 0 for a
	// tree with no log history.
	lsn uint64

	// stats is shared by pointer with every pinned view of the tree, so
	// work done through a snapshot is counted on the owner.
	stats *obs.TreeCounters
	// metrics holds the opt-in per-operation histograms; nil until
	// EnableMetrics, so disabled instrumentation costs one nil check per
	// operation. EnableMetrics sets it under the exclusive lock and
	// operations read it under their own lock, so no atomics are needed.
	metrics *obs.TreeMetrics

	// paged is the tree's decoded cache over its store: st itself on the
	// live view, the owner's behind st's version chains on a pinned one.
	paged *pagedNodes
}

// New returns an in-memory BV-tree: Open over a fresh
// storage.MemStore without a log, with a decoded cache that never trims,
// so the store holds only what Flush writes. Options.CacheNodes is
// ignored.
func New(opt Options) (*Tree, error) {
	return open(storage.NewMemStore(), nil, opt, math.MaxInt)
}

// metaPageID is the fixed page holding a paged tree's root record: the
// first page allocated from a fresh store. A store is dedicated to one
// tree.
const metaPageID page.ID = 1

// bitsPerDim is the per-dimension address precision of every tree: keys
// are interleaved from whole 64-bit coordinates. The meta page and the
// backup header record it, and a reader refuses any other value.
const bitsPerDim = 64

// Open is the one way to start or reopen a tree in st, a store
// dedicated to it. A store whose meta page was never allocated starts a
// new tree shaped by opt; any other is reopened at its last Flush, and
// each shape field of opt (Dims, DataCapacity, Fanout, LevelScaledPages)
// must be zero or the stored one. A meta page that fails its check is
// refused, never taken for an empty store. A reopened tree knows the LSN
// of its checkpoint, with a log or without one. A non-nil l is the
// tree's write-ahead log: a reopened tree first replays l's records past
// the checkpoint LSN, skipping those at or below it and refusing a log
// that begins after it (see replay), then every write is logged, and
// Flush is the checkpoint that empties l. A store restored from a backup
// is a checkpoint at the backup's LSN, so RestoreSnapshot then Open with
// a log restores to the log's end. The tree owns l, closing it on error
// and at Close; the store stays the caller's.
func Open(st storage.Store, l *wal.Log, opt Options) (*Tree, error) {
	return open(st, l, opt, opt.CacheNodes)
}

// open is Open with the decoded cache's bound given apart from opt.
func open(st storage.Store, l *wal.Log, opt Options, cacheNodes int) (*Tree, error) {
	t, err := load(st, l, opt, cacheNodes)
	if err == nil && l != nil {
		err = t.attach(l)
	}
	if err != nil {
		if l != nil {
			l.Close()
		}
		return nil, err
	}
	return t, nil
}

// load starts a new tree in st when its meta page was never allocated,
// and otherwise reopens the tree the meta page records. A new tree is a
// checkpoint at LSN 0, so a log l (nil for none) that begins after it
// is refused before anything is allocated or written.
func load(st storage.Store, l *wal.Log, opt Options, cacheNodes int) (*Tree, error) {
	blob, err := st.ReadNode(metaPageID)
	if errors.Is(err, storage.ErrUnallocated) {
		if l != nil {
			if err := logGap(l, 0); err != nil {
				return nil, fmt.Errorf("bvtree: wal replay: %w", err)
			}
		}
		return create(st, opt, cacheNodes)
	}
	if err != nil {
		return nil, fmt.Errorf("bvtree: read tree metadata: %w", err)
	}
	m, err := page.DecodeMeta(blob)
	if err != nil {
		return nil, fmt.Errorf("bvtree: decode tree metadata: %w", err)
	}
	if m.BitsPerDim != bitsPerDim {
		return nil, fmt.Errorf("bvtree: tree metadata: %w: %d bits per dimension, want %d",
			page.ErrCorrupt, m.BitsPerDim, bitsPerDim)
	}
	if opt.Dims != 0 && opt.Dims != m.Dims || opt.DataCapacity != 0 && opt.DataCapacity != m.DataCapacity ||
		opt.Fanout != 0 && opt.Fanout != m.Fanout || opt.LevelScaledPages && !m.LevelScaled {
		return nil, fmt.Errorf("bvtree: the store holds a tree of Dims %d, DataCapacity %d, Fanout %d, LevelScaledPages %v; Options ask for %d, %d, %d, %v",
			m.Dims, m.DataCapacity, m.Fanout, m.LevelScaled, opt.Dims, opt.DataCapacity, opt.Fanout, opt.LevelScaledPages)
	}
	opt.Dims, opt.DataCapacity, opt.Fanout, opt.LevelScaledPages = m.Dims, m.DataCapacity, m.Fanout, m.LevelScaled
	if err := opt.fill(0); err != nil {
		return nil, err
	}
	t, err := newTree(newPagedNodes(st, opt.Dims, cacheNodes), opt)
	if err != nil {
		return nil, err
	}
	t.root, t.rootLevel, t.size, t.lsn = m.Root, m.RootLevel, int(m.Size), m.LSN
	return t, nil
}

// create starts a new tree of shape opt in st, whose first page must be
// the one it allocates now, and flushes it at LSN 0.
func create(st storage.Store, opt Options, cacheNodes int) (*Tree, error) {
	if err := opt.fill(st.SlotPayload()); err != nil {
		return nil, err
	}
	metaID, err := st.Alloc()
	if err != nil {
		return nil, err
	}
	if metaID != metaPageID {
		return nil, fmt.Errorf("bvtree: store is not fresh (first page is %d)", metaID)
	}
	t, err := newTree(newPagedNodes(st, opt.Dims, cacheNodes), opt)
	if err != nil {
		return nil, err
	}
	if t.root, _, err = t.paged.AllocData(region.BitString{}); err != nil {
		return nil, err
	}
	return t, t.Flush()
}

// newTree returns an empty live tree over pn: no root yet.
func newTree(pn *pagedNodes, opt Options) (*Tree, error) {
	il, err := zorder.NewInterleaver(opt.Dims, bitsPerDim)
	if err != nil {
		return nil, err
	}
	return &Tree{
		view: view{st: pn, opt: opt, il: il, paged: pn, stats: &obs.TreeCounters{}},
		mv:   newMVCCState(pn.Free),
	}, nil
}

// commit is the one write path: Insert, Delete, ApplyBatch and BulkLoad
// hand it their operation as apply, which runs under the exclusive lock
// and is followed by endWrite. On a tree with a log, recs are the
// operation's log records — one for an Insert or Delete, a whole batch's
// under one sequence number — and commit is group commit (DESIGN.md §9):
// the records are enqueued and the operation applied in one critical
// section, so the log order is the apply order, and the log's Wait is
// called after the lock is released, so writers arriving during one
// fsync share the next. The log copies the records at Enqueue, so they
// may live on the caller's stack. The apply result wins over the sync
// result, since an apply error carries the structural failure. A failed
// sync poisons the log: the applied-but-unlogged state is then
// unreachable through the write path, and the recovery is to reopen,
// which replays the durable prefix. A record whose point has the wrong
// dimensionality is refused before anything is enqueued, with the error
// its apply would return: logged, it would fail again at replay and
// leave the log unrecoverable. A closed log refuses the Enqueue, so
// nothing is applied either. Without a log, recs is ignored. A commit
// that leaves the log at or past the AutoCheckpoint trigger then
// checkpoints, after its Wait (checkpointIfFull).
func (t *Tree) commit(apply func() error, recs ...[]byte) (err error) {
	t.mu.Lock()
	var seq uint64
	if t.log != nil {
		for _, rec := range recs {
			if err = t.il.CheckDims(recordDims(rec)); err != nil {
				break
			}
		}
		if err == nil {
			seq, err = t.log.Enqueue(recs...)
		}
		if err != nil {
			t.mu.Unlock()
			return err
		}
		t.lsn += uint64(len(recs))
	}
	err = apply()
	t.endWrite(&err)
	trigger := t.ckptBytes
	t.mu.Unlock()
	if t.log != nil {
		if werr := t.log.Wait(seq); err == nil {
			err = werr
		}
		if err == nil && trigger > 0 && t.log.Size() >= trigger {
			t.checkpointIfFull()
		}
	}
	return err
}

// checkpointIfFull is AutoCheckpoint's trigger, run on the goroutine of
// the writer whose commit filled the log, once that writer's own records
// are durable. The size is checked again under the lock, so writers that
// saw the same full log checkpoint once between them. The writer's
// operation is durable already and returns its own result. A checkpoint
// that poisons the store or the log leaves its error sticky there
// (pagedNodes.err, the log's failure), so the next write, Flush or Close
// returns it; any other failure is retried at the next trigger.
func (t *Tree) checkpointIfFull() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ckptBytes > 0 && t.log.Size() >= t.ckptBytes {
		_ = t.flushLocked() // sticky or retried, as above
	}
}

// Flush is the tree's one checkpoint: it writes every node changed since
// the last Flush, then the tree's root record, and syncs the backing
// store. The tree is only reopenable from state captured by the last
// Flush. The root record carries the tree's LSN, the checkpoint's. On a
// tree with a log it first drains the log, and after the sync it empties
// the log at that LSN. Each step is crash-safe: the store sync is atomic
// (rollback journal), and the log is reset only once the checkpoint is
// durable in the store, so a crash in between leaves a log whose records
// all lie at or below the checkpoint LSN, which recovery skips.
func (t *Tree) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

// flushLocked is Flush's body (exclusive lock held). Holding the lock
// blocks new enqueues, so once Drain returns no record the checkpoint
// holds can reach the log after the reset: it would be numbered after
// the checkpoint and apply twice.
func (t *Tree) flushLocked() error {
	var start time.Time
	var absorbed int64 // log bytes this checkpoint makes redundant
	if t.log != nil {
		if t.wm != nil {
			start = time.Now()
		}
		if err := t.log.Drain(); err != nil {
			return err
		}
		absorbed = t.log.Size()
	}
	err := t.paged.flush(&page.Meta{
		Dims:         t.opt.Dims,
		DataCapacity: t.opt.DataCapacity,
		Fanout:       t.opt.Fanout,
		BitsPerDim:   bitsPerDim,
		LevelScaled:  t.opt.LevelScaledPages,
		Root:         t.root,
		RootLevel:    t.rootLevel,
		Size:         uint64(t.size),
		LSN:          t.lsn,
	})
	if err != nil || t.log == nil {
		return err
	}
	if err := t.log.ResetAt(t.lsn); err != nil {
		return err
	}
	if wm := t.wm; wm != nil {
		wm.Checkpoint.ObserveSince(start)
		wm.CheckpointB.Add(uint64(absorbed))
		wm.Checkpoints.Inc()
	}
	return nil
}

// Len returns the number of stored items.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Height returns the index height h: the number of index levels above the
// data pages (0 while the root is still a data page). Every exact-match
// search visits exactly h+1 nodes.
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rootLevel
}

// Options returns the tree's effective configuration.
func (t *Tree) Options() Options { return t.opt }

// Stats returns a snapshot of the structural event counters. It is safe
// to call concurrently with any other operation; counters touched by an
// in-flight operation may or may not be reflected.
func (t *Tree) Stats() OpStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.stats.Snapshot()
}

// ResetAccessCount zeroes the NodeAccesses counter (the other counters are
// monotone by design) and returns the previous value.
func (t *Tree) ResetAccessCount() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.stats.NodeAccesses.Swap(0)
}

// EnableMetrics turns on the per-operation latency and shape histograms
// reported by Metrics, and on a tree with a log the WAL-layer ones too,
// on a new and on a reopened tree alike. The structural event counters
// (OpStats) are always on; the histograms cost two clock reads and a few
// atomic adds per operation (measured by BenchmarkInstrumented). Samples recorded before
// enabling are lost (only the structural counters are retroactive).
// Enabling is idempotent; there is no disable — drop the tree's
// reference instead.
func (t *Tree) EnableMetrics() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.metrics == nil {
		t.metrics = &obs.TreeMetrics{}
	}
	if t.log != nil && t.wm == nil {
		t.wm = &obs.WALMetrics{}
		t.log.SetMetrics(t.wm)
	}
}

// capacity returns the entry capacity of an index node at index level x.
func (v *view) capacity(x int) int {
	if v.opt.LevelScaledPages {
		return v.opt.Fanout * x
	}
	return v.opt.Fanout
}

// addr computes the partition address of a point.
func (v *view) addr(p geometry.Point) (region.BitString, error) {
	a, err := v.il.Interleave(p)
	if err != nil {
		return region.BitString{}, err
	}
	return region.OwnWords(a.Words(), a.Len()) // the key takes the address's words: one allocation
}

func (v *view) fetchIndex(id page.ID) (*page.IndexNode, error) {
	v.stats.NodeAccesses.Inc()
	return v.st.Index(id)
}

// fetchData fetches data page id for a writer.
func (t *Tree) fetchData(id page.ID) (*page.DataPage, error) {
	t.stats.NodeAccesses.Inc()
	return t.paged.Data(id)
}

// borrowData lends data page id to a reader for one scan, through the
// view's NodeStore; the reader ends the borrow with paged.release.
func (v *view) borrowData(id page.ID, lookup bool) (*page.DataPage, *scratchPage, error) {
	v.stats.NodeAccesses.Inc()
	return v.st.borrowData(id, lookup)
}

// indexCols fetches index node id for a reader, with its columns.
func (v *view) indexCols(id page.ID) (*page.IndexNode, *page.NodeCols, error) {
	n, err := v.fetchIndex(id)
	if err != nil {
		return nil, nil, err
	}
	return n, n.Cols(), nil
}

// endOp performs a reader's between-operation housekeeping: it trims
// the decoded cache of clean nodes. It may run without the tree lock.
func (v *view) endOp() { v.paged.trim(false) }

// endWrite is endOp for a writer, under the exclusive lock: the trim
// writes dirty nodes back first. A failed write-back becomes the
// operation's error unless the operation already has one.
func (t *Tree) endWrite(err *error) {
	if e := t.paged.trim(true); *err == nil {
		*err = e
	}
}
