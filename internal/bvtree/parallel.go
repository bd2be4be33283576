package bvtree

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"bvtree/internal/geometry"
	"bvtree/internal/obs"
	"bvtree/internal/page"
)

// This file is the parallel range-query engine. A range query whose
// frontier proves real fan-out — parallelRange expands the tree
// breadth-first on the calling goroutine until it holds enough disjoint
// qualifying subtrees to feed a pool (see spinUpFanout) — hands that
// frontier to bounded workers as seeds; matching items stream back to
// the caller's goroutine, which alone invokes the user's Visitor, so the
// callback contract of the serial walk (single-threaded delivery, early
// stop on false) is preserved exactly. The serial walk in query.go
// remains the reference implementation and still serves workers<=1
// queries; queries whose frontier never reaches the spin-up threshold
// complete during the serial expansion and never pay pool startup. Both
// walks and the workers here choose the children to visit through the
// same guard-set-pruned qualifier (expandRange / qualifyNode in
// query.go).
//
// The engine runs against a pinned epoch view (e.t is the view tree a
// readView call produced, not the live tree): every worker is joined
// before the query returns, and no tree lock is held while workers run —
// the pin keeps every node the view can reach immutable, so writers
// commit concurrently without ever being observed mid-flight.
//
// Three mechanisms give the engine its speed beyond using more cores:
//
//   - Batched reads: a worker descending an index node fetches all its
//     qualifying data children through the store's ReadNodes seam — one
//     lock acquisition and coalesced physical I/O instead of N point
//     reads (pagedNodes.dataBatch).
//   - Streaming decode with scan resistance: pages fetched for a scan
//     are decoded into flat per-worker scratch (page.AppendDataItems) and
//     never admitted to the decoded-node cache, so a low-selectivity scan
//     neither pays the cache's per-page allocation pattern nor flushes
//     the point-query working set.
//   - Full containment: once a subtree's brick lies inside the query
//     rectangle (region.BrickWithin), every item below it matches; data
//     pages under it are emitted without per-point Contains tests, and
//     counting such a page reads only its item count
//     (page.DecodeDataCount).
//
// Cancellation: the first Visitor false or the first worker error flips
// stopped and closes done. Workers observe stopped between pages and
// select on done when sending, queued tasks drain as no-ops, and the
// delivery loop discards in-flight batches, so termination propagates in
// O(one page scan) per worker.

// rangeTask is one unit of engine work: an index subtree to qualify and
// descend. full marks the subtree's brick as contained in the query
// rectangle, which exempts the whole subtree from geometry tests.
type rangeTask struct {
	id   page.ID
	full bool
}

// rangeScratch is the per-worker reusable state: qualification lists,
// batch-fetch buffers, the descent stack, and the streaming-decode
// arena.
type rangeScratch struct {
	dataIDs  []page.ID
	dataFull []bool
	idxIDs   []page.ID

	pages []*page.DataPage
	blobs [][]byte
	miss  []page.ID
	pf    []page.ID

	// local is the worker's private descent stack (see runTaskTree):
	// index children are pushed here and drained LIFO, so one shared-queue
	// task covers a whole subtree instead of one node.
	local []rangeTask

	// Counting-mode decode arena (visit mode decodes into out instead,
	// because emitted items cross the delivery channel).
	items  []page.Item
	coords []uint64

	// out accumulates matching items across pages and tasks in visit mode
	// and is handed to the delivery loop once it reaches rangeFlushItems
	// (or when the worker drains) — one channel handoff per ~32 pages
	// instead of one per page. outCoords is the coordinate arena those
	// items' points live in. Ownership of both transfers on flush: the
	// slices are nilled and regrown, never reused, so the delivery loop
	// (and any visitor that retains points) never shares a backing array
	// with the worker. Arena growth mid-batch is safe for the same reason
	// AppendDataItems documents: relocation leaves earlier points
	// referencing the orphaned backing, which stays valid.
	out       []page.Item
	outCoords []uint64
}

// rangeFlushItems is the delivery batch target. Each channel send wakes
// the delivery goroutine, so batching ~32 data pages' worth of matches
// per handoff keeps scheduler traffic negligible even on low-selectivity
// scans that match hundreds of thousands of items.
const rangeFlushItems = 512

// spinUpFanout is the base frontier size at which the serial
// breadth-first expansion stops and the worker pool takes over.
// Requiring twice the worker count means every worker has a second
// subtree queued the moment it finishes its first; the floor of 16
// keeps geometry, not the worker count, in charge of the decision for
// small pools. The expansion loops additionally demand that the
// frontier outgrow the number of subtrees expanded (see parallelRange):
// a window with real volume multiplies its frontier at every level —
// net growth of many subtrees per expansion — while a window that
// merely straddles a few brick faces adds a subtree or two per
// expansion, never outruns the pop count and completes serially,
// paying nothing for the pool it never needed.
func spinUpFanout(workers int) int {
	const floor = 16
	if f := 2 * workers; f > floor {
		return f
	}
	return floor
}

type rangeEngine struct {
	t        *Tree
	rect     geometry.Rect
	dims     int
	workers  int
	counting bool
	metrics  *obs.TreeMetrics // captured under the query's lock; may be nil

	tasks   chan rangeTask
	batches chan []page.Item
	done    chan struct{}
	pending sync.WaitGroup // outstanding tasks (queued or running)
	wg      sync.WaitGroup // worker goroutines

	stopped atomic.Bool
	count   atomic.Int64

	errOnce sync.Once
	err     error // written once under errOnce; read after the workers join
}

func newRangeEngine(t *Tree, rect geometry.Rect, workers int, counting bool) *rangeEngine {
	return &rangeEngine{
		t:        t,
		rect:     rect,
		dims:     t.opt.Dims,
		workers:  workers,
		counting: counting,
		metrics:  t.metrics,
	}
}

// taskQueueCap bounds the task channel (subject to a floor of the seed
// count, so seeding never blocks). Tasks are two words, so a few
// hundred queued subtrees cost nothing, and workers offload surplus to
// the queue non-blockingly — a full queue just means the surplus stays
// on the worker's own stack.
const taskQueueCap = 256

func (e *rangeEngine) start(seeds int) {
	capacity := taskQueueCap
	if seeds > capacity {
		capacity = seeds
	}
	e.tasks = make(chan rangeTask, capacity)
	e.done = make(chan struct{})
	if !e.counting {
		e.batches = make(chan []page.Item, e.workers*4)
	}
	e.wg.Add(e.workers)
	for i := 0; i < e.workers; i++ {
		go e.worker()
	}
	// pending already counts the seeds (run/runCount register them before
	// start), and every child task is registered while its parent still
	// counts, so pending reaches zero — and the queue closes — only when
	// no task is queued or running.
	go func() {
		e.pending.Wait()
		close(e.tasks)
	}()
}

// run executes the engine in visit mode over the seed frontier and
// delivers every matching item to visit on the calling goroutine.
func (e *rangeEngine) run(seeds []rangeTask, visit Visitor) error {
	e.pending.Add(len(seeds)) // before start: the closer must not see zero pending
	e.start(len(seeds))
	go func() {
		e.wg.Wait()
		close(e.batches)
	}()
	for _, s := range seeds {
		e.tasks <- s // never blocks: the queue is at least seed-sized
	}
	for batch := range e.batches {
		// After a stop (early termination or a worker error) in-flight
		// batches drain undelivered; their order was unspecified anyway.
		if e.stopped.Load() {
			continue
		}
		for _, it := range batch {
			if !visit(it.Point, it.Payload) {
				e.stop()
				break
			}
		}
	}
	// The batches channel closed, so every worker has joined: reading
	// e.err races with nothing.
	return e.err
}

// runCount executes the engine in counting mode over the seed frontier.
func (e *rangeEngine) runCount(seeds []rangeTask) (int64, error) {
	e.pending.Add(len(seeds))
	e.start(len(seeds))
	for _, s := range seeds {
		e.tasks <- s
	}
	e.wg.Wait()
	return e.count.Load(), e.err
}

func (e *rangeEngine) stop() {
	if e.stopped.CompareAndSwap(false, true) {
		close(e.done)
	}
}

func (e *rangeEngine) fail(err error) {
	e.errOnce.Do(func() { e.err = err })
	e.stop()
}

func (e *rangeEngine) worker() {
	defer e.wg.Done()
	w := &rangeScratch{}
	for task := range e.tasks {
		if !e.stopped.Load() {
			e.runTaskTree(task, w)
		}
		e.pending.Done()
	}
	e.flush(w) // matches accumulated below the flush threshold
}

// runTaskTree descends the whole subtree rooted at root on this worker:
// runTask pushes qualifying index children onto the worker's private
// stack and the loop drains it LIFO (depth-first, so the batch-read
// locality of sibling data pages is preserved). The entire local tree
// rides on the root task's single pending count — per-node WaitGroup
// and channel traffic, which dominated engine overhead at one task per
// index node, is gone. Load balancing survives through offloading:
// whenever the shared queue has run dry (an idle peer is the only way
// it stays empty), the worker ships its oldest — shallowest, hence
// largest — queued subtrees to the pool, each send registering its own
// pending count. Sends never block (a full queue keeps the task local),
// so workers cannot deadlock feeding each other.
func (e *rangeEngine) runTaskTree(root rangeTask, w *rangeScratch) {
	local := append(w.local[:0], root)
	head := 0 // local[head:] is the live stack window
	for len(local) > head && !e.stopped.Load() {
		task := local[len(local)-1]
		local = local[:len(local)-1]
		var err error
		local, err = e.runTask(task, w, local)
		if err != nil {
			e.fail(err)
			break
		}
		// Share surplus with idle peers, keeping at least one task for
		// ourselves (the next pop).
		for len(local)-head > 1 && len(e.tasks) == 0 {
			e.pending.Add(1)
			select {
			case e.tasks <- local[head]:
				head++
				continue
			default:
				e.pending.Done()
			}
			break
		}
	}
	w.local = local[:0]
}

// runTask expands one index subtree through expandRange — the
// guard-set-pruned qualifier shared with the serial walks, which also
// runs the unbranched part of the descent — pushes the index children
// it names onto the caller's descent stack, and scans the data children
// through the batched read seam.
func (e *rangeEngine) runTask(task rangeTask, w *rangeScratch, local []rangeTask) ([]rangeTask, error) {
	e.t.stats.RangeTasks.Inc()
	lo := len(local)
	var err error
	w.dataIDs, w.dataFull, local, err = e.t.expandRange(task, e.rect, w.dataIDs[:0], w.dataFull[:0], local)
	if err != nil {
		return local, err
	}
	if m := e.metrics; m != nil {
		m.RangeFanout.Observe(int64(len(w.dataIDs) + len(local) - lo))
	}
	// Hint the pager at the index children first: their I/O warms while
	// this worker scans the data children below.
	if pn := e.t.bsrc; pn != nil && len(local) > lo {
		w.idxIDs = w.idxIDs[:0]
		for _, tk := range local[lo:] {
			w.idxIDs = append(w.idxIDs, tk.id)
		}
		w.pf = pn.prefetch(w.idxIDs, w.pf)
	}
	return local, e.scanBatch(w)
}

// scanBatch fetches and scans the data children collected in w.
func (e *rangeEngine) scanBatch(w *rangeScratch) error {
	if len(w.dataIDs) == 0 {
		return nil
	}
	pn := e.t.bsrc
	if pn == nil {
		for i, id := range w.dataIDs {
			if e.stopped.Load() {
				return nil
			}
			dp, err := e.t.fetchData(id)
			if err != nil {
				return err
			}
			if err := e.emitItems(dp, w.dataFull[i], w); err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	w.pages, w.blobs, w.miss, err = pn.dataBatch(w.dataIDs, w.pages, w.blobs, w.miss)
	if err != nil {
		return err
	}
	if len(w.miss) > 0 {
		e.t.stats.RangeBatchPages.Add(uint64(len(w.miss)))
	}
	for i := range w.dataIDs {
		if e.stopped.Load() {
			return nil
		}
		e.t.stats.NodeAccesses.Inc()
		if dp := w.pages[i]; dp != nil {
			err = e.emitItems(dp, w.dataFull[i], w)
		} else {
			err = e.emitBlob(w.blobs[i], w.dataFull[i], w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// emitItems counts, or appends to the worker's delivery buffer, one
// decoded data page's matching items — batched over the page's
// coordinate mirror when it carries a fresh one. The items of any page
// the pinned view can reach are immutable for the duration of the query
// — a writer that needs to change such a page captures it into its
// version chain and mutates a clone — so copying them out here reads
// stable memory, and so the mirror a reachable page carries stays in
// lockstep with its items.
func (e *rangeEngine) emitItems(dp *page.DataPage, full bool, w *rangeScratch) error {
	items := dp.Items
	if full {
		e.t.stats.RangeFullPages.Inc()
		if e.counting {
			e.count.Add(int64(len(items)))
			return nil
		}
		w.out = append(w.out, items...)
		return e.maybeFlush(w)
	}
	if c := dp.DCols(); c != nil && !e.t.opt.ScalarNodeScan {
		e.t.stats.BatchTests.Inc()
		if e.counting {
			n := int64(0)
			for base := 0; base < c.Len(); base += 64 {
				n += int64(bits.OnesCount64(c.ContainMask64(e.rect, base)))
			}
			e.count.Add(n)
			return nil
		}
		for base := 0; base < c.Len(); base += 64 {
			for m := c.ContainMask64(e.rect, base); m != 0; m &= m - 1 {
				w.out = append(w.out, items[base+bits.TrailingZeros64(m)])
			}
		}
		return e.maybeFlush(w)
	}
	if e.counting {
		n := int64(0)
		for i := range items {
			if e.rect.Contains(items[i].Point) {
				n++
			}
		}
		e.count.Add(n)
		return nil
	}
	for i := range items {
		if e.rect.Contains(items[i].Point) {
			w.out = append(w.out, items[i])
		}
	}
	return e.maybeFlush(w)
}

// emitBlob counts, or appends to the worker's delivery buffer, one
// encoded data page's matching items without going through the
// decoded-node cache.
func (e *rangeEngine) emitBlob(blob []byte, full bool, w *rangeScratch) error {
	if e.counting {
		if full {
			n, err := page.DecodeDataCount(blob)
			if err != nil {
				return err
			}
			e.t.stats.RangeFullPages.Inc()
			e.count.Add(int64(n))
			return nil
		}
		var err error
		w.items, w.coords = w.items[:0], w.coords[:0]
		w.items, w.coords, err = page.AppendDataItems(blob, w.items, w.coords)
		if err != nil {
			return err
		}
		n := int64(0)
		for i := range w.items {
			if e.rect.Contains(w.items[i].Point) {
				n++
			}
		}
		e.count.Add(n)
		return nil
	}
	// Visit mode: decode straight into the delivery buffer, points into
	// the batch's coordinate arena (handed over with it on flush, so
	// visitors may retain delivered points — the same guarantee the
	// cache-admission decode path gives).
	start := len(w.out)
	var err error
	w.out, w.outCoords, err = page.AppendDataItems(blob, w.out, w.outCoords)
	if err != nil {
		return err
	}
	if full {
		e.t.stats.RangeFullPages.Inc()
		return e.maybeFlush(w)
	}
	hits := w.out[:start]
	for _, it := range w.out[start:] {
		if e.rect.Contains(it.Point) {
			hits = append(hits, it)
		}
	}
	w.out = hits
	return e.maybeFlush(w)
}

// maybeFlush hands the delivery buffer over once it is batch-sized.
func (e *rangeEngine) maybeFlush(w *rangeScratch) error {
	if len(w.out) >= rangeFlushItems {
		e.flush(w)
	}
	return nil
}

// flush transfers ownership of the worker's accumulated matches — and
// their coordinate arena — to the delivery loop (no-op when empty or in
// counting mode), giving up if the query has been cancelled.
func (e *rangeEngine) flush(w *rangeScratch) {
	if len(w.out) == 0 {
		return
	}
	out := w.out
	w.out, w.outCoords = nil, nil // the delivery loop owns the old backings now
	select {
	case e.batches <- out:
	case <-e.done:
	}
}
