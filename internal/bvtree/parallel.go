package bvtree

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/region"
)

// This file is the range-traversal core. Every range and count query is
// one rangeWalker — a stack of pending index subtrees, the fetch/decode
// scratch, and a sink — advanced by one step function: qualify a
// subtree's children through expandRange (the guard-set-pruned rule of
// query.go), push the index children, scan the data children through
// scanPages. The walker is driven three ways (walkRange, drive):
//
//   - inline: workers <= 1 — the default — runs the walker depth-first
//     on the caller's goroutine until its stack is empty;
//   - spin-up: a query asked to use n > 1 workers runs the same walker on
//     the caller's goroutine but pops from the other end of the stack —
//     breadth-first — until the frontier holds enough disjoint subtrees
//     to feed a pool (spinUpFanout). Queries without that much
//     independent work complete here and never pay pool startup; a
//     point-like window is the limiting case, its frontier one subtree
//     wide all the way down;
//   - pooled: the frontier seeds a rangeEngine, whose workers each run a
//     walker of their own over whole subtrees, offloading surplus to idle
//     peers and checking the engine's stop flag between pages.
//
// The sink is what differs between RangeQuery and Count, and between the
// caller's goroutine and a worker's: count, call the Visitor, or collect
// into a delivery batch that streams back to the caller's goroutine —
// which alone invokes the user's Visitor, so the callback contract
// (single-threaded delivery, early stop on false, first error wins)
// holds at every worker count.
//
// The walk runs against a pinned epoch view (t is the view tree a
// readView call produced, not the live tree): every worker is joined
// before the query returns, and no tree lock is held meanwhile — the pin
// keeps every node the view can reach immutable, so writers commit
// concurrently without ever being observed mid-flight.
//
// Three mechanisms make the scan cheap beyond using more cores:
//
//   - Batched reads: a node's qualifying data children are fetched
//     through the store's ReadNodes seam — one lock acquisition and
//     coalesced physical I/O instead of N point reads
//     (pagedNodes.dataBatch).
//   - Streaming decode with scan resistance: pages fetched for a scan
//     are decoded into flat walker scratch (page.AppendDataItems) and
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

// rangeTask is one pending unit of a walk: an index subtree to qualify
// and descend. full marks the subtree's brick as contained in the query
// rectangle, which exempts the whole subtree from geometry tests.
type rangeTask struct {
	id   page.ID
	full bool
}

// The three sinks a walker can feed.
const (
	sinkCount   = iota // add to count
	sinkVisit          // call visit, on this goroutine
	sinkCollect        // append to out, a pool worker's delivery batch
)

// rangeWalker is the state of one range or count traversal (or of one
// pool worker's share of it). Walkers are pooled, as Lookup's descents
// are: the slices handed through the dataBatcher interface escape, so
// scratch on the caller's stack would cost allocations per query. The
// Visitor of a visiting walk is not part of that state — it travels as
// a parameter, so that a caller's closure stays on the caller's stack.
type rangeWalker struct {
	t     *Tree
	rect  geometry.Rect
	sink  int
	count int64        // sinkCount
	e     *rangeEngine // set on a pool worker

	// stack[head:] holds the pending subtrees. step pushes on the end;
	// the depth-first drivers pop there too, while the spin-up expansion
	// and a worker's offload take from head — the oldest, shallowest and
	// hence largest subtrees.
	stack []rangeTask
	head  int

	// One node's qualifying data children and their batch fetch.
	dataIDs  []page.ID
	dataFull []bool
	pages    []*page.DataPage
	blobs    [][]byte
	miss     []page.ID
	idxIDs   []page.ID
	pf       []page.ID

	// out receives blob-decoded items, their points living in coords. A
	// collecting worker accumulates matches in out across pages and tasks
	// and hands both to the delivery loop once out reaches rangeFlushItems
	// (or when the worker drains) — one channel handoff per ~32 pages
	// instead of one per page; ownership transfers on flush (the slices
	// are nilled and regrown, never reused), so neither the delivery loop
	// nor a visitor that retains points ever shares a backing array with
	// the worker. Arena growth mid-batch is safe for the reason
	// AppendDataItems documents: relocation leaves earlier points
	// referencing the orphaned backing, which stays valid. The other sinks
	// reuse out page by page; a visiting walker takes a fresh arena per
	// page set, for the same retention guarantee.
	out    []page.Item
	coords []uint64
}

var rangeWalkerPool = sync.Pool{New: func() any { return new(rangeWalker) }}

// getRangeWalker returns a walker over t for rect feeding the given
// sink. Release it with putRangeWalker.
func getRangeWalker(t *Tree, rect geometry.Rect, sink int) *rangeWalker {
	w := rangeWalkerPool.Get().(*rangeWalker)
	w.t, w.rect, w.sink = t, rect, sink
	w.count, w.stack, w.head = 0, w.stack[:0], 0
	return w
}

// putRangeWalker returns w to the pool, dropping the tree and the query's
// results. The last node's page pointers and blobs stay behind in the
// fetch scratch; the pool itself forgets them within two GC cycles.
func putRangeWalker(w *rangeWalker) {
	w.t, w.rect, w.e, w.out, w.coords = nil, geometry.Rect{}, nil, nil, nil
	rangeWalkerPool.Put(w)
}

// rangeFlushItems is the delivery batch target. Each channel send wakes
// the delivery goroutine, so batching ~32 data pages' worth of matches
// per handoff keeps scheduler traffic negligible even on low-selectivity
// scans that match hundreds of thousands of items.
const rangeFlushItems = 512

// spinUpFanout is the frontier size at which the spin-up expansion stops
// and the worker pool takes over. Requiring twice the worker count means
// every worker has a second subtree queued the moment it finishes its
// first; the floor of 16 keeps geometry, not the worker count, in charge
// of the decision for small pools.
func spinUpFanout(workers int) int {
	return max(2*workers, 16)
}

// walkRange runs one traversal of rect over t — visiting, or counting
// when visit is nil — and returns the count. workers <= 1 keeps the whole
// walk inline on the calling goroutine; more is the width of the pool
// that takes over once the frontier reaches spinUpFanout(workers).
func (t *Tree) walkRange(rect geometry.Rect, visit Visitor, workers int) (int64, error) {
	sink, spin := sinkCount, 0
	if visit != nil {
		sink = sinkVisit
	}
	if workers > 1 {
		spin = spinUpFanout(workers)
	}
	w := getRangeWalker(t, rect, sink)
	// A rect covering the whole data space (Scan, and universe-sized
	// windows) contains every brick, so the walk skips geometry tests from
	// the root down.
	root := rangeTask{id: t.root, full: region.BrickWithin(region.BitString{}, t.opt.Dims, rect)}
	var cont bool
	var err error
	if t.rootLevel == 0 {
		w.dataIDs, w.dataFull = append(w.dataIDs[:0], root.id), append(w.dataFull[:0], root.full)
		cont, err = w.scanPages(visit)
	} else {
		w.stack = append(w.stack, root)
		cont, err = w.drive(spin, visit)
	}
	n := w.count
	if err == nil && cont && len(w.stack) > w.head {
		e := &rangeEngine{t: t, rect: rect, workers: workers}
		var sub int64
		sub, err = e.run(w.stack[w.head:], visit)
		n += sub
	}
	putRangeWalker(w)
	return n, err
}

// drive steps the walker until its stack is empty (true), or the sink or
// the engine stops the walk (false). spin > 0 makes it the spin-up
// expansion, which also returns true — with the frontier left on the
// stack for the caller to seed a pool with — once the frontier reaches
// spin subtrees.
func (w *rangeWalker) drive(spin int, visit Visitor) (bool, error) {
	for len(w.stack) > w.head {
		if w.halted() {
			return false, nil
		}
		var task rangeTask
		if spin > 0 {
			if len(w.stack)-w.head >= spin {
				return true, nil
			}
			task, w.head = w.stack[w.head], w.head+1
		} else {
			// Depth-first, so the batch-read locality of sibling data pages
			// is preserved and the stack stays a few nodes' worth deep.
			task, w.stack = w.stack[len(w.stack)-1], w.stack[:len(w.stack)-1]
		}
		if cont, err := w.step(task, visit); err != nil || !cont {
			return false, err
		}
	}
	return true, nil
}

// halted reports whether the engine this walker works for has stopped.
func (w *rangeWalker) halted() bool { return w.e != nil && w.e.stopped.Load() }

// step expands one index subtree through expandRange — which also runs
// the unbranched part of the descent — pushes the index children it
// names and scans the data children.
func (w *rangeWalker) step(task rangeTask, visit Visitor) (bool, error) {
	lo := len(w.stack)
	var err error
	w.dataIDs, w.dataFull, w.stack, err = w.t.expandRange(task, w.rect, w.dataIDs[:0], w.dataFull[:0], w.stack)
	if err != nil {
		return false, err
	}
	e := w.e
	if e != nil {
		w.t.stats.RangeTasks.Inc()
		if m := w.t.metrics; m != nil { // captured into the view at pin time
			m.RangeFanout.Observe(int64(len(w.dataIDs) + len(w.stack) - lo))
		}
		// Hint the pager at the index children first: their I/O warms while
		// this worker scans the data children below.
		if pn := w.t.bsrc; pn != nil && len(w.stack) > lo {
			w.idxIDs = w.idxIDs[:0]
			for _, tk := range w.stack[lo:] {
				w.idxIDs = append(w.idxIDs, tk.id)
			}
			w.pf = pn.prefetch(w.idxIDs, w.pf)
		}
	}
	cont, err := w.scanPages(visit)
	if e != nil && err == nil {
		if len(w.out) >= rangeFlushItems {
			e.flush(w)
		}
		e.offload(w)
	}
	return cont, err
}

// scanPages is the one page-set scan: it fetches the data pages step
// collected in w.dataIDs — one coalesced fetch for the cold pages where
// the tree has a batched read seam, which hands back cached pages decoded
// and the rest as raw blobs, decoded here outside the decoded-node cache
// — and feeds the sink their matching items, in item order. A page whose
// brick lies inside rect (full) is not tested per point, and counting one
// from a blob reads only its item count; a partial page is tested with
// one batched ContainMask64 pass per 64 items of its coordinate mirror,
// and item by item, once, when it was decoded here from a blob.
//
// The items of any page the pinned view can reach are immutable for the
// duration of the query — a writer that needs to change such a page
// captures it into its version chain and mutates a clone — so reading
// them here, from any goroutine, reads stable memory, and the mirror a
// reachable page carries stays in lockstep with its items.
func (w *rangeWalker) scanPages(visit Visitor) (bool, error) {
	t, pn := w.t, w.t.bsrc
	if len(w.dataIDs) == 0 {
		return true, nil
	}
	if pn != nil {
		var err error
		w.pages, w.blobs, w.miss, err = pn.dataBatch(w.dataIDs, w.pages, w.blobs, w.miss)
		if err != nil {
			return false, err
		}
		if len(w.miss) > 0 {
			t.stats.RangeBatchPages.Add(uint64(len(w.miss)))
		}
		t.stats.NodeAccesses.Add(uint64(len(w.dataIDs)))
	}
	switch w.sink {
	case sinkCount:
		w.coords = w.coords[:0]
	case sinkVisit:
		w.coords = nil
	}
	for i, id := range w.dataIDs {
		if w.halted() {
			return false, nil
		}
		full := w.dataFull[i]
		if full {
			t.stats.RangeFullPages.Inc()
		}
		var items []page.Item
		var cols *page.DataCols // nil only for a page decoded here from a blob
		switch {
		case pn == nil:
			dp, c, err := t.dataCols(id)
			if err != nil {
				return false, err
			}
			items, cols = dp.Items, c
		case w.pages[i] != nil:
			if items, cols = w.pages[i].Items, w.pages[i].DCols(); cols == nil {
				return false, mirrorless(id)
			}
		case full && w.sink == sinkCount:
			n, err := page.DecodeDataCount(w.blobs[i])
			if err != nil {
				return false, err
			}
			w.count += int64(n)
			continue
		default:
			// Decode onto the end of out: a collecting worker then compacts
			// the matches down in place (emit never writes past the item it
			// was handed), the other sinks start from an empty out.
			start := len(w.out)
			var err error
			w.out, w.coords, err = page.AppendDataItems(w.blobs[i], w.out, w.coords)
			if err != nil {
				return false, err
			}
			items, w.out = w.out[start:], w.out[:start]
		}
		switch {
		case full && w.sink == sinkCount:
			w.count += int64(len(items))
		case !full && cols != nil:
			t.stats.BatchTests.Inc()
			for base := 0; base < cols.Len(); base += 64 {
				m := cols.ContainMask64(w.rect, base)
				if w.sink == sinkCount {
					w.count += int64(bits.OnesCount64(m))
					continue
				}
				for ; m != 0; m &= m - 1 {
					if !w.emit(&items[base+bits.TrailingZeros64(m)], visit) {
						return false, nil
					}
				}
			}
		default:
			for j := range items {
				if (full || w.rect.Contains(items[j].Point)) && !w.emit(&items[j], visit) {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// emit feeds one matching item to the sink and reports whether the walk
// continues.
func (w *rangeWalker) emit(it *page.Item, visit Visitor) bool {
	switch w.sink {
	case sinkVisit:
		return visit(it.Point, it.Payload)
	case sinkCollect:
		w.out = append(w.out, *it)
	default:
		w.count++
	}
	return true
}

// rangeEngine is the worker pool a traversal hands its frontier to.
type rangeEngine struct {
	t       *Tree
	rect    geometry.Rect
	workers int
	sink    int // the workers' sink: sinkCollect or sinkCount

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

// taskQueueCap bounds the task channel (subject to a floor of the seed
// count, so seeding never blocks). Tasks are two words, so a few
// hundred queued subtrees cost nothing, and workers offload surplus to
// the queue non-blockingly — a full queue just means the surplus stays
// on the worker's own stack.
const taskQueueCap = 256

// run walks the seed subtrees on the pool and returns the count.
// Matching items are delivered to visit on the calling goroutine; a nil
// visit counts instead.
func (e *rangeEngine) run(seeds []rangeTask, visit Visitor) (int64, error) {
	if visit != nil {
		e.sink = sinkCollect
	}
	e.tasks = make(chan rangeTask, max(taskQueueCap, len(seeds)))
	// A few batches of slack per worker, so a worker that fills one while
	// the visitor is busy with another does not stall on the handoff.
	e.batches = make(chan []page.Item, e.workers*4)
	e.done = make(chan struct{})
	// pending counts the seeds before any worker starts, and every
	// offloaded task is registered while its parent still counts, so
	// pending reaches zero — and the queue closes — only when no task is
	// queued or running.
	e.pending.Add(len(seeds))
	for _, s := range seeds {
		e.tasks <- s
	}
	e.wg.Add(e.workers)
	for i := 0; i < e.workers; i++ {
		go e.worker()
	}
	go func() {
		e.pending.Wait()
		close(e.tasks)
		e.wg.Wait()
		close(e.batches)
	}()
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

// worker walks whole subtrees from the shared queue, one walker for the
// goroutine's lifetime: the entire subtree rides on its root task's
// single pending count — per-node WaitGroup and channel traffic, which
// dominated engine overhead at one task per index node, is gone.
func (e *rangeEngine) worker() {
	defer e.wg.Done()
	w := getRangeWalker(e.t, e.rect, e.sink)
	w.e = e
	for task := range e.tasks {
		w.stack, w.head = append(w.stack[:0], task), 0
		if _, err := w.drive(0, nil); err != nil {
			e.fail(err)
		}
		e.pending.Done()
	}
	e.flush(w) // matches accumulated below the flush threshold
	e.count.Add(w.count)
	putRangeWalker(w)
}

// offload keeps the pool balanced: whenever the shared queue has run dry
// (an idle peer is the only way it stays empty), the worker ships its
// oldest pending subtrees to it, each send registering its own pending
// count, and keeps at least one task for itself (the next pop). Sends
// never block (a full queue keeps the task local), so workers cannot
// deadlock feeding each other.
func (e *rangeEngine) offload(w *rangeWalker) {
	for len(w.stack)-w.head > 1 && len(e.tasks) == 0 {
		e.pending.Add(1)
		select {
		case e.tasks <- w.stack[w.head]:
			w.head++
		default:
			e.pending.Done()
			return
		}
	}
}

// flush transfers ownership of the worker's accumulated matches — and
// their coordinate arena — to the delivery loop (no-op when there are
// none), giving up if the query has been cancelled.
func (e *rangeEngine) flush(w *rangeWalker) {
	if len(w.out) == 0 {
		return
	}
	out := w.out
	w.out, w.coords = nil, nil // the delivery loop owns the old backings now
	select {
	case e.batches <- out:
	case <-e.done:
	}
}
