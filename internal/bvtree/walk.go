package bvtree

import (
	"math/bits"
	"sync"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/region"
)

// This file is the range-traversal core. Every range and count query is
// one rangeWalker — a stack of pending index subtrees and the scan's
// scratch — which walkRange runs depth-first on the caller's goroutine
// until its stack is empty: pop a subtree, qualify its children through
// expandRange (the guard-set-pruned rule of query.go), push the index
// children, scan the data children through scanPages. Depth-first keeps
// the stack a few nodes' worth deep. A query counts when its Visitor is
// nil and calls the Visitor otherwise; either way the walk stops at the
// first Visitor false or the first error.
//
// The walk runs against a pinned epoch view (readView or a Snapshot's),
// and no tree lock is held
// meanwhile: the pin keeps every node the view can reach immutable, so
// writers commit concurrently without ever being observed mid-flight.
//
// Two mechanisms make the scan cheap:
//
//   - One column scan: every data page is lent to the walk for its scan
//     (view.borrowData) and never admitted to the cache by it, so a
//     low-selectivity scan does not flush the point-query working set. A
//     partial page is tested with one batched ContainMask64 pass per 64
//     rows (scanPage).
//   - Full containment: once a subtree's brick lies inside the query
//     rectangle (region.BrickWithin), every item below it matches; data
//     pages under it are emitted without per-point tests, and counting
//     such a page reads only its row count.

// rangeTask is one pending unit of a walk: an index subtree to qualify
// and descend. full marks the subtree's brick as contained in the query
// rectangle, which exempts the whole subtree from geometry tests.
type rangeTask struct {
	id   page.ID
	full bool
}

// rangeWalker is the state of one range or count traversal. Walkers are
// pooled, as Lookup's descents are, so that a query reuses the stack,
// child lists and arena of an earlier one instead of allocating them.
// The Visitor of a visiting walk is not part of that state — it travels
// as a parameter, so that a caller's closure stays on the caller's stack.
type rangeWalker struct {
	v     *view
	rect  geometry.Rect
	count int64 // items the walk has matched
	stack []rangeTask

	// One node's qualifying data children.
	dataIDs  []page.ID
	dataFull []bool

	// out receives one full page's items at a time. A visiting walk cuts
	// the points it hands out from coords, which only ever grows at its
	// end (room): a visitor may keep the points, so no later page, and no
	// later walk of the pooled walker, writes over them.
	out    []page.Item
	coords []uint64
}

// Arena sizes, in words: the first arena a visiting walk cuts points
// from, and the size doubling stops at.
const minArena, maxArena = 256, 1 << 16

// room makes sure coords can take k more words without relocating. A
// full arena is replaced by a fresh one, never copied: the points already
// cut from it stay where they are.
func (w *rangeWalker) room(k int) {
	if cap(w.coords)-len(w.coords) < k {
		w.coords = make([]uint64, 0, max(k, min(2*cap(w.coords), maxArena), minArena))
	}
}

var rangeWalkerPool = sync.Pool{New: func() any { return new(rangeWalker) }}

// walkRange runs one traversal of rect over v — visiting, or counting
// when visit is nil — on the calling goroutine and returns the count.
func (v *view) walkRange(rect geometry.Rect, visit Visitor) (int64, error) {
	w := rangeWalkerPool.Get().(*rangeWalker)
	w.v, w.rect, w.count = v, rect, 0
	// A rect covering the whole data space (Scan, and universe-sized
	// windows) contains every brick, so the walk skips geometry tests from
	// the root down.
	root := rangeTask{id: v.root, full: region.BrickWithin(region.BitString{}, v.opt.Dims, rect)}
	var err error
	if v.rootLevel == 0 {
		w.dataIDs, w.dataFull = append(w.dataIDs[:0], root.id), append(w.dataFull[:0], root.full)
		_, err = w.scanPages(visit)
	} else {
		err = w.drive(root, visit)
	}
	n := w.count
	// Drop the view and the query's item headers. The arena's free tail
	// waits for the next visiting walk; the pool itself forgets it within
	// two GC cycles.
	w.v, w.rect, w.out = nil, geometry.Rect{}, nil
	rangeWalkerPool.Put(w)
	return n, err
}

// drive walks the subtree of root depth-first until the stack is empty,
// the visitor declines or an error stops it: each step expands one index
// subtree through expandRange — which also runs the unbranched part of
// the descent — pushes the index children it names and scans the data
// children.
func (w *rangeWalker) drive(root rangeTask, visit Visitor) error {
	w.stack = append(w.stack[:0], root)
	for len(w.stack) > 0 {
		task := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		var err error
		w.dataIDs, w.dataFull, w.stack, err = w.v.expandRange(task, w.rect, w.dataIDs[:0], w.dataFull[:0], w.stack)
		if err != nil {
			return err
		}
		if cont, err := w.scanPages(visit); err != nil || !cont {
			return err
		}
	}
	return nil
}

// scanPages is the one page-set scan: it borrows the data pages drive
// collected in w.dataIDs, one at a time from the view's borrowData, and
// feeds their matching items, in item order, to visit or the count. It
// reports whether the walk continues. A page that gives the walk no item
// is counted in RangeEmptyPages.
//
// The rows of any page the pinned view can reach are immutable for the
// duration of the query — a writer that needs to change such a page
// captures it into its version chain and edits a clone — so reading them
// here reads stable memory.
func (w *rangeWalker) scanPages(visit Visitor) (bool, error) {
	v := w.v
	for i, id := range w.dataIDs {
		dp, sc, err := v.borrowData(id, false)
		if err != nil {
			return false, err
		}
		full := w.dataFull[i]
		if full {
			v.stats.RangeFullPages.Inc()
		}
		got, cont := w.scanPage(dp, full, visit)
		v.paged.release(sc)
		if !cont {
			return false, nil
		}
		if got == 0 {
			v.stats.RangeEmptyPages.Inc()
		}
		w.count += int64(got)
	}
	return true, nil
}

// scanPage feeds the matching items of dp to visit, or counts them when
// visit is nil, and returns how many matched and whether the walk
// continues. A page whose brick lies inside rect (full) is not tested
// per point; a partial page is tested with one batched ContainMask64
// pass per 64 items of its rows.
//
// The visitor may keep the points it is handed, so they never alias a
// page's rows: they are copied into the walk's arena — every point of a
// full page, and of a partial page only those that matched.
func (w *rangeWalker) scanPage(dp *page.DataPage, full bool, visit Visitor) (int, bool) {
	c := dp.DCols()
	switch {
	case full && visit == nil:
		return c.Len(), true
	case full:
		w.room(c.Len() * c.Dims())
		w.out, w.coords = dp.AppendItems(w.out[:0], w.coords)
		for j := range w.out {
			if !visit(w.out[j].Point, w.out[j].Payload) {
				return j + 1, false
			}
		}
		return len(w.out), true
	}
	w.v.stats.BatchTests.Inc()
	got := 0
	for base := 0; base < c.Len(); base += 64 {
		m := c.ContainMask64(w.rect, base)
		got += bits.OnesCount64(m)
		if visit == nil || m == 0 {
			continue
		}
		w.room(bits.OnesCount64(m) * c.Dims())
		for ; m != 0; m &= m - 1 {
			j := base + bits.TrailingZeros64(m)
			at := len(w.coords)
			w.coords = dp.AppendPoint(w.coords, j)
			if !visit(w.coords[at:len(w.coords):len(w.coords)], dp.Payload(j)) {
				return got, false
			}
		}
	}
	return got, true
}
