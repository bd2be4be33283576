package bvtree

import (
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"bvtree/internal/geometry"
	"bvtree/internal/obs"
	"bvtree/internal/page"
	"bvtree/internal/region"
)

// Visitor receives matching items during a query. Returning false stops
// the traversal early.
type Visitor func(p geometry.Point, payload uint64) bool

// RangeQuery invokes visit for every stored item inside rect (boundaries
// inclusive). Traversal order is unspecified. visit is always called
// from the calling goroutine, one item at a time, even when the
// traversal itself runs on the parallel range engine (see
// Options.RangeWorkers); returning false stops the query early.
//
// A region's points are a subset of its brick, so only entries —
// promoted or not — whose brick intersects rect can hold matches, and
// since each page is pointed to by exactly one entry, no page is scanned
// twice and the qualifying subtrees are disjoint work, safe to
// parallelise. Brick intersection is sound but not tight: a guard or an
// encloser also contains every window that lies in a hole a longer
// same-level region has cut out of it. The descent therefore carries the
// §3 guard set, as the exact-match search does, and drops an entry when
// the window lies wholly inside the brick of a longer key of its own
// level (see qualifyNode): a window holding one stored point visits
// height+1 nodes, exactly what Lookup visits for that point, and wider
// windows pay for the subtrees they overlap, not for the guards above
// them.
func (t *Tree) RangeQuery(rect geometry.Rect, visit Visitor) error {
	return t.RangeQueryWorkers(rect, visit, 0)
}

// RangeQueryWorkers is RangeQuery with a per-query worker override:
// 0 uses the tree's default (Options.RangeWorkers), 1 forces the serial
// reference walk, n > 1 caps the engine's pool at n workers.
//
// The query pins the current epoch and traverses an immutable view, so
// the tree lock is released before the first node is visited: a slow
// visitor (or a large scan) never blocks writers, and the query result
// is exactly the tree state at the moment the call started.
func (t *Tree) RangeQueryWorkers(rect geometry.Rect, visit Visitor, workers int) error {
	if workers < 0 {
		return fmt.Errorf("bvtree: negative range worker count %d", workers)
	}
	v, release := t.readView()
	defer release()
	workers = v.rangeWorkers(workers)
	m, tr := v.metrics, v.tracer
	if m == nil && tr == nil {
		return v.rangeQueryLocked(rect, visit, workers)
	}
	start := time.Now()
	var visited int64
	err := v.rangeQueryLocked(rect, func(p geometry.Point, payload uint64) bool {
		visited++
		return visit(p, payload)
	}, workers)
	dur := time.Since(start)
	if m != nil {
		m.RangeQuery.Observe(int64(dur))
	}
	if tr != nil {
		tr.Trace(obs.Event{Layer: obs.LayerTree, Op: obs.OpRangeQuery, Dur: dur, N: visited, Err: err != nil})
	}
	return err
}

// rangeWorkers resolves a per-query worker override against the tree
// default and the machine width.
func (t *Tree) rangeWorkers(override int) int {
	w := override
	if w == 0 {
		w = t.opt.RangeWorkers
	}
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// rangeQueryLocked is the query body, run on a pinned immutable view
// (or with the shared lock held, when the receiver is itself a view).
// A view carrying a buffered-write overlay takes the merging wrapper;
// everything else runs the raw traversal directly.
func (t *Tree) rangeQueryLocked(rect geometry.Rect, visit Visitor, workers int) error {
	if ov := t.bov; ov != nil {
		return t.rangeQueryOverlay(ov, rect, visit, workers)
	}
	return t.rangeQueryRaw(rect, visit, workers)
}

// rangeQueryRaw is the overlay-free traversal: workers <= 1 runs the
// serial reference walk; otherwise the breadth-first descent engages
// the parallel engine once the frontier shows real fan-out.
func (t *Tree) rangeQueryRaw(rect geometry.Rect, visit Visitor, workers int) error {
	if rect.Dims() != t.opt.Dims {
		return fmt.Errorf("bvtree: query rect has %d dims, tree has %d", rect.Dims(), t.opt.Dims)
	}
	// A rect covering the whole data space (Scan, and universe-sized
	// windows) contains every brick, so the traversal can skip geometry
	// tests from the root down.
	full := region.BrickWithin(region.BitString{}, t.opt.Dims, rect)
	if t.rootLevel == 0 {
		_, err := t.scanData(t.root, rect, visit, full)
		return err
	}
	if workers <= 1 || !t.engineWorthwhile(rect) {
		_, err := t.rangeNode(t.root, rect, visit, full)
		return err
	}
	return t.parallelRange(rect, visit, workers)
}

// engineWorthwhile estimates how many data pages rect will touch and
// reports whether that is enough work for the parallel engine to beat
// the serial walk. The estimate is the classic uniform-density one:
// rect's fraction of the universe volume times the tree's page count.
// Point-like windows do not need it — their frontier is one subtree
// wide and never reaches the pool
// (TestParallelRangeOneItemWindowSkipsEngine); it is here for the
// windows in between (measured with it removed, DESIGN.md §11): the
// breadth-first expansion allocates its frontier and reads data pages
// through the batched seam, 7 / 24 / 67 allocations against the serial
// walk's 3 on windows of 1 / 33 / 513 items, and windows of a few
// thousand items would engage a pool whose start-up and per-batch
// delivery cost more than their scan. Skewed data can make the
// estimate low for a hot window; the
// failure mode is benign — the query runs serially and correctly, it
// just forgoes parallelism.
func (t *Tree) engineWorthwhile(rect geometry.Rect) bool {
	const minEnginePages = 64
	const two64 = float64(1 << 64)
	frac := 1.0
	for d := range rect.Min {
		frac *= (float64(rect.Max[d]-rect.Min[d]) + 1) / two64
	}
	return frac*float64(t.size) >= minEnginePages*float64(t.opt.DataCapacity)
}

// rangeNode is the serial range walk: a recursive descent with early
// stop. Which children to visit is expandRange's decision — the
// guard-set-pruned qualification, which also runs the unbranched part of
// the descent itself, so a point-like window costs one call here — taken
// into buffers on this frame's stack, so the walk allocates nothing
// until a node qualifies more children than the buffers hold. Two cases
// never reach it: a subtree whose brick lies inside rect (full) visits
// every entry with no geometry test at all, and a tree running
// Options.ScalarNodeScan tests entries one at a time by brick
// intersection alone — unpruned, never setting full, sharing no code
// with the qualifier — so that a ScalarNodeScan tree remains the trusted
// reference the differential tests compare the pruned walk (and the
// engine) against.
// Results are identical either way; visit order is unspecified.
func (t *Tree) rangeNode(id page.ID, rect geometry.Rect, visit Visitor, full bool) (bool, error) {
	if full || t.opt.ScalarNodeScan {
		n, err := t.fetchIndex(id)
		if err != nil {
			return false, err
		}
		// Iterating the node in place is safe on a pinned view: a node the
		// pin can still observe is never mutated — the first write to it
		// captures it into its version chain and mutates a clone — and cache
		// eviction only drops map references, never touches node objects.
		for i := range n.Entries {
			e := &n.Entries[i]
			if !full && !region.BrickIntersects(e.Key, t.opt.Dims, rect) {
				continue
			}
			cont, err := t.rangeChild(e.Child, e.Level, rect, visit, full)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	var (
		idBuf   [rangeNodeBuf]page.ID
		fullBuf [rangeNodeBuf]bool
		idxBuf  [rangeNodeBuf]rangeTask
	)
	dataIDs, dataFull, idx, err := t.expandRange(rangeTask{id: id}, rect, idBuf[:0], fullBuf[:0], idxBuf[:0])
	if err != nil {
		return false, err
	}
	for i, d := range dataIDs {
		cont, err := t.scanData(d, rect, visit, dataFull[i])
		if err != nil || !cont {
			return cont, err
		}
	}
	for _, k := range idx {
		cont, err := t.rangeNode(k.id, rect, visit, k.full)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// rangeNodeBuf sizes rangeNode's on-stack child buffers: twice the
// default fan-out, so only nodes of a wider-than-default tree that
// qualify almost every child spill to the heap.
const rangeNodeBuf = 32

// rangeChild dispatches one entry of rangeNode's in-place iteration.
func (t *Tree) rangeChild(id page.ID, level int, rect geometry.Rect, visit Visitor, full bool) (bool, error) {
	if level == 0 {
		return t.scanData(id, rect, visit, full)
	}
	return t.rangeNode(id, rect, visit, full)
}

func (t *Tree) scanData(id page.ID, rect geometry.Rect, visit Visitor, full bool) (bool, error) {
	dp, err := t.fetchData(id)
	if err != nil {
		return false, err
	}
	return t.scanDataPage(dp, rect, visit, full)
}

// scanDataPage emits a decoded page's matching items in item order: one
// batched ContainMask64 pass per 64 items when the page carries a fresh
// coordinate mirror, the per-item Rect.Contains test otherwise (stale
// mirror, full pages, or Options.ScalarNodeScan).
func (t *Tree) scanDataPage(dp *page.DataPage, rect geometry.Rect, visit Visitor, full bool) (bool, error) {
	if c := dp.DCols(); !full && c != nil && !t.opt.ScalarNodeScan {
		t.stats.BatchTests.Inc()
		for base := 0; base < c.Len(); base += 64 {
			for m := c.ContainMask64(rect, base); m != 0; m &= m - 1 {
				it := &dp.Items[base+bits.TrailingZeros64(m)]
				if !visit(it.Point, it.Payload) {
					return false, nil
				}
			}
		}
		return true, nil
	}
	for _, it := range dp.Items {
		if full || rect.Contains(it.Point) {
			if !visit(it.Point, it.Payload) {
				return false, nil
			}
		}
	}
	return true, nil
}

// countDataPage is scanDataPage's count-only twin (full pages are
// counted by the caller without touching items).
func (t *Tree) countDataPage(dp *page.DataPage, rect geometry.Rect) int64 {
	total := int64(0)
	if c := dp.DCols(); c != nil && !t.opt.ScalarNodeScan {
		t.stats.BatchTests.Inc()
		for base := 0; base < c.Len(); base += 64 {
			total += int64(bits.OnesCount64(c.ContainMask64(rect, base)))
		}
		return total
	}
	for _, it := range dp.Items {
		if rect.Contains(it.Point) {
			total++
		}
	}
	return total
}

// qualifyRange reports whether an entry's subtree can hold matches and
// whether its brick is fully contained in rect — the scalar,
// one-entry-at-a-time form of the test, used where expandRange has no
// columnar mirror to batch over. Containment of the parent implies
// containment of every child, so parentFull short-circuits both
// geometry tests.
func qualifyRange(en *page.Entry, parentFull bool, dims int, rect geometry.Rect) (qualifies, full bool) {
	if parentFull {
		return true, true
	}
	// Intersection first: most entries of most nodes fail it, and paying
	// the containment test only for the few that pass keeps this exactly
	// as cheap as the serial walk's single test on the reject path.
	if !region.BrickIntersects(en.Key, dims, rect) {
		return false, false
	}
	return true, region.BrickWithin(en.Key, dims, rect)
}

// maxRangeGuards caps the guard set a range descent carries. The set
// holds at most one member per partition level below the current node
// (see qualifyNode), so the cap only binds on trees taller than it; a
// candidate that finds the set full is descended unpruned, which costs
// node visits, never answers.
const maxRangeGuards = 16

// rangeGuard is one member of a range descent's guard set: an entry
// whose brick covers the whole query window (and is not itself inside
// it), remembered instead of descended because a longer same-level key
// further down the path may prove its subtree empty inside the window.
type rangeGuard struct {
	id      page.ID
	level   int32
	keyBits int32
}

// rangeGuardSet is the §3 guard set of a range descent: the longest
// window-covering key seen so far at each partition level, in no
// particular order. It lives on expandRange's stack.
type rangeGuardSet struct {
	n int
	g [maxRangeGuards]rangeGuard
}

// merge offers a window-covering candidate to the set and reports
// whether the set has dealt with it: kept as its level's longest
// covering key (displacing, and thereby pruning, a shorter member), or
// pruned itself because the set already holds a longer one. False — the
// set is full, or holds an equally long key, which the tree's
// invariants rule out but soundness must not depend on — leaves the
// candidate to the caller to descend unpruned.
func (s *rangeGuardSet) merge(c rangeGuard) bool {
	for i := range s.g[:s.n] {
		g := &s.g[i]
		if g.level != c.level {
			continue
		}
		if c.keyBits > g.keyBits {
			*g = c
			return true
		}
		return c.keyBits < g.keyBits
	}
	if s.n == maxRangeGuards {
		return false
	}
	s.g[s.n] = c
	s.n++
	return true
}

// take removes and returns the member of the given level, if any.
func (s *rangeGuardSet) take(level int32) (rangeGuard, bool) {
	for i := range s.g[:s.n] {
		if g := s.g[i]; g.level == level {
			s.n--
			s.g[i] = s.g[s.n]
			return g, true
		}
	}
	return rangeGuard{}, false
}

// appendRangeChild appends one child a range descent must visit next:
// a data page (with its containment flag) to dataIDs/dataFull, an index
// subtree to idx. The slices travel by value, not behind a struct
// pointer, so that callers' stack-backed buffers stay on the stack.
func appendRangeChild(dataIDs []page.ID, dataFull []bool, idx []rangeTask,
	id page.ID, level int, full bool) ([]page.ID, []bool, []rangeTask) {
	if level == 0 {
		return append(dataIDs, id), append(dataFull, full), idx
	}
	return dataIDs, dataFull, append(idx, rangeTask{id: id, full: full})
}

// expandRange is how every range traversal finds the children to visit
// below an index node: the serial walks (rangeNode, countNode), the
// breadth-first expansions of parallelRange and countRaw and the
// engine's runTask all call it. It descends from task for as long as
// qualifyNode reports that the walk has not branched, carrying the guard
// set from node to node on its own stack, and returns dataIDs/dataFull
// and idx extended by what must be visited next — data pages and index
// subtrees. Appending to idx is stack-friendly: callers may treat idx
// as a shared stack and truncate back to their own watermark.
func (t *Tree) expandRange(task rangeTask, rect geometry.Rect,
	dataIDs []page.ID, dataFull []bool, idx []rangeTask) ([]page.ID, []bool, []rangeTask, error) {
	var gs rangeGuardSet
	for id, more := task.id, true; more; {
		n, err := t.fetchIndex(id)
		if err != nil {
			return dataIDs, dataFull, idx, err
		}
		dataIDs, dataFull, idx, id, more = t.qualifyNode(n, task.full, rect, &gs, dataIDs, dataFull, idx)
	}
	return dataIDs, dataFull, idx, nil
}

// qualifyNode is the one place a range traversal decides which children
// of an index node to visit. It appends them to dataIDs/dataFull (data
// pages) and idx (index subtrees) — or, when the walk has not branched
// at n, returns the single index child to descend next (more = true)
// with the guard set gs to carry into it.
//
// The rule is the range generalisation of the §3 best-match search. The
// regions of one partition level are nested or disjoint, and an entry's
// subtree holds only points whose longest-prefix region at that level
// is the entry's own. So when the window lies wholly inside the bricks
// of two candidates of one level, every point of the window best-matches
// the longer key (or something longer still) and the shorter key's
// subtree holds nothing inside the window: it is dropped. Brick
// intersection alone is sound but descends every guard and encloser
// that contains the window.
//
// At a node of index level x, with one batched Intersect64 / Within64 /
// Cover64 pass per 64 entries:
//
//   - entries whose brick meets the window without covering it — or
//     lies inside it, so that nothing below can cover it — can be
//     neither pruned nor used to prune, and are appended at once;
//   - entries whose brick covers the window are merged into the guard
//     set, which keeps the longest covering key per level and so drops
//     every shorter one, carried in from above or found here;
//   - if the set then holds a level-(x-1) member and no other
//     level-(x-1) entry met the window, the walk has not branched: that
//     member is taken out as the child to descend, and the remaining
//     members (at most x-1, one per lower level: the paper's bound) ride
//     along, to be pruned by a longer key below or visited once, at
//     their own level, exactly as descendPointInner defers its guards;
//   - otherwise the walk branches here, or has reached the data pages:
//     the set is flushed, every member appended. Appended children start
//     from an empty guard set, and every entry is appended once, carried,
//     or pruned, so no page is reached twice.
//
// For a point-like window every candidate covers, so this is the
// exact-match descent and costs height+1 nodes; for a window wider than
// the bricks it meets, nothing covers and it is the plain fan-out.
// Nodes without a fresh columnar mirror, trees running
// Options.ScalarNodeScan and subtrees already inside the window
// (parentFull) take the unpruned per-entry test instead — sound, since
// pruning only ever skips work — which keeps a ScalarNodeScan tree the
// reference the pruned walk is checked against.
func (t *Tree) qualifyNode(n *page.IndexNode, parentFull bool, rect geometry.Rect, gs *rangeGuardSet,
	dataIDs []page.ID, dataFull []bool, idx []rangeTask) (_ []page.ID, _ []bool, _ []rangeTask, next page.ID, more bool) {
	c := n.Cols()
	if parentFull || c == nil || t.opt.ScalarNodeScan {
		for i := range n.Entries {
			en := &n.Entries[i]
			if q, f := qualifyRange(en, parentFull, t.opt.Dims, rect); q {
				dataIDs, dataFull, idx = appendRangeChild(dataIDs, dataFull, idx, en.Child, en.Level, f)
			}
		}
	} else {
		t.stats.BatchTests.Inc()
		lim := int32(n.Level - 1)
		branched := lim == 0 // or a level-(x-1) entry outside the guard set met the window
		for base := 0; base < c.Len(); base += 64 {
			m := c.Intersect64(rect, base)
			fm := c.Within64(rect, base, m)
			cm := c.Cover64(rect, base, m&^fm)
			for ; m != 0; m &= m - 1 {
				i, bit := base+bits.TrailingZeros64(m), m&-m
				g := rangeGuard{id: c.Child(i), level: int32(c.Level(i)), keyBits: int32(c.KeyBits(i))}
				if cm&bit != 0 && gs.merge(g) {
					continue
				}
				branched = branched || g.level == lim
				dataIDs, dataFull, idx = appendRangeChild(dataIDs, dataFull, idx, g.id, int(g.level), fm&bit != 0)
			}
		}
		if !branched {
			if g, ok := gs.take(lim); ok {
				return dataIDs, dataFull, idx, g.id, true
			}
		}
	}
	for _, g := range gs.g[:gs.n] {
		dataIDs, dataFull, idx = appendRangeChild(dataIDs, dataFull, idx, g.id, int(g.level), false)
	}
	gs.n = 0
	return dataIDs, dataFull, idx, page.Nil, false
}

// parallelRange is the engine-path descent. It expands the tree
// breadth-first on the calling goroutine — one expandRange call per
// frontier subtree, scanning qualifying data pages as they surface,
// through the batched read seam — until the frontier of qualifying index
// subtrees reaches spinUpFanout(workers), and only then hands the
// frontier to the worker pool as seeds. Queries without that much
// independent work complete during the expansion and never pay pool
// startup; a point-like window is the limiting case, its frontier one
// subtree wide all the way down.
func (t *Tree) parallelRange(rect geometry.Rect, visit Visitor, workers int) error {
	frontier := []rangeTask{{id: t.root}}
	var dataIDs []page.ID
	var dataFull []bool
	// The spin-up condition demands breadth explosion, not mere frontier
	// size: requiring the frontier to outgrow the pop count admits only
	// windows that multiply their frontier as they descend. A window just
	// past engineWorthwhile's floor meets about as many level-1 subtrees
	// as the base threshold, each a handful of pages — seeds too small to
	// repay a pool (measured with the clause removed: DESIGN.md §11).
	for pops := 0; len(frontier) > 0 && len(frontier) < spinUpFanout(workers)+pops; pops++ {
		task := frontier[0]
		frontier = frontier[:copy(frontier, frontier[1:])]
		var err error
		dataIDs, dataFull, frontier, err = t.expandRange(task, rect, dataIDs[:0], dataFull[:0], frontier)
		if err != nil {
			return err
		}
		if len(dataIDs) > 0 {
			cont, err := t.scanDataSet(dataIDs, dataFull, rect, visit)
			if err != nil || !cont {
				return err
			}
		}
	}
	if len(frontier) == 0 {
		return nil
	}
	e := newRangeEngine(t, rect, workers, false)
	return e.run(frontier, visit)
}

// scanDataSet scans a set of qualifying data pages serially through the
// batched read seam: one coalesced fetch for the cold pages, streaming
// decode outside the decoded-node cache, and no per-point containment
// test for pages whose brick lies inside rect.
func (t *Tree) scanDataSet(ids []page.ID, full []bool, rect geometry.Rect, visit Visitor) (bool, error) {
	pn := t.bsrc
	if pn == nil {
		for i, id := range ids {
			dp, err := t.fetchData(id)
			if err != nil {
				return false, err
			}
			if full[i] {
				t.stats.RangeFullPages.Inc()
			}
			cont, err := t.scanDataPage(dp, rect, visit, full[i])
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	pages, blobs, miss, err := pn.dataBatch(ids, nil, nil, nil)
	if err != nil {
		return false, err
	}
	if len(miss) > 0 {
		t.stats.RangeBatchPages.Add(uint64(len(miss)))
	}
	// Blob pages decode into one coordinate arena local to this call —
	// never reused afterwards, so visitors may retain points, which the
	// cache-admission path also permits (arena growth orphans rather than
	// overwrites earlier backings; see page.AppendDataItems).
	var coords []uint64
	for i := range ids {
		t.stats.NodeAccesses.Inc()
		if full[i] {
			t.stats.RangeFullPages.Inc()
		}
		if dp := pages[i]; dp != nil {
			cont, err := t.scanDataPage(dp, rect, visit, full[i])
			if err != nil || !cont {
				return cont, err
			}
			continue
		}
		var items []page.Item
		items, coords, err = page.AppendDataItems(blobs[i], nil, coords)
		if err != nil {
			return false, err
		}
		for j := range items {
			if full[i] || rect.Contains(items[j].Point) {
				if !visit(items[j].Point, items[j].Payload) {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// PartialMatch answers a partial-match query: values[i] constrains
// dimension i exactly when specified[i] is true; unconstrained dimensions
// range over the whole domain. This is the m-of-n attribute query the
// paper's introduction motivates; symmetry of the index means its cost
// depends only on how many dimensions are specified, not which.
func (t *Tree) PartialMatch(values geometry.Point, specified []bool, visit Visitor) error {
	if len(values) != t.opt.Dims || len(specified) != t.opt.Dims {
		return fmt.Errorf("bvtree: partial-match query shape mismatch (dims %d)", t.opt.Dims)
	}
	rect := geometry.UniverseRect(t.opt.Dims)
	for i := range values {
		if specified[i] {
			rect.Min[i], rect.Max[i] = values[i], values[i]
		}
	}
	return t.RangeQuery(rect, visit)
}

// Scan invokes visit for every stored item.
func (t *Tree) Scan(visit Visitor) error {
	return t.RangeQuery(geometry.UniverseRect(t.opt.Dims), visit)
}

// Count returns the number of items inside rect. It runs a count-only
// traversal — no per-item visitor call — in which a data page fully
// contained in rect contributes its item count without being decoded
// item by item.
func (t *Tree) Count(rect geometry.Rect) (int, error) {
	return t.CountWorkers(rect, 0)
}

// CountWorkers is Count with a per-query worker override, interpreted as
// in RangeQueryWorkers. Like RangeQueryWorkers it runs on a pinned
// immutable view, holding no tree lock during the traversal.
func (t *Tree) CountWorkers(rect geometry.Rect, workers int) (int, error) {
	if workers < 0 {
		return 0, fmt.Errorf("bvtree: negative range worker count %d", workers)
	}
	v, release := t.readView()
	defer release()
	workers = v.rangeWorkers(workers)
	m, tr := v.metrics, v.tracer
	if m == nil && tr == nil {
		n, err := v.countLocked(rect, workers)
		return int(n), err
	}
	start := time.Now()
	n, err := v.countLocked(rect, workers)
	dur := time.Since(start)
	if m != nil {
		m.RangeQuery.Observe(int64(dur))
	}
	if tr != nil {
		tr.Trace(obs.Event{Layer: obs.LayerTree, Op: obs.OpRangeQuery, Dur: dur, N: n, Err: err != nil})
	}
	return int(n), err
}

// countScratch is the reusable state of the serial count walk.
type countScratch struct {
	dataIDs  []page.ID
	dataFull []bool
	// idx is the shared subtree stack of the recursive count walk: each
	// countNode invocation appends its qualifying index children, then
	// truncates back to its entry watermark (values survive deeper
	// appends — see countNode).
	idx    []rangeTask
	pages  []*page.DataPage
	blobs  [][]byte
	miss   []page.ID
	items  []page.Item
	coords []uint64
}

// countLocked is the count body (shared lock held). On a view with a
// buffered-write overlay the raw count is corrected by the overlay's
// exact delta (capped deletes make it exact; see buffer.go).
func (t *Tree) countLocked(rect geometry.Rect, workers int) (int64, error) {
	if ov := t.bov; ov != nil {
		n, err := t.countRaw(rect, workers)
		if err != nil {
			return 0, err
		}
		return n + ov.countDelta(rect), nil
	}
	return t.countRaw(rect, workers)
}

// countRaw is the overlay-free count traversal.
func (t *Tree) countRaw(rect geometry.Rect, workers int) (int64, error) {
	if rect.Dims() != t.opt.Dims {
		return 0, fmt.Errorf("bvtree: query rect has %d dims, tree has %d", rect.Dims(), t.opt.Dims)
	}
	var cs countScratch
	if t.rootLevel == 0 {
		full := region.BrickWithin(region.BitString{}, t.opt.Dims, rect)
		return t.countDataSet([]page.ID{t.root}, []bool{full}, rect, &cs)
	}
	if workers <= 1 || !t.engineWorthwhile(rect) {
		return t.countNode(t.root, false, rect, &cs)
	}
	// The same breadth-first expansion as parallelRange (including the
	// breadth-explosion spin-up condition), in counting mode.
	frontier := []rangeTask{{id: t.root}}
	total := int64(0)
	for pops := 0; len(frontier) > 0 && len(frontier) < spinUpFanout(workers)+pops; pops++ {
		task := frontier[0]
		frontier = frontier[:copy(frontier, frontier[1:])]
		var err error
		cs.dataIDs, cs.dataFull, frontier, err = t.expandRange(task, rect, cs.dataIDs[:0], cs.dataFull[:0], frontier)
		if err != nil {
			return 0, err
		}
		if len(cs.dataIDs) > 0 {
			sub, err := t.countDataSet(cs.dataIDs, cs.dataFull, rect, &cs)
			if err != nil {
				return 0, err
			}
			total += sub
		}
	}
	if len(frontier) == 0 {
		return total, nil
	}
	e := newRangeEngine(t, rect, workers, true)
	sub, err := e.runCount(frontier)
	return total + sub, err
}

// countNode is the serial count-only traversal: expandRange names the
// children to visit below id (after running the unbranched part of the
// descent itself), the data pages among them are counted through the
// batched read seam (a fully contained page costs one item-count
// decode), then the index subtrees are recursed into. The data scratch is safe to share with
// the recursion because each node finishes its data pass before
// descending; the subtree stack is shared by watermark — this node
// re-reads its own stack entries by index after each child returns, and
// children always truncate back to the length they found, so deeper
// appends (even ones that relocate the backing array) never disturb
// the pending entries above the watermark.
func (t *Tree) countNode(id page.ID, full bool, rect geometry.Rect, cs *countScratch) (int64, error) {
	lo := len(cs.idx)
	var err error
	cs.dataIDs, cs.dataFull, cs.idx, err = t.expandRange(rangeTask{id: id, full: full}, rect, cs.dataIDs[:0], cs.dataFull[:0], cs.idx)
	if err != nil {
		cs.idx = cs.idx[:lo]
		return 0, err
	}
	total := int64(0)
	if len(cs.dataIDs) > 0 {
		total, err = t.countDataSet(cs.dataIDs, cs.dataFull, rect, cs)
		if err != nil {
			cs.idx = cs.idx[:lo]
			return 0, err
		}
	}
	for k := lo; k < len(cs.idx); k++ {
		task := cs.idx[k]
		sub, err := t.countNode(task.id, task.full, rect, cs)
		if err != nil {
			cs.idx = cs.idx[:lo]
			return 0, err
		}
		total += sub
	}
	cs.idx = cs.idx[:lo]
	return total, nil
}

// countDataSet counts the matching items of a set of qualifying data
// pages. Pages fully contained in rect are counted without a per-point
// test; on paged trees a cold fully-contained page is not even
// item-decoded (page.DecodeDataCount).
func (t *Tree) countDataSet(ids []page.ID, full []bool, rect geometry.Rect, cs *countScratch) (int64, error) {
	total := int64(0)
	pn := t.bsrc
	if pn == nil {
		for i, id := range ids {
			dp, err := t.fetchData(id)
			if err != nil {
				return 0, err
			}
			if full[i] {
				t.stats.RangeFullPages.Inc()
				total += int64(len(dp.Items))
				continue
			}
			total += t.countDataPage(dp, rect)
		}
		return total, nil
	}
	var err error
	cs.pages, cs.blobs, cs.miss, err = pn.dataBatch(ids, cs.pages, cs.blobs, cs.miss)
	if err != nil {
		return 0, err
	}
	if len(cs.miss) > 0 {
		t.stats.RangeBatchPages.Add(uint64(len(cs.miss)))
	}
	for i := range ids {
		t.stats.NodeAccesses.Inc()
		if dp := cs.pages[i]; dp != nil {
			if full[i] {
				t.stats.RangeFullPages.Inc()
				total += int64(len(dp.Items))
				continue
			}
			total += t.countDataPage(dp, rect)
			continue
		}
		if full[i] {
			n, err := page.DecodeDataCount(cs.blobs[i])
			if err != nil {
				return 0, err
			}
			t.stats.RangeFullPages.Inc()
			total += int64(n)
			continue
		}
		cs.items, cs.coords = cs.items[:0], cs.coords[:0]
		cs.items, cs.coords, err = page.AppendDataItems(cs.blobs[i], cs.items, cs.coords)
		if err != nil {
			return 0, err
		}
		for j := range cs.items {
			if rect.Contains(cs.items[j].Point) {
				total++
			}
		}
	}
	return total, nil
}
