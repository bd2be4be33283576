package bvtree

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
)

// Visitor receives matching items during a query. Returning false stops
// the traversal early.
type Visitor func(p geometry.Point, payload uint64) bool

// RangeQuery invokes visit for every stored item inside rect (boundaries
// inclusive). Traversal order is unspecified. The traversal runs on the
// calling goroutine, which alone calls visit, one item at a time;
// returning false stops the query early.
//
// A region's points are a subset of its brick, so only entries —
// promoted or not — whose brick intersects rect can hold matches, and
// since each page is pointed to by exactly one entry, no page is scanned
// twice. Brick intersection is sound but not tight: a guard or an
// encloser also contains every window that lies in a hole a longer
// same-level region has cut out of it. The descent therefore carries the
// §3 guard set, as the exact-match search does, and drops an entry when
// the window lies wholly inside the brick of a longer key of its own
// level (see qualifyNode): a window holding one stored point visits
// height+1 nodes, exactly what Lookup visits for that point, and wider
// windows pay for the subtrees they overlap, not for the guards above
// them.
//
// The query pins the current epoch and traverses an immutable view, so
// the tree lock is released before the first node is visited: a slow
// visitor (or a large scan) never blocks writers, and the query result
// is exactly the tree state at the moment the call started.
func (t *Tree) RangeQuery(rect geometry.Rect, visit Visitor) error {
	v := t.readView()
	defer t.releaseView(v)
	if m := v.metrics; m != nil {
		defer m.RangeQuery.ObserveSince(time.Now())
	}
	_, err := v.rangeRaw(rect, visit)
	return err
}

// RangeQueryWorkers is RangeQuery; workers is ignored.
//
// Deprecated: every range query runs inline on the calling goroutine. Use
// RangeQuery.
func (t *Tree) RangeQueryWorkers(rect geometry.Rect, visit Visitor, workers int) error {
	return t.RangeQuery(rect, visit)
}

// errRectDims is what every range and count query returns for a
// rectangle whose bounds do not both have the tree's dimensionality.
var errRectDims = errors.New("bvtree: query rect dimensions do not match the tree")

// rangeRaw is the one entry of the traversal, run on a pinned immutable
// view (or with the shared lock held, when the receiver is itself a
// view), for range queries and, with a nil visit, counts (whose result
// it returns): it validates rect and walks it.
func (t *Tree) rangeRaw(rect geometry.Rect, visit Visitor) (int64, error) {
	if len(rect.Min) != t.opt.Dims || len(rect.Max) != t.opt.Dims {
		return 0, fmt.Errorf("%w: min has %d dims, max %d, tree %d", errRectDims, len(rect.Min), len(rect.Max), t.opt.Dims)
	}
	for d := range rect.Min {
		if rect.Min[d] > rect.Max[d] {
			return 0, nil // an inverted rect contains no point
		}
	}
	return t.walkRange(rect, visit)
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
// subtree to idx.
func appendRangeChild(dataIDs []page.ID, dataFull []bool, idx []rangeTask,
	id page.ID, level int, full bool) ([]page.ID, []bool, []rangeTask) {
	if level == 0 {
		return append(dataIDs, id), append(dataFull, full), idx
	}
	return dataIDs, dataFull, append(idx, rangeTask{id: id, full: full})
}

// expandRange is how the range walker finds the children to visit below
// an index node (rangeWalker.drive, its one caller, serves every range
// and count traversal). It descends from task for as long as qualifyNode
// reports that the walk has not branched, carrying the guard set from
// node to node on its own stack, and returns dataIDs/dataFull and idx —
// the walker's stack of pending subtrees — extended by what must be
// visited next: data pages and index subtrees.
func (t *Tree) expandRange(task rangeTask, rect geometry.Rect,
	dataIDs []page.ID, dataFull []bool, idx []rangeTask) ([]page.ID, []bool, []rangeTask, error) {
	var gs rangeGuardSet
	for id, more := task.id, true; more; {
		n, c, err := t.indexCols(id)
		if err != nil {
			return dataIDs, dataFull, idx, err
		}
		dataIDs, dataFull, idx, id, more = t.qualifyNode(c, int32(n.Level-1), task.full, rect, &gs, dataIDs, dataFull, idx)
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
// the bricks it meets, nothing covers and it is the plain fan-out. A
// subtree already inside the window (parentFull) needs no geometry at
// all: containment of the parent implies containment of every child, so
// each is appended, full, straight from the columns.
//
// c is the node's columnar mirror and lim the level of its unpromoted
// entries (its index level - 1).
func (t *Tree) qualifyNode(c *page.NodeCols, lim int32, parentFull bool, rect geometry.Rect, gs *rangeGuardSet,
	dataIDs []page.ID, dataFull []bool, idx []rangeTask) (_ []page.ID, _ []bool, _ []rangeTask, next page.ID, more bool) {
	if parentFull {
		for i := 0; i < c.Len(); i++ {
			dataIDs, dataFull, idx = appendRangeChild(dataIDs, dataFull, idx, c.Child(i), c.Level(i), true)
		}
	} else {
		t.stats.BatchTests.Inc()
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
// item by item. Like RangeQuery it runs on the calling goroutine against
// a pinned immutable view, holding no tree lock during the traversal.
func (t *Tree) Count(rect geometry.Rect) (int, error) {
	v := t.readView()
	defer t.releaseView(v)
	if m := v.metrics; m != nil {
		defer m.RangeQuery.ObserveSince(time.Now())
	}
	n, err := v.rangeRaw(rect, nil)
	return int(n), err
}
