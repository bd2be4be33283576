package bvtree

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/region"
)

// guardRef is one slot of the per-level guard set: what a descent needs
// of the promoted entry it collected on the way down — its key length (the
// better match per level is the longer key) and its child — together with
// the entry's physical location (stable for the duration of one
// operation). The zero value is an empty slot.
type guardRef struct {
	ok      bool
	child   page.ID
	keyBits int
	srcID   page.ID
	srcIdx  int
}

// pathStep records one index node visited by a descent.
type pathStep struct {
	id   page.ID
	node *page.IndexNode
	// followed is the index of the entry taken within the node, or -1 when
	// the descent followed a guard-set member collected higher up.
	followed int
}

// descent is the result of an exact-match descent (§3 of the paper).
type descent struct {
	steps []pathStep
	// guardSrc[i] is the node where the guard followed at step i was
	// collected, or page.Nil when step i followed an unpromoted entry.
	guardSrc []page.ID
	dataID   page.ID
	// dataSrcID/dataSrcIdx locate the level-0 entry that won the final
	// comparison — the node it physically resides in, which is where a
	// subsequent split of the data page posts its new sibling entry.
	dataSrcID  page.ID
	dataSrcIdx int
	// maxGuardSet is the largest guard-set size observed (paper bound:
	// at most x-1 members at index level x).
	maxGuardSet int
	// guards is the per-level guard-set scratch, sized to the root level
	// at the start of the descent. It lives on the descent so the pooled
	// object carries its capacity from one operation to the next.
	guards []guardRef
}

// descentPool recycles descent objects — and, through them, the steps,
// guardSrc and guards slices — across operations. Exact-match descents are
// the hot path of every lookup, insert and delete, and without pooling
// each one costs two allocations before it reads a single node.
var descentPool = sync.Pool{New: func() any { return new(descent) }}

// getDescent returns a reset descent whose guard set holds `levels`
// slots. Callers release it with putDescent once no field is needed; on
// error paths the object may simply be dropped for the GC.
func getDescent(levels int) *descent {
	d := descentPool.Get().(*descent)
	d.steps = d.steps[:0]
	d.guardSrc = d.guardSrc[:0]
	if cap(d.guards) < levels {
		d.guards = make([]guardRef, levels)
	}
	d.guards = d.guards[:levels]
	for i := range d.guards {
		d.guards[i] = guardRef{}
	}
	d.dataID = page.Nil
	d.dataSrcID = page.Nil
	d.dataSrcIdx = -1
	d.maxGuardSet = 0
	return d
}

func putDescent(d *descent) {
	if d != nil {
		descentPool.Put(d)
	}
}

// descendPoint runs the exact-match search for a full point address and,
// when metrics are enabled, records the descent's shape: nodes visited
// (steps + final data page) and the largest guard set carried, sampled
// 1-in-16 (obs.TreeMetrics.ObserveDescent). It is the single choke point
// every exact-match descent — lookup, insert, delete, placement —
// funnels through, so the DescentDepth and GuardSet histograms see the
// whole workload.
func (v *view) descendPoint(target region.BitString) (*descent, error) {
	d, err := v.descendPointInner(target)
	if err == nil {
		if m := v.metrics; m != nil {
			m.ObserveDescent(int64(len(d.steps))+1, int64(d.maxGuardSet))
		}
	}
	return d, err
}

// descendPointInner is the uninstrumented descent (§3 of the paper). The
// correspondence between the partition hierarchy and the index hierarchy
// is reconstituted on the way down: matching guards are merged into a
// per-level guard set (keeping the better match per level), and at index
// level x the search follows whichever of the best unpromoted entry and
// the guard-set member of level x-1 matches the target better.
func (v *view) descendPointInner(target region.BitString) (*descent, error) {
	d := getDescent(v.rootLevel)
	if v.rootLevel == 0 {
		d.dataID = v.root
		return d, nil
	}
	guards := d.guards // index = partition level
	tk := page.MakePointKey(target)
	cur := v.root
	for level := v.rootLevel; level >= 1; level-- {
		n, c, err := v.indexCols(cur)
		if err != nil {
			return nil, err
		}
		if n.Level != level {
			return nil, fmt.Errorf("bvtree: node %d has index level %d, expected %d", cur, n.Level, level)
		}
		// One fused pass: merge matching guards into the guard set and
		// find the best unpromoted match.
		bestIdx, bestLen, bestChild := v.scanDescendNode(c, n.Level-1, cur, tk, guards)
		live := 0
		for i := range guards {
			if guards[i].ok {
				live++
			}
		}
		if live > d.maxGuardSet {
			d.maxGuardSet = live
		}
		g := guards[level-1]
		guards[level-1] = guardRef{} // consumed at this level either way
		var next page.ID
		switch {
		case g.ok && g.keyBits > bestLen:
			next = g.child
			d.steps = append(d.steps, pathStep{id: cur, node: n, followed: -1})
			d.guardSrc = append(d.guardSrc, g.srcID)
			if level == 1 {
				d.dataID = next
				d.dataSrcID, d.dataSrcIdx = g.srcID, g.srcIdx
				return d, nil
			}
		case bestIdx >= 0:
			next = bestChild
			d.steps = append(d.steps, pathStep{id: cur, node: n, followed: bestIdx})
			d.guardSrc = append(d.guardSrc, page.Nil)
			if level == 1 {
				d.dataID = next
				d.dataSrcID, d.dataSrcIdx = cur, bestIdx
				return d, nil
			}
		default:
			return nil, fmt.Errorf("bvtree: no entry matches %v at node %d (index level %d)", target, cur, level)
		}
		cur = next
	}
	return d, nil
}

// scanDescendNode is the per-node pass of an exact-match descent,
// shared by descendPointInner and placeEntry: entries whose key is a
// prefix of the target are either merged into the per-level guard set
// (promoted entries) or compete for the best unpromoted match, whose
// index, key length and child it returns. The prefix tests run as one
// batched Match64 pass per 64 entries of c, the columnar mirror of node
// id, whose unpromoted entries have level lim.
func (v *view) scanDescendNode(c *page.NodeCols, lim int, id page.ID, tk page.PointKey, guards []guardRef) (bestIdx, bestLen int, bestChild page.ID) {
	bestIdx, bestLen = -1, -1
	v.stats.BatchTests.Inc()
	for base := 0; base < c.Len(); base += 64 {
		for m := c.Match64(tk, base); m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			switch lv := c.Level(i); {
			case lv == lim:
				if kb := c.KeyBits(i); kb > bestLen {
					bestIdx, bestLen, bestChild = i, kb, c.Child(i)
				}
			case lv < lim && lv < len(guards):
				if kb := c.KeyBits(i); !guards[lv].ok || kb > guards[lv].keyBits {
					guards[lv] = guardRef{ok: true, child: c.Child(i), keyBits: kb, srcID: id, srcIdx: i}
				}
			}
		}
	}
	return bestIdx, bestLen, bestChild
}

// Lookup returns the payloads of all stored items at exactly point p.
// It holds the tree's shared lock: concurrent Lookups run in parallel.
func (t *Tree) Lookup(p geometry.Point) ([]uint64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lookup(p)
}

// lookup is Lookup's body on a view: the live one under the shared
// lock, or a Snapshot's.
func (v *view) lookup(p geometry.Point) ([]uint64, error) {
	defer v.endOp()
	if m := v.metrics; m != nil {
		// Metrics off cost exactly this nil check, no clock reads
		// (guarded by TestLookupDoesNotAllocate).
		defer m.Lookup.ObserveSince(time.Now())
	}
	key, err := v.addr(p)
	if err != nil {
		return nil, err
	}
	d, err := v.descendPoint(key)
	if err != nil {
		return nil, err
	}
	dataID := d.dataID
	putDescent(d)
	dp, sc, err := v.borrowData(dataID, true)
	if err != nil {
		return nil, err
	}
	out := v.payloadsAt(dp, p)
	v.paged.release(sc)
	return out, nil
}

// payloadsAt returns the payloads of dp's items at exactly point p, by
// batched equality over the coordinate columns: the payloads are only
// read for the (rare) exact matches.
func (v *view) payloadsAt(dp *page.DataPage, p geometry.Point) []uint64 {
	c := dp.DCols()
	var out []uint64
	v.stats.BatchTests.Inc()
	for base := 0; base < c.Len(); base += 64 {
		for m := c.EqualMask64(p, base); m != 0; m &= m - 1 {
			out = append(out, dp.Payload(base+bits.TrailingZeros64(m)))
		}
	}
	return out
}

// Contains reports whether any item is stored at point p.
func (t *Tree) Contains(p geometry.Point) (bool, error) {
	payloads, err := t.Lookup(p)
	return len(payloads) > 0, err
}

// SearchCost runs an exact-match descent for p and reports the number of
// nodes visited (index nodes plus the final data page) and the maximum
// guard-set size encountered. It is a measurement helper for the
// experiments of §6/§7.
func (t *Tree) SearchCost(p geometry.Point) (nodes int, maxGuardSet int, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	defer t.endOp()
	key, err := t.addr(p)
	if err != nil {
		return 0, 0, err
	}
	d, err := t.descendPoint(key)
	if err != nil {
		return 0, 0, err
	}
	nodes, maxGuardSet = len(d.steps)+1, d.maxGuardSet
	putDescent(d)
	return nodes, maxGuardSet, nil
}
