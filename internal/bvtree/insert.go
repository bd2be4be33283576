package bvtree

import (
	"errors"
	"fmt"
	"time"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/region"
)

// opCtx carries per-operation bookkeeping: the physical parent of every
// node entered during this operation's descents. "Physical parent" means
// the node where the child's entry resides, which — because of guard
// promotion — is not necessarily one index level above the child. Split
// overflow propagates along this chain.
type opCtx struct {
	parents map[page.ID]page.ID
}

func newOpCtx() *opCtx { return &opCtx{parents: make(map[page.ID]page.ID)} }

// Insert adds an item at point p with the given payload. Duplicate points
// are allowed and accumulate. On a tree with a log it returns once the
// insert is durable.
func (t *Tree) Insert(p geometry.Point, payload uint64) error {
	var buf [maxRecordLen]byte
	return t.commit(func() error {
		if m := t.metrics; m != nil {
			defer m.Insert.ObserveSince(time.Now())
		}
		return t.insertLocked(p, payload)
	}, t.record(buf[:0], opInsert, p, payload))
}

// insertLocked is Insert's body (exclusive lock held).
func (t *Tree) insertLocked(p geometry.Point, payload uint64) error {
	key, err := t.addr(p)
	if err != nil {
		return err
	}
	return t.put(key, p, payload, false)
}

// put is the one place an item enters a data page: Insert, every
// operation of a batch and the refill of a merge (§5 re-runs insertion)
// all go through it. The item is routed by the ordinary exact-match
// descent — which yields the root itself while the root is still a data
// page — and its coordinates and payload are inserted into the rows of
// the page it lands on, fetched through wData (a private copy while a
// pinned view may still read the old one); one SaveData publishes the
// page and an overflow is resolved through splitDataPage, along the
// physical parents of the descent's path. Only a split reads those, so
// they are recorded only when the page overflows.
//
// moved marks an item a merge is re-homing: it is already counted in the
// tree's size, and an overflow it causes is a Resplit.
func (t *Tree) put(a region.BitString, p geometry.Point, payload uint64, moved bool) error {
	d, err := t.descendPoint(a)
	if err != nil {
		return err
	}
	defer putDescent(d)
	id := d.dataID
	dp, err := t.wData(id)
	if err != nil {
		return err
	}
	dp.Insert(p, payload)
	if !moved {
		t.size++
	}
	if err := t.paged.SaveData(id, dp); err != nil {
		return err
	}
	if dp.Len() <= t.opt.DataCapacity {
		return nil
	}
	if moved {
		t.stats.Resplits.Inc()
	}
	ctx := newOpCtx()
	recordParents(ctx, d)
	return t.splitDataPage(ctx, id, d.dataSrcID)
}

// recordParents enters the physical parent of every node on d's path,
// its data page included, into ctx.
func recordParents(ctx *opCtx, d *descent) {
	// Reconstruct physical parents from the recorded steps: the child
	// entered from step i resides in the entry followed at step i, whose
	// physical home is step i's node (unpromoted) or the guard's source
	// node. descendPoint stores the guard source only for the final data
	// entry, so recover intermediate guard sources by re-examining steps.
	for i := 0; i < len(d.steps); i++ {
		step := d.steps[i]
		var childID page.ID
		if i+1 < len(d.steps) {
			childID = d.steps[i+1].id
		} else {
			childID = d.dataID
		}
		if step.followed >= 0 {
			ctx.parents[childID] = step.id
		} else {
			// Followed a guard collected at some node on the path above;
			// the final data case records its source, and intermediate
			// guard hops record the source via guardSrc.
			ctx.parents[childID] = d.guardSrc[i]
		}
	}
}

// splitDataPage splits the overflowing data page dataID, whose level-0
// entry resides in node srcNodeID (page.Nil when the page is the root).
// The split always produces an inner region enclosed by the outer one
// (§4): the outer page keeps its key and its position — which may be a
// guard position — and the new inner entry is placed by a single
// placement descent.
func (t *Tree) splitDataPage(ctx *opCtx, dataID, srcNodeID page.ID) error {
	dp, err := t.wData(dataID)
	if err != nil {
		return err
	}
	// The items' addresses are cut from one slab: a split computes one
	// per item, some 170 on a default page.
	addrs := make([]region.BitString, dp.Len())
	words, dims := make([]uint64, dp.Len()*t.opt.Dims), t.opt.Dims
	var pt [geometry.MaxDims]uint64
	for i := range addrs {
		a, err := t.addrIn(words[i*dims:(i+1)*dims:(i+1)*dims], dp.AppendPoint(pt[:0], i))
		if err != nil {
			return err
		}
		addrs[i] = a
	}
	choice, err := region.ChooseSplit(dp.Region, addrs)
	if errors.Is(err, region.ErrCannotSplit) {
		// Pathological duplicate data: tolerate an oversized page rather
		// than lose the non-intersection invariant.
		t.stats.SoftOverflows.Inc()
		return nil
	}
	if err != nil {
		return err
	}
	q := choice.Prefix
	innerID, inner, err := t.paged.AllocData(q)
	if err != nil {
		return err
	}
	inner.Reserve(t.dataRows())
	dp.MoveTo(inner, func(i int) bool { return q.IsPrefixOf(addrs[i]) })
	t.stats.DataSplits.Inc()
	if err := t.paged.SaveData(dataID, dp); err != nil {
		return err
	}
	if err := t.paged.SaveData(innerID, inner); err != nil {
		return err
	}

	entry := page.Entry{Key: q, Level: 0, Child: innerID}
	srcLevel := 0
	if srcNodeID != page.Nil {
		if sn, err := t.st.Index(srcNodeID); err == nil {
			srcLevel = sn.Level
		}
	}
	if srcNodeID == page.Nil {
		// The root itself was a data page: grow a one-level index.
		rootID, rootNode, err := t.allocIndex(1, dp.Region)
		if err != nil {
			return err
		}
		rootNode.Append(page.Entry{Key: dp.Region, Level: 0, Child: dataID})
		rootNode.Append(entry)
		if err := t.paged.SaveIndex(rootID, rootNode); err != nil {
			return err
		}
		t.root = rootID
		t.rootLevel = 1
		t.stats.RootGrowths.Inc()
	} else {
		// Place the inner entry by a single descent from the root (§4):
		// starting lower would miss guards collected above, and the stop
		// rule may legitimately park the new region at any level where it
		// encloses an existing boundary.
		landed, err := t.placeEntry(ctx, t.root, entry)
		if err != nil {
			return err
		}
		// §4: when a promoted (guard) region splits, the inner half may
		// be demotable towards its natural level.
		if srcLevel > 1 && landed < srcLevel {
			t.stats.Demotions.Inc()
		}
	}
	return t.resplitOversized(ctx, dataID, innerID)
}

// resplitOversized handles the rare recovery case where a split of a page
// that had soft-overflowed leaves a half still above capacity: it
// re-descends and splits again.
func (t *Tree) resplitOversized(ctx *opCtx, ids ...page.ID) error {
	for _, id := range ids {
		for {
			dp, err := t.fetchData(id)
			if err != nil {
				return err
			}
			if dp.Len() <= t.opt.DataCapacity {
				break
			}
			var pt [geometry.MaxDims]uint64
			a, err := t.addr(dp.AppendPoint(pt[:0], 0))
			if err != nil {
				return err
			}
			d, err := t.descendPoint(a)
			if err != nil {
				return err
			}
			c2 := newOpCtx()
			recordParents(c2, d)
			gotID, srcID := d.dataID, d.dataSrcID
			putDescent(d)
			if gotID != id {
				return fmt.Errorf("bvtree: oversized page %d not reachable by its own items (got %d)", id, gotID)
			}
			before := t.stats.DataSplits.Load() + t.stats.SoftOverflows.Load()
			if err := t.splitDataPage(c2, id, srcID); err != nil {
				return err
			}
			if t.stats.DataSplits.Load()+t.stats.SoftOverflows.Load() == before {
				break // no progress possible
			}
			if t.stats.SoftOverflows.Load() > 0 {
				// Tolerated oversize; stop to avoid looping.
				break
			}
		}
	}
	return nil
}

// placeEntry inserts entry e into the subtree reachable from startID,
// following the paper's demotion/insertion procedure (§4): a single
// descent that stops either at e's natural index level (e.Level+1) or at
// the first node containing a higher-level entry whose region e encloses —
// in which case e must remain there as a guard, because its region
// straddles that entry's boundary. It returns the index level of the node
// that received the entry.
func (t *Tree) placeEntry(ctx *opCtx, startID page.ID, e page.Entry) (int, error) {
	cur := startID
	n, c, err := t.indexCols(cur)
	if err != nil {
		return 0, err
	}
	var guards []guardRef
	tk := page.MakePointKey(e.Key)
	for {
		if n.Level == e.Level+1 || c.Extends(e.Key, e.Level) && needsGuard(n.ReadEntries(), e) {
			return n.Level, t.insertIntoNode(ctx, cur, e)
		}
		if n.Level <= e.Level {
			return 0, fmt.Errorf("bvtree: placement of level-%d entry reached index level %d", e.Level, n.Level)
		}
		if guards == nil {
			guards = make([]guardRef, n.Level)
		}
		// The same fused guard-merge + best-match pass as the point
		// descent, with e's own key as the target.
		bestIdx, bestLen, bestChild := t.scanDescendNode(c, n.Level-1, cur, tk, guards)
		g := guards[n.Level-1]
		guards[n.Level-1] = guardRef{}
		var next page.ID
		var parent page.ID
		switch {
		case g.ok && g.keyBits > bestLen:
			next, parent = g.child, g.srcID
		case bestIdx >= 0:
			next, parent = bestChild, cur
		default:
			return 0, fmt.Errorf("bvtree: no route for entry %v (level %d) at node %d", e.Key, e.Level, cur)
		}
		ctx.parents[next] = parent
		cur = next
		n, c, err = t.indexCols(cur)
		if err != nil {
			return 0, err
		}
	}
}

// needsGuard reports whether e must stay at a node holding entries: some
// higher-level entry's region boundary lies inside e's region, so e's
// region straddles a partition boundary represented there and must stay
// visible to searches descending either side of it.
//
// A region's point set is its brick minus the bricks of same-level regions
// it encloses, so e is "shielded" from a boundary s when another region of
// e's own level sits between e and s: the boundary then lies in one of e's
// holes and e's actual point set does not straddle it. This is the paper's
// direct-enclosure refinement (§2, §4) and is what bounds the number of
// guards per node to at most one per partition level per unpromoted entry.
func needsGuard(entries []page.Entry, e page.Entry) bool {
	for i := range entries {
		s := &entries[i]
		if s.Level > e.Level && e.Key.IsProperPrefixOf(s.Key) && !shielded(entries, e, s.Key) {
			return true
		}
	}
	return false
}

// chooseIndexSplit selects the split prefix for an overflowing index
// node: among every prefix of the node's entry keys (strictly extending
// the node region), pick the one maximising min(inner, outer) after
// accounting for promotions — entries whose key is an unshielded proper
// prefix of the boundary leave for the parent and count towards neither
// side. A plain 1/3–2/3 descent over the unpromoted keys (as used for
// data pages) is blind to promotion chains and can strand an empty or
// singleton outer node; this chooser degrades gracefully instead,
// achieving the balanced split whenever one exists. ok is false when no
// prefix separates the entries, those of a node whose region is reg.
func chooseIndexSplit(reg region.BitString, entries []page.Entry) (region.BitString, bool) {
	seen := make(map[string]region.BitString)
	for _, e := range entries {
		for l := reg.Len() + 1; l <= e.Key.Len(); l++ {
			p := e.Key.Prefix(l)
			seen[p.String()] = p
		}
	}
	var best region.BitString
	bestScore, bestProm, bestLen := -1, 1<<30, -1
	for _, q := range seen {
		inner, outer, prom := 0, 0, 0
		for _, e := range entries {
			switch {
			case q.IsPrefixOf(e.Key):
				inner++
			case e.Key.IsProperPrefixOf(q) && !shielded(entries, e, q):
				prom++
			default:
				outer++
			}
		}
		if inner == 0 || inner == len(entries) {
			continue
		}
		score := inner
		if outer < score {
			score = outer
		}
		// Prefer better balance, then fewer promotions (each promotion
		// costs a parent slot until demoted), then shallower boundaries;
		// the key breaks the remaining ties, so that the choice does not
		// depend on the order in which the map yields the candidates.
		if score > bestScore ||
			(score == bestScore && prom < bestProm) ||
			(score == bestScore && prom == bestProm && q.Len() < bestLen) ||
			(score == bestScore && prom == bestProm && q.Len() == bestLen && q.Compare(best) < 0) {
			best, bestScore, bestProm, bestLen = q, score, prom, q.Len()
		}
	}
	if bestScore < 1 {
		return region.BitString{}, false
	}
	return best, true
}

// shielded reports whether some entry of e's level among entries lies
// strictly between e and the boundary key: e.Key ⊊ g.Key ⊑ boundary.
func shielded(entries []page.Entry, e page.Entry, boundary region.BitString) bool {
	for i := range entries {
		g := &entries[i]
		if g.Level == e.Level && e.Key.IsProperPrefixOf(g.Key) && g.Key.IsPrefixOf(boundary) {
			return true
		}
	}
	return false
}

// insertIntoNode appends e to node id and resolves overflow by
// splitting the node. The node is fetched through the copy-on-write
// choke point so the append cannot disturb a pinned reader's view.
func (t *Tree) insertIntoNode(ctx *opCtx, id page.ID, e page.Entry) error {
	n, err := t.wIndex(id)
	if err != nil {
		return err
	}
	n.Append(e)
	if err := t.paged.SaveIndex(id, n); err != nil {
		return err
	}
	if n.Len() > t.capacity(n.Level) {
		return t.splitIndexNode(ctx, id, n)
	}
	return nil
}

// splitIndexNode splits an overflowing index node. The split prefix is
// chosen over the node's unpromoted entry keys with the 1/3–2/3
// guarantee; every entry whose key is a proper prefix of the chosen
// boundary — including already-promoted guards, per the generalised
// promotion rule of §2 — is promoted to the physical parent alongside the
// new inner entry. n must be writable: either freshly allocated or
// obtained through wIndex, never a plain fetch.
func (t *Tree) splitIndexNode(ctx *opCtx, id page.ID, n *page.IndexNode) error {
	entries := n.ReadEntries()
	q, ok := chooseIndexSplit(n.Region, entries)
	if !ok {
		t.stats.SoftOverflows.Inc()
		return nil
	}

	var innerEntries, promoted []page.Entry
	outer := make([]bool, len(entries))
	for i, en := range entries {
		switch {
		case q.IsPrefixOf(en.Key):
			innerEntries = append(innerEntries, en)
		case en.Key.IsProperPrefixOf(q):
			// en's region straddles the new boundary q — unless a region
			// of en's own level lies between en and q, in which case q's
			// brick is inside one of en's holes and en's point set stays
			// entirely on the outer side. Only the unshielded (tightest
			// per level) straddlers are promoted; this is what bounds
			// guard accumulation to the paper's (x-1) per unpromoted
			// entry.
			if shielded(entries, en, q) {
				outer[i] = true
			} else {
				promoted = append(promoted, en)
			}
		default:
			outer[i] = true
		}
	}
	n.Retain(func(i int) bool { return outer[i] })
	t.stats.IndexSplits.Inc()
	t.stats.Promotions.Add(uint64(len(promoted)))
	if err := t.paged.SaveIndex(id, n); err != nil {
		return err
	}

	var innerPost page.Entry
	if len(innerEntries) == 1 {
		// Degenerate inner side: region q's entire content is one region
		// that coincides with (or fills) it. Wrapping it in a node of its
		// own would create a single-entry node below the occupancy floor;
		// posting the entry itself is equivalent — the guard-set search
		// routes through it exactly as it routes through any promoted
		// entry.
		innerPost = innerEntries[0]
	} else {
		innerID, inner, err := t.allocIndex(n.Level, q)
		if err != nil {
			return err
		}
		for _, en := range innerEntries {
			inner.Append(en)
		}
		if err := t.paged.SaveIndex(innerID, inner); err != nil {
			return err
		}
		innerPost = page.Entry{Key: q, Level: n.Level, Child: innerID}
	}

	newEntries := append([]page.Entry{innerPost}, promoted...)

	parentID, hasParent := ctx.parents[id]
	if !hasParent {
		if id != t.root {
			return fmt.Errorf("bvtree: split of node %d has no recorded parent and is not the root", id)
		}
		rootID, rootNode, err := t.allocIndex(n.Level+1, n.Region)
		if err != nil {
			return err
		}
		rootNode.Append(page.Entry{Key: n.Region, Level: n.Level, Child: id})
		for _, en := range newEntries {
			rootNode.Append(en)
		}
		if err := t.paged.SaveIndex(rootID, rootNode); err != nil {
			return err
		}
		t.root = rootID
		t.rootLevel = rootNode.Level
		t.stats.RootGrowths.Inc()
		if rootNode.Len() > t.capacity(rootNode.Level) {
			// A root split promotes (at most) one guard per partition
			// level, so when the fan-out is small relative to the height
			// a fresh root can exceed capacity immediately and splitting
			// it again cannot converge. The paper's remedy is a fan-out
			// that grows with the level (§6, §7.3 — LevelScaledPages);
			// with uniform pages we accept a temporarily oversized root
			// and record it.
			if t.opt.LevelScaledPages {
				return t.splitIndexNode(ctx, rootID, rootNode)
			}
			if rootNode.Len() <= 2+rootNode.Level {
				t.stats.SoftOverflows.Inc()
				return nil
			}
			return t.splitIndexNode(ctx, rootID, rootNode)
		}
		return nil
	}

	parent, err := t.wIndex(parentID)
	if err != nil {
		return err
	}
	for _, en := range newEntries {
		parent.Append(en)
	}
	if err := t.paged.SaveIndex(parentID, parent); err != nil {
		return err
	}
	if parent.Len() > t.capacity(parent.Level) {
		return t.splitIndexNode(ctx, parentID, parent)
	}
	return nil
}
