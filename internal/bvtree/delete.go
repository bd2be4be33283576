package bvtree

import (
	"fmt"
	"time"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/region"
)

// Delete removes one stored item matching point p and payload. It reports
// whether an item was removed. Underflowing data pages are merged with a
// region sharing their index node — the direct encloser when one exists,
// otherwise a directly enclosed region — and a merge whose result
// overflows is immediately re-split, which is exactly the paper's
// redistribution (§5): "joining their contents together and then splitting
// them again".
//
// The bool says whether the item left the tree, whatever the error says:
// a failure that strikes after the removal — saving the page, merging it,
// contracting the root — comes back as (true, err), and Len has already
// dropped by one. On a tree with a log it returns once the delete is
// durable.
func (t *Tree) Delete(p geometry.Point, payload uint64) (removed bool, err error) {
	var buf [maxRecordLen]byte
	err = t.commit(func() (err error) {
		if m := t.metrics; m != nil {
			defer m.Delete.ObserveSince(time.Now())
		}
		removed, err = t.deleteLocked(p, payload)
		return err
	}, t.record(buf[:0], opDelete, p, payload))
	return removed, err
}

// deleteLocked is Delete's body, factored out so ApplyBatch can run many
// deletes under one exclusive lock acquisition.
func (t *Tree) deleteLocked(p geometry.Point, payload uint64) (bool, error) {
	key, err := t.addr(p)
	if err != nil {
		return false, err
	}
	d, err := t.descendPoint(key)
	if err != nil {
		return false, err
	}
	defer putDescent(d)
	dp, err := t.wData(d.dataID)
	if err != nil {
		return false, err
	}
	if !removeItem(dp, p, payload) {
		return false, nil
	}
	t.size--
	if err := t.paged.SaveData(d.dataID, dp); err != nil {
		return true, err
	}
	if dp.Len() < t.minDataOccupancy() {
		if err := t.mergeUnderfullData(d, dp); err != nil {
			return true, err
		}
	}
	return true, t.contractRoot()
}

// minDataOccupancy is the underflow threshold: one third of capacity.
func (t *Tree) minDataOccupancy() int { return (t.opt.DataCapacity + 2) / 3 }

// removeItem deletes the first item of dp at point p with payload,
// looking only in the run of items whose first coordinate is p[0].
func removeItem(dp *page.DataPage, p geometry.Point, payload uint64) bool {
	c := dp.DCols()
	from, to := c.Run(p[0], p[0])
	for i := from; i < to; i++ {
		if c.Payload(i) == payload && c.PointAt(i, p) {
			dp.RemoveAt(i)
			return true
		}
	}
	return false
}

// mergeUnderfullData resolves an underfull data page by dissolving its
// region: the region's entry is removed and its items are reinserted
// through the ordinary insertion path, so each lands in the region that is
// now its longest prefix — the direct encloser, wherever it is stored.
// This realises the paper's merge-then-redistribute (§5) without needing
// to locate the direct encloser explicitly (which may be stored anywhere
// in the tree): re-routing *is* the merge, and any overflow the refilled
// pages suffer re-splits through the ordinary split path, which is the
// redistribution.
//
// Before committing, a pre-flight pass checks that every displaced item
// still routes somewhere with the entry removed; if not (possible when
// the region has no remaining prefix on some search path), the entry is
// restored and the underflow is deferred.
func (t *Tree) mergeUnderfullData(d *descent, dp *page.DataPage) error {
	if d.dataSrcID == page.Nil {
		return nil // root data page: nothing to merge with
	}
	// Fetched through the write choke point: a successful dissolve below
	// removes an entry from this node in place.
	node, err := t.wIndex(d.dataSrcID)
	if err != nil {
		return err
	}
	// Never dissolve the region of the whole data space, and skip pages
	// that went empty only if they can also be dissolved; an empty page
	// that cannot be dissolved simply stays.
	if dp.Region.Len() == 0 {
		return nil
	}
	// A region q can be dissolved safely only when its *direct* encloser
	// m* — the longest proper prefix of q among every level-0 region in
	// the tree — has its entry in the same node as q. Every point in q's
	// area has an index path that visits q's node (the index path is
	// determined by level ≥ 1 entries alone, which the merge does not
	// touch), so with m* co-located every such search still finds m*
	// after the merge, and the global longest-prefix invariant is
	// preserved. Enclosers stored elsewhere are not provably visible on
	// all affected paths; those merges are deferred.
	if ok, err := t.dissolveRegion(d.dataID, d.dataSrcID, node); err != nil || ok {
		return err
	}
	// Otherwise, absorb: find a region r in the same node that q directly
	// encloses (verified globally) and dissolve r instead; its items
	// refill q.
	q := dp.Region
	for _, e := range node.ReadEntries() {
		if e.Level != 0 || !q.IsProperPrefixOf(e.Key) {
			continue
		}
		encl, _, err := t.directEncloser(e.Key)
		if err != nil {
			return err
		}
		if !encl.Equal(q) {
			continue
		}
		if ok, err := t.dissolveRegion(e.Child, d.dataSrcID, node); err != nil {
			return err
		} else if ok {
			return nil
		}
	}
	t.stats.MergeDeferrals.Inc()
	return nil
}

// directEncloser returns the longest proper level-0 prefix of key present
// anywhere in the tree, together with the ID of the node holding its
// entry. It walks only the nodes whose region key is a proper prefix of
// key — the only places such entries can live, since every entry extends
// its node's region.
func (t *Tree) directEncloser(key region.BitString) (region.BitString, page.ID, error) {
	bestLen := -1
	var best region.BitString
	var bestNode page.ID
	var walk func(id page.ID) error
	walk = func(id page.ID) error {
		n, err := t.fetchIndex(id)
		if err != nil {
			return err
		}
		for _, e := range n.ReadEntries() {
			if !e.Key.IsProperPrefixOf(key) {
				continue
			}
			if e.Level == 0 {
				if e.Key.Len() > bestLen {
					bestLen, best, bestNode = e.Key.Len(), e.Key, id
				}
			} else if err := walk(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	if t.rootLevel == 0 {
		return region.BitString{}, page.Nil, nil
	}
	if err := walk(t.root); err != nil {
		return region.BitString{}, page.Nil, err
	}
	if bestLen < 0 {
		return region.BitString{}, page.Nil, nil
	}
	return best, bestNode, nil
}

// dissolveRegion removes the level-0 region stored in page victimID (entry
// in node `node`, id nodeID) and reinserts its items, provided its direct
// encloser lives in the same node. Reports whether the dissolve happened.
func (t *Tree) dissolveRegion(victimID, nodeID page.ID, node *page.IndexNode) (bool, error) {
	vp, err := t.fetchData(victimID)
	if err != nil {
		return false, err
	}
	if vp.Region.Len() == 0 {
		return false, nil
	}
	_, enclNode, err := t.directEncloser(vp.Region)
	if err != nil {
		return false, err
	}
	if enclNode == page.Nil || enclNode != nodeID {
		return false, nil
	}
	items := vp.ReadItems()
	if err := t.removeEntry(nodeID, node, victimID); err != nil {
		return false, err
	}
	if err := t.freePage(victimID); err != nil {
		return false, err
	}
	t.stats.Merges.Inc()
	// §5: the merge is insertion re-run.
	for _, it := range items {
		a, err := t.addr(it.Point)
		if err != nil {
			return true, err
		}
		if err := t.put(a, it.Point, it.Payload, true); err != nil {
			return true, err
		}
	}
	return true, nil
}

// removeEntry deletes the entry whose child is childID from node n,
// which must be writable (freshly allocated or obtained through wIndex).
func (t *Tree) removeEntry(id page.ID, n *page.IndexNode, childID page.ID) error {
	c := n.Cols()
	for i := 0; i < c.Len(); i++ {
		if c.Child(i) == childID {
			n.RemoveAt(i)
			return t.paged.SaveIndex(id, n)
		}
	}
	return fmt.Errorf("bvtree: entry for child %d not found in node %d", childID, id)
}

// contractRoot removes degenerate roots: an index root left with a single
// unpromoted entry and no guards is replaced by its child. Guards block
// contraction — they have no other home — which the paper notes as the
// price of the unbalanced structure.
func (t *Tree) contractRoot() error {
	for t.rootLevel >= 1 {
		n, err := t.fetchIndex(t.root)
		if err != nil {
			return err
		}
		c := n.Cols()
		if c.Len() != 1 || c.Level(0) != n.Level-1 {
			return nil
		}
		if err := t.freePage(t.root); err != nil {
			return err
		}
		t.root, t.rootLevel = c.Child(0), c.Level(0)
	}
	return nil
}
