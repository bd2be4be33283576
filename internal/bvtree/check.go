package bvtree

import (
	"fmt"

	"bvtree/internal/page"
	"bvtree/internal/region"
)

// Validate walks the whole tree and verifies its structural invariants:
//
//  1. every entry key extends (or equals) its node's region key;
//  2. entry levels are consistent with node levels (unpromoted entries of
//     a level-x node have partition level x-1, guards have lower levels,
//     and a level-ℓ entry's child is an index node of level ℓ, or a data
//     page when ℓ = 0, whose own region equals the entry key);
//  3. (key, level) pairs are unique within a node;
//  4. every item of a data page has the page's region key as an address
//     prefix;
//  5. global routing correctness: for every stored item, the page holding
//     it is the one whose region key is the longest prefix of the item's
//     address among all level-0 regions in the tree — the defining
//     property of the non-intersecting recursive partitioning;
//  6. the item count equals Len().
//
// When full is true it additionally runs the guarded exact-match search of
// §3 for every stored item and verifies that it reaches the item's
// physical page with a path of exactly Height() index nodes — the paper's
// central claim that the unbalanced tree behaves as a balanced one.
func (t *Tree) Validate(full bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	defer t.endOp()

	w := &walker{t: t}
	if t.rootLevel == 0 {
		if err := w.data(t.root, region.BitString{}); err != nil {
			return err
		}
	} else {
		if err := w.index(t.root, t.rootLevel, t.root, region.BitString{}); err != nil {
			return err
		}
	}
	if w.items != t.size {
		return fmt.Errorf("bvtree: walked %d items, Len() reports %d", w.items, t.size)
	}

	// Global routing correctness (invariant 5).
	for _, leaf := range w.leaves {
		dp, sc, err := t.borrowData(leaf.id, false)
		if err != nil {
			return err
		}
		items := dp.ReadItems()
		t.paged.release(sc)
		for _, it := range items {
			a, err := t.addr(it.Point)
			if err != nil {
				return err
			}
			bestLen, bestID := -1, page.Nil
			for _, l := range w.leaves {
				if l.key.Len() > bestLen && l.key.IsPrefixOf(a) {
					bestLen, bestID = l.key.Len(), l.id
				}
			}
			if bestID != leaf.id {
				return fmt.Errorf("bvtree: item %v stored in page %d (region %v) but longest-prefix region is page %d",
					it.Point, leaf.id, leaf.key, bestID)
			}
			if full {
				d, err := t.descendPoint(a)
				if err != nil {
					return fmt.Errorf("bvtree: guarded search for %v failed: %w", it.Point, err)
				}
				if d.dataID != leaf.id {
					return fmt.Errorf("bvtree: guarded search for %v reached page %d, item stored in page %d",
						it.Point, d.dataID, leaf.id)
				}
				if len(d.steps) != t.rootLevel {
					return fmt.Errorf("bvtree: search for %v visited %d index nodes, height is %d",
						it.Point, len(d.steps), t.rootLevel)
				}
				if d.maxGuardSet > t.rootLevel {
					return fmt.Errorf("bvtree: guard set reached %d members, exceeding height %d",
						d.maxGuardSet, t.rootLevel)
				}
			}
		}
	}
	return nil
}

type leafRef struct {
	id  page.ID
	key region.BitString
}

type walker struct {
	t      *Tree
	items  int
	leaves []leafRef
}

func (w *walker) index(id page.ID, wantLevel int, viaNode page.ID, key region.BitString) error {
	n, err := w.t.fetchIndex(id)
	if err != nil {
		return fmt.Errorf("bvtree: node %d (via %d): %w", id, viaNode, err)
	}
	if err := n.CheckCols(w.t.opt.Dims); err != nil {
		return fmt.Errorf("bvtree: node %d (via %d): %w", id, viaNode, err)
	}
	if n.Level != wantLevel {
		return fmt.Errorf("bvtree: node %d has level %d, entry says %d", id, n.Level, wantLevel)
	}
	if !n.Region.Equal(key) && !(viaNode == id) {
		return fmt.Errorf("bvtree: node %d region %v does not match entry key %v", id, n.Region, key)
	}
	type kl struct {
		key   string
		level int
	}
	entries := n.ReadEntries()
	seen := make(map[kl]bool, len(entries))
	for _, e := range entries {
		if !n.Region.IsPrefixOf(e.Key) {
			return fmt.Errorf("bvtree: node %d (region %v) holds entry %v outside its region", id, n.Region, e.Key)
		}
		if e.Level < 0 || e.Level > n.Level-1 {
			return fmt.Errorf("bvtree: node %d (level %d) holds entry of level %d", id, n.Level, e.Level)
		}
		k := kl{key: e.Key.String(), level: e.Level}
		if seen[k] {
			return fmt.Errorf("bvtree: node %d holds duplicate entry (%v, level %d)", id, e.Key, e.Level)
		}
		seen[k] = true
		if e.Level == 0 {
			if err := w.data(e.Child, e.Key); err != nil {
				return err
			}
		} else {
			if err := w.index(e.Child, e.Level, id, e.Key); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *walker) data(id page.ID, key region.BitString) error {
	dp, sc, err := w.t.borrowData(id, false)
	if err != nil {
		return fmt.Errorf("bvtree: data page %d: %w", id, err)
	}
	defer w.t.paged.release(sc)
	if !dp.Region.Equal(key) {
		return fmt.Errorf("bvtree: data page %d region %v does not match entry key %v", id, dp.Region, key)
	}
	if got := dp.DCols().Dims(); got != w.t.opt.Dims {
		return fmt.Errorf("bvtree: data page %d has %d coordinate rows in a %d-dimensional tree", id, got, w.t.opt.Dims)
	}
	items := dp.ReadItems()
	for _, it := range items {
		a, err := w.t.addr(it.Point)
		if err != nil {
			return err
		}
		if !key.IsPrefixOf(a) {
			return fmt.Errorf("bvtree: data page %d (region %v) holds out-of-region item %v", id, key, it.Point)
		}
	}
	w.items += len(items)
	w.leaves = append(w.leaves, leafRef{id: id, key: key})
	return nil
}
