package bvtree

import (
	"encoding/binary"
	"fmt"
	"slices"

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
	return t.validate(full)
}

// validate is Validate's body on a view.
func (v *view) validate(full bool) error {
	defer v.endOp()
	var leaves []leafRef
	items := 0
	err := v.preorder(func(s *walkStep) error {
		if s.Level > 0 {
			return v.checkIndex(s)
		}
		n, err := v.checkData(s.Child, s.Key)
		items += n
		leaves = append(leaves, leafRef{id: s.Child, key: s.Key})
		return err
	})
	if err != nil {
		return err
	}
	if items != v.size {
		return fmt.Errorf("bvtree: walked %d items, Len() reports %d", items, v.size)
	}

	// Global routing correctness (invariant 5): an item's page must be
	// the first leaf, in walk order, whose key is the longest leaf key
	// prefixing the item's address. Leaf keys are indexed by their bits,
	// so an item is looked up only at the leaf-key lengths longer than
	// its own page's key, which prefixes its address (invariant 4).
	first := make(map[string]page.ID, len(leaves))
	var lens []int // distinct leaf-key lengths, longest first
	var buf []byte
	for _, l := range leaves {
		buf = bitsKey(buf, l.key, l.key.Len())
		if _, ok := first[string(buf)]; !ok {
			first[string(buf)] = l.id
		}
		if !slices.Contains(lens, l.key.Len()) {
			lens = append(lens, l.key.Len())
		}
	}
	slices.Sort(lens)
	slices.Reverse(lens)
	for _, leaf := range leaves {
		dp, sc, err := v.borrowData(leaf.id, false)
		if err != nil {
			return err
		}
		items := dp.ReadItems()
		v.paged.release(sc)
		own := first[string(bitsKey(buf, leaf.key, leaf.key.Len()))]
		for _, it := range items {
			a, err := v.addr(it.Point)
			if err != nil {
				return err
			}
			bestID := own
			for _, n := range lens {
				if n <= leaf.key.Len() {
					break
				}
				if id, ok := first[string(bitsKey(buf, a, n))]; ok {
					bestID = id
					break
				}
			}
			if bestID != leaf.id {
				return fmt.Errorf("bvtree: item %v stored in page %d (region %v) but longest-prefix region is page %d",
					it.Point, leaf.id, leaf.key, bestID)
			}
			if full {
				d, err := v.descendPoint(a)
				if err != nil {
					return fmt.Errorf("bvtree: guarded search for %v failed: %w", it.Point, err)
				}
				if d.dataID != leaf.id {
					return fmt.Errorf("bvtree: guarded search for %v reached page %d, item stored in page %d",
						it.Point, d.dataID, leaf.id)
				}
				if len(d.steps) != v.rootLevel {
					return fmt.Errorf("bvtree: search for %v visited %d index nodes, height is %d",
						it.Point, len(d.steps), v.rootLevel)
				}
				if d.maxGuardSet > v.rootLevel {
					return fmt.Errorf("bvtree: guard set reached %d members, exceeding height %d",
						d.maxGuardSet, v.rootLevel)
				}
			}
		}
	}
	return nil
}

// bitsKey sets dst to a map key for the first n bits of b: n, then the
// words holding them, the last one masked.
func bitsKey(dst []byte, b region.BitString, n int) []byte {
	dst = binary.LittleEndian.AppendUint16(dst[:0], uint16(n))
	w := b.Words()
	for i := 0; i < n/64; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, w[i])
	}
	if r := n % 64; r != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, w[n/64]&(^uint64(0)<<(64-r)))
	}
	return dst
}

type leafRef struct {
	id  page.ID
	key region.BitString
}

// checkIndex checks invariants 1 to 3 at the index node s names.
func (v *view) checkIndex(s *walkStep) error {
	n, id := s.node, s.Child
	if err := n.CheckCols(v.opt.Dims); err != nil {
		return fmt.Errorf("bvtree: node %d: %w", id, err)
	}
	if n.Level != s.Level {
		return fmt.Errorf("bvtree: node %d has level %d, entry says %d", id, n.Level, s.Level)
	}
	if s.parent != nil && !n.Region.Equal(s.Key) {
		return fmt.Errorf("bvtree: node %d region %v does not match entry key %v", id, n.Region, s.Key)
	}
	type kl struct {
		key   string
		level int
	}
	seen := make(map[kl]bool, len(s.entries))
	for _, e := range s.entries {
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
	}
	return nil
}

// checkData checks invariant 4 at data page id, named by key, and
// returns its item count.
func (v *view) checkData(id page.ID, key region.BitString) (int, error) {
	dp, sc, err := v.borrowData(id, false)
	if err != nil {
		return 0, fmt.Errorf("bvtree: data page %d: %w", id, err)
	}
	defer v.paged.release(sc)
	if !dp.Region.Equal(key) {
		return 0, fmt.Errorf("bvtree: data page %d region %v does not match entry key %v", id, dp.Region, key)
	}
	if got := dp.DCols().Dims(); got != v.opt.Dims {
		return 0, fmt.Errorf("bvtree: data page %d has %d coordinate rows in a %d-dimensional tree", id, got, v.opt.Dims)
	}
	items := dp.ReadItems()
	for _, it := range items {
		a, err := v.addr(it.Point)
		if err != nil {
			return 0, err
		}
		if !key.IsPrefixOf(a) {
			return 0, fmt.Errorf("bvtree: data page %d (region %v) holds out-of-region item %v", id, key, it.Point)
		}
	}
	return len(items), nil
}

// walkStep is one node of a whole-tree walk (view.preorder), with the
// entry that names it.
type walkStep struct {
	page.Entry                 // Child is the node, a data page when Level is 0; the root's Key is empty
	parent     *page.IndexNode // the node holding the entry; nil at the root
	depth      int             // the index nodes above the node
	node       *page.IndexNode // the node itself when Level > 0, with its entries
	entries    []page.Entry
}

// preorder is the one walk of the whole tree, for the readers that
// visit every node (Validate, CollectStats, Dump) and for Maintain's
// collection of index nodes. It hands visit each node before the nodes
// its entries name: an index node fetched once, with its entries read
// out; a data page by its ID only, for visit to borrow if it needs it.
// The first error stops the walk. Three walks stay apart from it:
// indexNodes reads through peekIndex, which moves no cache state;
// directEncloser prunes by key; and the backup stream needs level order.
func (v *view) preorder(visit func(*walkStep) error) error {
	return v.preorderFrom(walkStep{Entry: page.Entry{Level: v.rootLevel, Child: v.root}}, visit)
}

func (v *view) preorderFrom(s walkStep, visit func(*walkStep) error) error {
	if s.Level > 0 {
		n, err := v.fetchIndex(s.Child)
		if err != nil {
			return fmt.Errorf("bvtree: node %d: %w", s.Child, err)
		}
		s.node, s.entries = n, n.ReadEntries()
	}
	if err := visit(&s); err != nil {
		return err
	}
	for _, e := range s.entries {
		if err := v.preorderFrom(walkStep{Entry: e, parent: s.node, depth: s.depth + 1}, visit); err != nil {
			return err
		}
	}
	return nil
}
