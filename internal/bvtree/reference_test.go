package bvtree

// The scalar reference of the differential tests: an entry-by-entry,
// item-by-item walk that exists only here and runs on the very tree
// under test, so a differential needs one tree, not a twin build.

import (
	"fmt"
	"sort"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/region"
)

// rangeScalar is the reference walk: a recursive descent that tests
// entries one at a time by brick intersection alone and items one at a
// time by Rect.Contains — unpruned, never marking a subtree full, reading
// Entries and Items, sharing no code with the qualifier, the walker or
// the batched masks (a page decoded from the store gives a private copy
// of them: ReadEntries, ReadItems) — so that, with the linear-scan oracles, it remains
// the trusted reference the walker is compared against. It counts
// NodeAccesses like any read.
func (t *Tree) rangeScalar(id page.ID, level int, rect geometry.Rect, visit Visitor) (bool, error) {
	if level == 0 {
		dp, sc, err := t.borrowData(id, false)
		if err != nil {
			return false, err
		}
		items := dp.ReadItems()
		t.paged.release(sc)
		for _, it := range items {
			if rect.Contains(it.Point) && !visit(it.Point, it.Payload) {
				return false, nil
			}
		}
		return true, nil
	}
	n, err := t.fetchIndex(id)
	if err != nil {
		return false, err
	}
	entries := n.ReadEntries()
	for i := range entries {
		e := &entries[i]
		if !region.BrickIntersects(e.Key, t.opt.Dims, rect) {
			continue
		}
		if cont, err := t.rangeScalar(e.Child, e.Level, rect, visit); err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// referenceItems runs the reference walk of rect on tr (no
// writer may be running) and returns the items it visits.
func referenceItems(t *testing.T, tr *Tree, rect geometry.Rect) []page.Item {
	t.Helper()
	var out []page.Item
	if _, err := tr.rangeScalar(tr.root, tr.rootLevel, rect, func(p geometry.Point, payload uint64) bool {
		out = append(out, page.Item{Point: p, Payload: payload})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceRange is referenceItems as the canonically-sorted multiset
// collect produces.
func referenceRange(t *testing.T, tr *Tree, rect geometry.Rect) []string {
	t.Helper()
	items := referenceItems(t, tr, rect)
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = fmt.Sprintf("%v/%d", it.Point, it.Payload)
	}
	sort.Strings(out)
	return out
}
