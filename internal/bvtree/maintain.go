package bvtree

import (
	"fmt"

	"bvtree/internal/page"
)

// Maintain performs the paper's demotion-without-a-split (§4/§5): guards
// that no longer enclose any higher-level boundary in their node — left
// behind by merges and deletions — are taken out and re-placed by a
// single descent each, landing at (or below) their former position. It
// returns the number of entries demoted.
//
// Maintain never affects correctness (the tree answers queries
// identically before and after); it reclaims index slots so that later
// splits stay balanced. Run it after bulk deletions.
func (t *Tree) Maintain() (_ int, err error) {
	if err := t.lockWrite(); err != nil {
		return 0, err
	}
	defer t.mu.Unlock()
	defer t.endWrite(&err)
	if t.rootLevel == 0 {
		return 0, nil
	}
	demoted := 0
	// Collect candidate nodes first: re-placing entries mutates the tree,
	// so the walk must not hold per-node state across mutations.
	var nodes []page.ID
	var collect func(id page.ID) error
	collect = func(id page.ID) error {
		n, err := t.fetchIndex(id)
		if err != nil {
			return err
		}
		nodes = append(nodes, id)
		for _, e := range n.ReadEntries() {
			if e.Level >= 1 {
				if err := collect(e.Child); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := collect(t.root); err != nil {
		return 0, err
	}

	for _, id := range nodes {
		n, err := t.fetchIndex(id)
		if err != nil {
			// The node may have been freed by a root contraction or
			// absorbed meanwhile; skip it.
			continue
		}
		// Snapshot the stale candidates: demoting one can overflow its
		// destination, and the resulting split may promote the entry
		// straight back here — rescanning after every mutation would
		// chase that cycle forever, so each candidate is attempted once.
		stale := t.staleGuards(n)
		for _, g := range stale {
			// Write fetch: removing the guard below compacts n's columns in
			// place, which must not disturb a pinned reader's view.
			n, err = t.wIndex(id)
			if err != nil {
				break
			}
			entries := n.ReadEntries()
			gi := -1
			for i, e := range entries {
				if e.Level == g.Level && e.Key.Equal(g.Key) {
					gi = i
					break
				}
			}
			if gi < 0 {
				continue // moved by an earlier demotion's side effects
			}
			// Re-check necessity: earlier demotions may have changed it.
			if needsGuard(append(entries[:gi:gi], entries[gi+1:]...), g) {
				continue
			}
			n.RemoveAt(gi)
			if err := t.paged.SaveIndex(id, n); err != nil {
				return demoted, err
			}
			ctx := newOpCtx()
			landed, err := t.placeEntry(ctx, t.root, g)
			if err != nil {
				return demoted, fmt.Errorf("bvtree: re-placing stale guard %v: %w", g.Key, err)
			}
			if landed > n.Level {
				// The guard turned out to enclose an unshielded boundary
				// at an ancestor (a later promotion introduced it above);
				// re-placement moved the guard up, which only widens its
				// visibility. Counted as a promotion, not a demotion.
				t.stats.Promotions.Inc()
				continue
			}
			demoted++
			t.stats.Demotions.Inc()
		}
	}
	return demoted, t.contractRoot()
}

// staleGuards returns the guards of n that no longer enclose (unshielded)
// any higher-level entry of n.
func (t *Tree) staleGuards(n *page.IndexNode) []page.Entry {
	var out []page.Entry
	entries := n.ReadEntries()
	for i, e := range entries {
		if e.Level >= n.Level-1 {
			continue // unpromoted
		}
		rest := append(append([]page.Entry(nil), entries[:i]...), entries[i+1:]...)
		if !needsGuard(rest, e) {
			out = append(out, e)
		}
	}
	return out
}
