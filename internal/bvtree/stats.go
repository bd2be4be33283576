package bvtree

import (
	"fmt"
	"strings"

	"bvtree/internal/page"
)

// LevelStats summarises the index nodes of one index level.
type LevelStats struct {
	Nodes       int
	Entries     int
	Unpromoted  int
	Guards      int
	MinEntries  int
	MaxEntries  int
	MinOccPct   float64 // minimum occupancy relative to capacity
	AvgOccPct   float64
	MaxGuardsIn int // most guards found in a single node
}

// TreeStats is a structural snapshot produced by a full walk.
type TreeStats struct {
	Height       int
	Items        int
	DataPages    int
	DataMinOcc   float64 // min items/capacity over data pages (excl. a lone root)
	DataAvgOcc   float64
	DataMinItems int
	IndexLevels  map[int]*LevelStats
	TotalGuards  int
	// GuardShare is guards / total index entries.
	GuardShare float64
	// NodeBytes is the encoded size of every index node and data page,
	// what the tree's nodes take of the store's slots.
	NodeBytes int
}

// CollectStats walks the tree and gathers occupancy and guard statistics.
func (t *Tree) CollectStats() (*TreeStats, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.collectStats()
}

// collectStats is CollectStats' body on a view.
func (v *view) collectStats() (*TreeStats, error) {
	defer v.endOp()
	s := &TreeStats{Height: v.rootLevel, IndexLevels: make(map[int]*LevelStats)}
	var sumDataOcc float64
	err := v.preorder(func(w *walkStep) error {
		if w.Level == 0 {
			dp, sc, err := v.borrowData(w.Child, false)
			if err != nil {
				return err
			}
			defer v.paged.release(sc)
			first := s.DataPages == 0
			s.DataPages++
			s.Items += dp.Len()
			s.NodeBytes += len(page.EncodeData(dp, v.opt.Dims))
			occ := float64(dp.Len()) / float64(v.opt.DataCapacity)
			sumDataOcc += occ
			if first || occ < s.DataMinOcc {
				s.DataMinOcc = occ
			}
			if first || dp.Len() < s.DataMinItems {
				s.DataMinItems = dp.Len()
			}
			return nil
		}
		n, entries := w.node, w.entries
		ls := s.IndexLevels[n.Level]
		if ls == nil {
			ls = &LevelStats{MinEntries: 1 << 30}
			s.IndexLevels[n.Level] = ls
		}
		ls.Nodes++
		s.NodeBytes += len(page.EncodeIndex(n))
		ls.Entries += len(entries)
		guards := 0
		for _, e := range entries {
			if e.Level == n.Level-1 {
				ls.Unpromoted++
			} else {
				ls.Guards++
				guards++
			}
		}
		ls.MaxGuardsIn = max(ls.MaxGuardsIn, guards)
		ls.MinEntries = min(ls.MinEntries, len(entries))
		ls.MaxEntries = max(ls.MaxEntries, len(entries))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s.DataPages > 0 {
		s.DataAvgOcc = sumDataOcc / float64(s.DataPages)
	}
	totalEntries := 0
	for lvl, ls := range s.IndexLevels {
		cap := float64(v.capacity(lvl))
		if ls.Nodes > 0 {
			ls.MinOccPct = float64(ls.MinEntries) / cap * 100
			ls.AvgOccPct = float64(ls.Entries) / float64(ls.Nodes) / cap * 100
		}
		totalEntries += ls.Entries
		s.TotalGuards += ls.Guards
	}
	if totalEntries > 0 {
		s.GuardShare = float64(s.TotalGuards) / float64(totalEntries)
	}
	return s, nil
}

// String renders a compact human-readable summary.
func (s *TreeStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "height=%d items=%d dataPages=%d dataOcc(min=%.0f%% avg=%.0f%%) guards=%d (%.1f%%)\n",
		s.Height, s.Items, s.DataPages, s.DataMinOcc*100, s.DataAvgOcc*100, s.TotalGuards, s.GuardShare*100)
	for lvl := 1; lvl <= s.Height; lvl++ {
		if ls, ok := s.IndexLevels[lvl]; ok {
			fmt.Fprintf(&b, "  L%d: nodes=%d entries=%d (guards=%d, maxGuards/node=%d) occ(min=%.0f%% avg=%.0f%%)\n",
				lvl, ls.Nodes, ls.Entries, ls.Guards, ls.MaxGuardsIn, ls.MinOccPct, ls.AvgOccPct)
		}
	}
	return b.String()
}

// Dump writes an indented rendering of the whole tree structure, useful
// for debugging and for the worked-example tests that replay the paper's
// figures.
func (t *Tree) Dump() (string, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.dump()
}

// dump is Dump's body on a view: each node at two indents per index
// node above it, each entry one indent in from its node, above the node
// it names.
func (v *view) dump() (string, error) {
	defer v.endOp()
	var b strings.Builder
	err := v.preorder(func(s *walkStep) error {
		ind := strings.Repeat("  ", 2*s.depth)
		if s.parent != nil {
			tag := ""
			if s.IsGuard(s.parent.Level) {
				tag = " [guard]"
			}
			fmt.Fprintf(&b, "%sentry key=%v level=%d%s ->\n", ind[2:], s.Key, s.Level, tag)
		}
		if s.Level > 0 {
			fmt.Fprintf(&b, "%snode %d L%d region=%v entries=%d\n", ind, s.Child, s.node.Level, s.node.Region, len(s.entries))
			return nil
		}
		dp, sc, err := v.borrowData(s.Child, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%sdata %d region=%v items=%d\n", ind, s.Child, dp.Region, dp.Len())
		v.paged.release(sc)
		return nil
	})
	if err != nil {
		return "", err
	}
	return b.String(), nil
}
