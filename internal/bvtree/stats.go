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
	defer t.endOp()

	s := &TreeStats{Height: t.rootLevel, IndexLevels: make(map[int]*LevelStats)}
	var sumDataOcc float64
	first := true

	var walkData func(id page.ID) error
	walkData = func(id page.ID) error {
		dp, sc, err := t.borrowData(id, false)
		if err != nil {
			return err
		}
		defer t.paged.release(sc)
		s.DataPages++
		s.Items += dp.Len()
		s.NodeBytes += len(page.EncodeData(dp, t.opt.Dims))
		occ := float64(dp.Len()) / float64(t.opt.DataCapacity)
		sumDataOcc += occ
		if first || occ < s.DataMinOcc {
			s.DataMinOcc = occ
		}
		if first || dp.Len() < s.DataMinItems {
			s.DataMinItems = dp.Len()
		}
		first = false
		return nil
	}

	var walkIndex func(id page.ID) error
	walkIndex = func(id page.ID) error {
		n, err := t.fetchIndex(id)
		if err != nil {
			return err
		}
		ls := s.IndexLevels[n.Level]
		if ls == nil {
			ls = &LevelStats{MinEntries: 1 << 30}
			s.IndexLevels[n.Level] = ls
		}
		entries := n.ReadEntries()
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
		if guards > ls.MaxGuardsIn {
			ls.MaxGuardsIn = guards
		}
		if len(entries) < ls.MinEntries {
			ls.MinEntries = len(entries)
		}
		if len(entries) > ls.MaxEntries {
			ls.MaxEntries = len(entries)
		}
		for _, e := range entries {
			if e.Level == 0 {
				if err := walkData(e.Child); err != nil {
					return err
				}
			} else if err := walkIndex(e.Child); err != nil {
				return err
			}
		}
		return nil
	}

	var err error
	if t.rootLevel == 0 {
		err = walkData(t.root)
	} else {
		err = walkIndex(t.root)
	}
	if err != nil {
		return nil, err
	}
	if s.DataPages > 0 {
		s.DataAvgOcc = sumDataOcc / float64(s.DataPages)
	}
	totalEntries := 0
	for lvl, ls := range s.IndexLevels {
		cap := float64(t.capacity(lvl))
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
	defer t.endOp()
	var b strings.Builder
	var rec func(id page.ID, level, depth int) error
	rec = func(id page.ID, level, depth int) error {
		ind := strings.Repeat("  ", depth)
		if level == 0 {
			dp, sc, err := t.borrowData(id, false)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "%sdata %d region=%v items=%d\n", ind, id, dp.Region, dp.Len())
			t.paged.release(sc)
			return nil
		}
		n, err := t.fetchIndex(id)
		if err != nil {
			return err
		}
		entries := n.ReadEntries()
		fmt.Fprintf(&b, "%snode %d L%d region=%v entries=%d\n", ind, id, n.Level, n.Region, len(entries))
		for _, e := range entries {
			tag := ""
			if e.IsGuard(n.Level) {
				tag = " [guard]"
			}
			fmt.Fprintf(&b, "%s  entry key=%v level=%d%s ->\n", ind, e.Key, e.Level, tag)
			if err := rec(e.Child, e.Level, depth+2); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(t.root, t.rootLevel, 0); err != nil {
		return "", err
	}
	return b.String(), nil
}
