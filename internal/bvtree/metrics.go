package bvtree

import (
	"bvtree/internal/obs"
	"bvtree/internal/page"
	"bvtree/internal/storage"
)

// Metrics returns the tree's combined observability snapshot:
//
//   - Tree: the always-on structural counters (the same numbers Stats
//     reports) plus, when metrics are enabled (EnableMetrics), the
//     per-operation latency and shape histograms.
//   - Store: the page store's counters — logical and physical I/O and
//     free-list length. An in-memory tree's store is its MemStore,
//     written only by Flush.
//   - Cache: the decoded-node cache's residency — nodes and index nodes
//     cached against the index nodes in the tree — and its misses by
//     kind (DESIGN.md §8).
//   - WAL: on a tree with a log whose metrics are enabled, append and
//     fsync latency, group-commit amortisation and checkpoint cost.
//
// The snapshot is plain data, safe to retain, and marshals to JSON.
func (t *Tree) Metrics() obs.Snapshot {
	t.mu.RLock()
	m, wm := t.metrics, t.wm
	cs := t.cacheSnapshot()
	t.mu.RUnlock()
	var ts obs.TreeSnapshot
	if m != nil {
		ts = m.Snapshot()
	}
	ts.MetricsEnabled = m != nil
	ts.Counters = t.stats.Snapshot()
	ss := storeSnapshot(t.paged.st.Stats())
	ms := t.mv.met.Snapshot()
	s := obs.Snapshot{Tree: ts, Store: &ss, Cache: &cs, MVCC: &ms}
	if wm != nil {
		ws := wm.Snapshot()
		s.WAL = &ws
	}
	return s
}

// storeSnapshot reshapes the store's counters into the snapshot form the
// metrics API exposes. storage deliberately does not import obs — its
// atomic Stats are already metrics; this is the only conversion point.
func storeSnapshot(st storage.Stats) obs.StoreSnapshot {
	return obs.StoreSnapshot{
		Allocs:     st.Allocs,
		Frees:      st.Frees,
		NodeReads:  st.NodeReads,
		NodeWrites: st.NodeWrites,
		SlotReads:  st.SlotReads,
		SlotWrites: st.SlotWrites,
		FreeSlots:  st.FreeSlots,
	}
}

// cacheSnapshot reports what the decoded cache holds against the tree's
// index. The caller holds the shared lock.
func (t *Tree) cacheSnapshot() obs.CacheSnapshot {
	pn := t.paged
	cs := obs.CacheSnapshot{IndexReads: pn.indexReads.Load(), DataReads: pn.dataReads.Load(), TreeIndexNodes: -1}
	for i := range pn.shards {
		sh := &pn.shards[i]
		sh.mu.Lock()
		cs.Nodes += int64(len(sh.nodes))
		for _, e := range sh.entries {
			if e.live && e.level > 0 {
				cs.IndexNodes++
			}
		}
		sh.mu.Unlock()
	}
	if n, err := t.indexNodes(); err == nil {
		cs.TreeIndexNodes = n
	}
	return cs
}

// indexNodes counts the tree's index nodes: the root, plus every entry
// whose child is an index node. Only nodes above level 1 hold such
// entries, so only they are read — the few the cache keeps longest — and
// through peekIndex, so counting moves no clock bit, admits nothing and
// counts no node access or cache miss. The caller holds the shared lock.
func (t *Tree) indexNodes() (int64, error) {
	if t.rootLevel == 0 {
		return 0, nil
	}
	n := int64(1)
	var walk func(id page.ID) error
	walk = func(id page.ID) error {
		node, err := t.paged.peekIndex(id)
		if err != nil {
			return err
		}
		c := node.Cols()
		for i := 0; i < c.Len(); i++ {
			if c.Level(i) >= 1 {
				n++
			}
			if c.Level(i) >= 2 {
				if err := walk(c.Child(i)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if t.rootLevel >= 2 {
		if err := walk(t.root); err != nil {
			return 0, err
		}
	}
	return n, nil
}
