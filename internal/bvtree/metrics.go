package bvtree

import (
	"bvtree/internal/obs"
	"bvtree/internal/storage"
)

// Metrics returns the tree's combined observability snapshot:
//
//   - Tree: the always-on structural counters (the same numbers Stats
//     reports) plus, when metrics are enabled (Options.Metrics or
//     EnableMetrics), the per-operation latency and shape histograms.
//   - Store: the page store's counters — logical and physical I/O,
//     batched reads, free-list length. An in-memory tree's store
//     is its MemStore, written only by Flush.
//   - WAL: on a tree with a log whose metrics are enabled, append and
//     fsync latency, group-commit amortisation and checkpoint cost.
//
// The snapshot is plain data, safe to retain, and marshals to JSON.
func (t *Tree) Metrics() obs.Snapshot {
	t.mu.RLock()
	m, wm := t.metrics, t.wm
	t.mu.RUnlock()
	var ts obs.TreeSnapshot
	if m != nil {
		ts = m.Snapshot()
	}
	ts.MetricsEnabled = m != nil
	ts.Counters = t.stats.Snapshot()
	ss := storeSnapshot(t.paged.st.Stats())
	s := obs.Snapshot{Tree: ts, Store: &ss}
	if t.mv != nil {
		ms := t.mv.met.Snapshot()
		s.MVCC = &ms
	}
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
		BatchReads: st.BatchReads,
		FreeSlots:  st.FreeSlots,
	}
}
