package obs

import "sync/atomic"

// This file defines the per-layer metric sets and their snapshots. The
// live structs hold only Counters, Gauges and Histograms from this
// package, so every layer records through the same allocation-free
// primitives; the snapshot structs are plain data, JSON-taggable, and
// are what Tree.Metrics() returns through the public facade.

// TreeCounters are the BV-tree's structural event counters. They are
// always on (a handful of atomic adds per mutation) and back the public
// OpStats API: bvtree reads OpStats out of this same struct, so the two
// views can never disagree. Field semantics are documented on the
// TreeCountersSnapshot mirror below.
type TreeCounters struct {
	NodeAccesses    Counter
	DataSplits      Counter
	IndexSplits     Counter
	Promotions      Counter
	Demotions       Counter
	Merges          Counter
	Resplits        Counter
	MergeDeferrals  Counter
	SoftOverflows   Counter
	RootGrowths     Counter
	RangeEmptyPages Counter
	RangeFullPages  Counter
	BatchTests      Counter
}

// TreeCountersSnapshot is a point-in-time copy of TreeCounters.
type TreeCountersSnapshot struct {
	// NodeAccesses counts logical node fetches (index nodes + data pages).
	NodeAccesses uint64 `json:"node_accesses"`
	// DataSplits and IndexSplits count page splits by kind.
	DataSplits  uint64 `json:"data_splits"`
	IndexSplits uint64 `json:"index_splits"`
	// Promotions counts entries promoted to a parent as guards during
	// index splits; Demotions counts guards moved back down.
	Promotions uint64 `json:"promotions"`
	Demotions  uint64 `json:"demotions"`
	// Merges counts data-page merges triggered by underflow; Resplits
	// counts merges whose result overflowed and split again;
	// MergeDeferrals counts underflows left unresolved because no
	// same-node merge partner existed.
	Merges         uint64 `json:"merges"`
	Resplits       uint64 `json:"resplits"`
	MergeDeferrals uint64 `json:"merge_deferrals"`
	// SoftOverflows counts nodes temporarily exceeding capacity because
	// no balanced split existed.
	SoftOverflows uint64 `json:"soft_overflows"`
	// RootGrowths counts increments of the index height.
	RootGrowths uint64 `json:"root_growths"`
	// RangeEmptyPages counts data pages a range or count traversal
	// fetched that gave it no item: the page's brick meets the window,
	// none of its points do. Against the pages fetched it is the share of
	// a window's cost the paper's O(log n + k) yardstick does not pay.
	RangeEmptyPages uint64 `json:"range_empty_pages"`
	// RangeFullPages counts data pages a range or count traversal
	// emitted or counted through the full-containment fast path, i.e.
	// without a per-point rectangle test.
	RangeFullPages uint64 `json:"range_full_pages"`
	// BatchTests counts batched predicate passes over a node's columns:
	// one per index node or data page whose entries were tested as
	// columns, whether the page was cached or decoded on a miss. It
	// trails NodeAccesses only by the pages a query needs no test for
	// (inside a fully contained subtree).
	BatchTests uint64 `json:"batch_tests"`
}

// Snapshot copies the counters.
func (c *TreeCounters) Snapshot() TreeCountersSnapshot {
	return TreeCountersSnapshot{
		NodeAccesses:    c.NodeAccesses.Load(),
		DataSplits:      c.DataSplits.Load(),
		IndexSplits:     c.IndexSplits.Load(),
		Promotions:      c.Promotions.Load(),
		Demotions:       c.Demotions.Load(),
		Merges:          c.Merges.Load(),
		Resplits:        c.Resplits.Load(),
		MergeDeferrals:  c.MergeDeferrals.Load(),
		SoftOverflows:   c.SoftOverflows.Load(),
		RootGrowths:     c.RootGrowths.Load(),
		RangeEmptyPages: c.RangeEmptyPages.Load(),
		RangeFullPages:  c.RangeFullPages.Load(),
		BatchTests:      c.BatchTests.Load(),
	}
}

// TreeMetrics are the opt-in per-operation histograms of the tree layer
// (EnableMetrics). Latency histograms record nanoseconds; shape
// histograms record counts.
type TreeMetrics struct {
	Lookup     Histogram // exact-match latency
	Insert     Histogram // single-insert latency (incl. durable ack when wrapped)
	Delete     Histogram // single-delete latency
	RangeQuery Histogram // range-query latency
	Nearest    Histogram // kNN latency
	Batch      Histogram // ApplyBatch latency (whole batch)

	DescentDepth Histogram // nodes visited per exact-match descent (sampled)
	GuardSet     Histogram // max guard-set size per descent (sampled; paper bound: ≤ x−1)
	BatchSize    Histogram // operations per applied batch

	descentSeq atomic.Uint64 // drives the 1-in-descentSampleRate shape sampling
}

// descentSampleRate is the sampling interval of the descent-shape
// histograms. Every exact-match descent — millions per second on the
// read path — has the same two shape numbers to report, so recording
// one descent in 16 keeps the quantiles statistically indistinguishable
// while cutting the hot path's atomic traffic from six adds per descent
// to well under one on average. The latency histograms are NOT sampled:
// latency has a heavy tail worth capturing exactly.
const descentSampleRate = 16

// ObserveDescent records one exact-match descent's shape — nodes
// visited and largest guard set carried — subject to 1-in-16 sampling
// (see descentSampleRate). The histogram Counts therefore reflect the
// sample, not the descent total; the quantiles are unbiased.
func (m *TreeMetrics) ObserveDescent(depth, guardSet int64) {
	if m.descentSeq.Add(1)%descentSampleRate != 0 {
		return
	}
	m.DescentDepth.Observe(depth)
	m.GuardSet.Observe(guardSet)
}

// TreeSnapshot is the tree layer's part of a metrics snapshot.
type TreeSnapshot struct {
	// MetricsEnabled reports whether the histogram fields below are being
	// populated (EnableMetrics); the Counters are always live.
	MetricsEnabled bool                 `json:"metrics_enabled"`
	Counters       TreeCountersSnapshot `json:"counters"`

	LookupNs     HistogramSnapshot `json:"lookup_ns"`
	InsertNs     HistogramSnapshot `json:"insert_ns"`
	DeleteNs     HistogramSnapshot `json:"delete_ns"`
	RangeQueryNs HistogramSnapshot `json:"range_query_ns"`
	NearestNs    HistogramSnapshot `json:"nearest_ns"`
	BatchNs      HistogramSnapshot `json:"batch_ns"`

	DescentDepth HistogramSnapshot `json:"descent_depth"`
	GuardSet     HistogramSnapshot `json:"guard_set"`
	BatchSize    HistogramSnapshot `json:"batch_size"`
}

// Snapshot summarises the histograms.
func (m *TreeMetrics) Snapshot() TreeSnapshot {
	return TreeSnapshot{
		MetricsEnabled: true,
		LookupNs:       m.Lookup.Snapshot(),
		InsertNs:       m.Insert.Snapshot(),
		DeleteNs:       m.Delete.Snapshot(),
		RangeQueryNs:   m.RangeQuery.Snapshot(),
		NearestNs:      m.Nearest.Snapshot(),
		BatchNs:        m.Batch.Snapshot(),
		DescentDepth:   m.DescentDepth.Snapshot(),
		GuardSet:       m.GuardSet.Snapshot(),
		BatchSize:      m.BatchSize.Snapshot(),
	}
}

// WALMetrics are the durable write path's histograms and counters,
// recorded by internal/wal (appends, fsyncs, group commits) and by the
// durable tree (checkpoints).
type WALMetrics struct {
	Append      Histogram // buffered record/batch write latency (ns)
	Fsync       Histogram // fsync latency (ns)
	GroupWait   Histogram // commit wait: enqueue-to-durable, per committer (ns)
	GroupBatch  Histogram // records per group sync
	Checkpoint  Histogram // checkpoint duration (ns)
	CheckpointB Counter   // bytes of log absorbed by checkpoints
	Checkpoints Counter   // checkpoints completed
}

// WALSnapshot is the WAL layer's part of a metrics snapshot.
type WALSnapshot struct {
	AppendNs        HistogramSnapshot `json:"append_ns"`
	FsyncNs         HistogramSnapshot `json:"fsync_ns"`
	GroupWaitNs     HistogramSnapshot `json:"group_wait_ns"`
	GroupBatch      HistogramSnapshot `json:"group_batch_records"`
	CheckpointNs    HistogramSnapshot `json:"checkpoint_ns"`
	CheckpointBytes uint64            `json:"checkpoint_bytes"`
	Checkpoints     uint64            `json:"checkpoints"`
}

// Snapshot summarises the WAL metrics.
func (m *WALMetrics) Snapshot() WALSnapshot {
	return WALSnapshot{
		AppendNs:        m.Append.Snapshot(),
		FsyncNs:         m.Fsync.Snapshot(),
		GroupWaitNs:     m.GroupWait.Snapshot(),
		GroupBatch:      m.GroupBatch.Snapshot(),
		CheckpointNs:    m.Checkpoint.Snapshot(),
		CheckpointBytes: m.CheckpointB.Load(),
		Checkpoints:     m.Checkpoints.Load(),
	}
}

// StoreSnapshot is the storage layer's part of a metrics snapshot. It is
// assembled from the store's always-on atomic counters (storage.Stats),
// so the pager needs no opt-in switch: its counters are its metrics.
type StoreSnapshot struct {
	Allocs     uint64 `json:"allocs"`
	Frees      uint64 `json:"frees"`
	NodeReads  uint64 `json:"node_reads"`
	NodeWrites uint64 `json:"node_writes"`
	SlotReads  uint64 `json:"slot_reads"`  // physical page reads
	SlotWrites uint64 `json:"slot_writes"` // physical page writes
	// FreeSlots is the current free-list length (a gauge).
	FreeSlots int64 `json:"free_slots"`
}

// CacheSnapshot is the decoded-node cache's part of a metrics snapshot:
// how much of the index it holds, and what its misses read. The paper's
// §7 cost model puts the index at about 1/F of the data pages, so a cache
// that holds IndexNodes == TreeIndexNodes costs a Lookup one store read.
type CacheSnapshot struct {
	Nodes      int64 `json:"nodes"`       // decoded nodes cached (a gauge)
	IndexNodes int64 `json:"index_nodes"` // index nodes cached (a gauge)
	// TreeIndexNodes is the number of index nodes in the tree (a gauge),
	// -1 when a read of the upper index failed.
	TreeIndexNodes int64  `json:"tree_index_nodes"`
	IndexReads     uint64 `json:"index_reads"` // index nodes read from the store
	DataReads      uint64 `json:"data_reads"`  // data pages read from the store
}

// MVCCMetrics are the always-on counters of the snapshot/epoch
// subsystem: epoch pins taken by snapshots and pinned reads, pre-image
// page versions captured for those pins, reclamation activity, and the
// online-backup path. Like TreeCounters they cost a handful of atomic
// adds and need no opt-in switch.
type MVCCMetrics struct {
	PinnedEpochs Gauge   // currently pinned epochs (open snapshots + in-flight pinned reads)
	Pins         Counter // epoch pins ever taken
	Captures     Counter // pre-image page versions captured for pinned readers
	Versions     Gauge   // pre-image versions currently retained
	Reclaimed    Counter // pre-image versions released after their last reader drained
	DeferredFree Counter // page frees parked while pins were active
	ReclaimedFre Counter // deferred frees executed after epoch drain
	DoubleFrees  Counter // duplicate deferred frees detected (invariant violations)
	Backups      Counter // SnapshotBackup streams completed
	BackupBytes  Counter // bytes written by completed backups
	BackupNs     Histogram
}

// MVCCSnapshot is the snapshot/epoch subsystem's part of a metrics
// snapshot.
type MVCCSnapshot struct {
	PinnedEpochs   int64             `json:"pinned_epochs"`
	Pins           uint64            `json:"pins"`
	Captures       uint64            `json:"captures"`
	Versions       int64             `json:"versions_retained"`
	Reclaimed      uint64            `json:"versions_reclaimed"`
	FreesDeferred  uint64            `json:"frees_deferred"`
	FreesReclaimed uint64            `json:"frees_reclaimed"`
	DoubleFrees    uint64            `json:"double_frees"`
	Backups        uint64            `json:"backups"`
	BackupBytes    uint64            `json:"backup_bytes"`
	BackupNs       HistogramSnapshot `json:"backup_ns"`
}

// Snapshot copies the MVCC counters.
func (m *MVCCMetrics) Snapshot() MVCCSnapshot {
	return MVCCSnapshot{
		PinnedEpochs:   m.PinnedEpochs.Load(),
		Pins:           m.Pins.Load(),
		Captures:       m.Captures.Load(),
		Versions:       m.Versions.Load(),
		Reclaimed:      m.Reclaimed.Load(),
		FreesDeferred:  m.DeferredFree.Load(),
		FreesReclaimed: m.ReclaimedFre.Load(),
		DoubleFrees:    m.DoubleFrees.Load(),
		Backups:        m.Backups.Load(),
		BackupBytes:    m.BackupBytes.Load(),
		BackupNs:       m.BackupNs.Snapshot(),
	}
}

// Snapshot is the combined observability snapshot returned by
// Tree.Metrics(): the tree layer, the storage layer and the decoded
// cache always, the WAL layer for durable trees, and the MVCC layer
// whenever the tree supports epoch snapshots.
type Snapshot struct {
	Tree  TreeSnapshot   `json:"tree"`
	WAL   *WALSnapshot   `json:"wal,omitempty"`
	Store *StoreSnapshot `json:"store,omitempty"`
	Cache *CacheSnapshot `json:"cache,omitempty"`
	MVCC  *MVCCSnapshot  `json:"mvcc,omitempty"`
}
