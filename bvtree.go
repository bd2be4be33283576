// Package bvtree is a Go implementation of the BV-tree, the
// n-dimensional generalisation of the B-tree introduced by Michael
// Freeston in "A General Solution of the n-dimensional B-tree Problem"
// (SIGMOD 1995).
//
// The BV-tree indexes points on n attributes symmetrically — a partial
// match on any m of the n attributes costs the same whichever attributes
// are specified — while preserving the B-tree's defining guarantees as
// far as is topologically possible: exact-match search and update visit a
// logarithmic number of nodes (exactly one node per partition level), and
// every data and index node is kept at least one-third full. It achieves
// this with a deliberately unbalanced index over a balanced recursive
// binary partitioning of the data space: entries that a directory split
// would cut through are promoted upwards as guards instead of being
// split, and searches carry a per-level guard set down the tree.
//
// # Quick start
//
//	tr, err := bvtree.New(bvtree.Options{Dims: 2})
//	if err != nil { ... }
//	_ = tr.Insert(bvtree.Point{x, y}, recordID)
//	payloads, _ := tr.Lookup(bvtree.Point{x, y})
//	_ = tr.RangeQuery(rect, func(p bvtree.Point, id uint64) bool { ...; return true })
//
// Coordinates are uint64 values covering the full domain; use
// NormalizeFloat to map floating-point attributes into it. For a
// disk-backed tree, open a FileStore with OpenFileStore, which creates
// it or reopens it, and hand it to Open, which starts or reopens the
// tree in it; for a durable one, hand Open a write-ahead log from
// OpenWAL too. Each layer has the one opener.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper.
package bvtree

import (
	"io"

	ibv "bvtree/internal/bvtree"
	"bvtree/internal/geometry"
	"bvtree/internal/obs"
	"bvtree/internal/storage"
	"bvtree/internal/wal"
)

// Point is an n-dimensional point with uint64 coordinates.
type Point = geometry.Point

// Rect is a closed axis-aligned query rectangle.
type Rect = geometry.Rect

// Tree is a BV-tree. It is safe for concurrent use under a
// reader–writer contract with multi-version reads: point reads (Lookup,
// Stats, …) share a lock, traversal reads (RangeQuery, Nearest, Scan,
// Count, …) pin an epoch and run lock-free against an immutable
// copy-on-write view — a slow visitor never blocks a writer — and
// mutations (Insert, Delete, ApplyBatch, BulkLoad, Maintain, Flush) are
// exclusive. There is one way to build a tree, the paper's insertion
// algorithm: ApplyBatch and BulkLoad apply their operations in the
// caller's order, and build exactly the tree the same Inserts build.
// Snapshot
// exposes the same pinned views explicitly, and has no write method.
// See DESIGN.md §8 and §12 for the full concurrency model.
type Tree = ibv.Tree

// Options configures a Tree; see the field documentation in the
// implementation package.
type Options = ibv.Options

// OpStats are the structural event counters of a Tree. They are a view
// over the same counters (*Tree).Metrics reports in its Tree.Counters
// section, so the two APIs can never disagree.
type OpStats = ibv.OpStats

// MetricsSnapshot is the combined observability snapshot returned by
// (*Tree).Metrics, on a plain or a durable tree: structural counters and
// the latency/shape histograms EnableMetrics turns on for the tree layer,
// page-store counters for paged trees, and WAL write-path histograms for
// durable trees. It is plain data and marshals to JSON; see README.md
// ("Reading the metrics") for how each section maps onto the paper's
// concepts.
type MetricsSnapshot = obs.Snapshot

// HistogramSnapshot summarises one latency or shape histogram: count,
// mean, and interpolated p50/p95/p99 (error ≤12.5% at any magnitude).
// Latency histograms are in nanoseconds.
type HistogramSnapshot = obs.HistogramSnapshot

// TreeStats is a structural snapshot gathered by (*Tree).CollectStats.
type TreeStats = ibv.TreeStats

// Visitor receives query results; returning false stops the traversal.
type Visitor = ibv.Visitor

// Neighbor is one result of a Nearest search.
type Neighbor = ibv.Neighbor

// Store persists node blobs for paged trees; see OpenFileStore.
type Store = storage.Store

// Snapshot is a pinned, immutable view of a Tree, obtained with
// (*Tree).Snapshot: every read through it observes exactly the state
// the tree had when the snapshot was taken, while writers keep
// committing (they copy superseded pages on demand). It has reads only,
// no write method. Release it when done so retained page versions can
// be reclaimed.
type Snapshot = ibv.Snapshot

// ErrCorrupt is returned by RestoreSnapshot and RestoreToLSN when a
// backup stream is damaged — truncated, bit-flipped, or structurally
// inconsistent. Classify with errors.Is.
var ErrCorrupt = ibv.ErrCorrupt

// FileStoreOptions configures a file-backed store.
type FileStoreOptions = storage.FileStoreOptions

// New returns an in-memory BV-tree: Open over a fresh in-memory Store,
// with a decoded cache that holds every node, so Options.CacheNodes is
// ignored.
func New(opt Options) (*Tree, error) { return ibv.New(opt) }

// Open is the one way to start or reopen a tree stored in st. A store
// that holds no tree yet starts a new one shaped by opt; one that holds
// a tree reopens it at its last Flush, and each shape field of opt
// (Dims, DataCapacity, Fanout, LevelScaledPages) must then be zero or
// the stored one. A reopened tree knows the LSN of its last checkpoint,
// with a log or without one. A non-nil l makes the tree durable: the
// operations it logged past that LSN are replayed (a log that begins
// after it has lost records and is refused), and from then on
// Insert, Delete, ApplyBatch and BulkLoad return once logged and
// fsynced (concurrent writers share an fsync, a batch takes one), Flush
// is the checkpoint that empties the log, AutoCheckpoint runs it when
// the log reaches a size, and Close checkpoints and closes the log. The
// tree owns l; the store stays the caller's to close. A FileStore's file
// changes only at checkpoints, so a crash at any point — including
// mid-checkpoint, which the store's rollback journal undoes — recovers
// every acknowledged operation. See DESIGN.md §7 for the failure model
// and §9 for the write path.
func Open(st Store, l *wal.Log, opt Options) (*Tree, error) { return ibv.Open(st, l, opt) }

// BatchOp is one operation of a Tree.ApplyBatch batch.
type BatchOp = ibv.BatchOp

// RestoreSnapshot rebuilds a tree from a backup stream (written by
// SnapshotBackup or Snapshot().Backup) into st,
// which must be a store that holds no tree, as a checkpoint at the backup's
// LSN: Open of that store with a write-ahead log then replays the log's
// operations past the backup to its end. Damaged streams fail with
// ErrCorrupt — a restore never silently yields a shorter tree.
func RestoreSnapshot(st Store, r io.Reader) (*Tree, error) { return ibv.RestoreSnapshot(st, r) }

// RestoreToLSN is point-in-time restore: it rebuilds the backup into st
// and replays records from the write-ahead log l on top by the rule Open
// recovers by, stopping once the state is exactly "every operation
// through upToLSN".
func RestoreToLSN(st Store, backup io.Reader, l *wal.Log, upToLSN uint64) (*Tree, error) {
	return ibv.RestoreToLSN(st, backup, l, upToLSN)
}

// OpenWAL opens (or creates) the write-ahead log at path, for Open or
// RestoreToLSN.
func OpenWAL(path string) (*wal.Log, error) { return wal.Open(path) }

// OpenFileStore is the one way to open a file-backed page store: it
// creates the store when the file at path is absent (or holds no more
// than a header torn by a crash while the store was being created) and
// reopens it otherwise. Open then decides whether the store holds a tree.
func OpenFileStore(path string, opts FileStoreOptions) (*storage.FileStore, error) {
	return storage.OpenFileStore(path, opts)
}

// NewRect returns the rectangle spanning min..max, validating bounds.
func NewRect(min, max Point) (Rect, error) { return geometry.NewRect(min, max) }

// UniverseRect returns the rectangle covering the whole dims-dimensional
// domain.
func UniverseRect(dims int) Rect { return geometry.UniverseRect(dims) }

// NormalizeFloat maps v in [lo, hi] onto the uint64 coordinate domain.
func NormalizeFloat(v, lo, hi float64) uint64 { return geometry.NormalizeFloat(v, lo, hi) }

// DenormalizeFloat is the approximate inverse of NormalizeFloat.
func DenormalizeFloat(u uint64, lo, hi float64) float64 { return geometry.DenormalizeFloat(u, lo, hi) }
