package bvtree

import (
	"encoding/binary"
	"fmt"

	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/wal"
)

// DurableTree is a paged Tree with a logical write-ahead log attached.
// The log is part of Tree's own commit: Insert, Delete, ApplyBatch and
// BulkLoad enqueue their records into a group-committed log batch and
// apply the operation in one critical section, and acknowledge once the
// batch is fsynced (see Tree.commit); Flush, and Checkpoint, which is the
// same call, persist the tree and empty the log. Opening after a crash
// replays the operations logged since the last checkpoint onto the
// checkpointed tree state, so no acknowledged update is lost. Every
// handle reaches the logged tree — the embedded Tree is the same tree,
// not an unlogged way round it — so DurableTree declares no mutator of
// its own.
//
// The durability contract, which internal/fault's torture harness sweeps
// exhaustively: an operation that returned nil survives any crash; an
// operation in flight at a crash either happened completely or not at all;
// operations never attempted leave no trace. Batched operations
// (InsertBatch/ApplyBatch) recover to a record-granularity prefix of the
// batch. Checkpoints are tied to the store by an epoch number — recovery
// replays the log only when its epoch matches the store's, so a crash
// between the checkpoint flush and the log reset cannot double-apply
// records.
//
// Concurrency is the Tree's: the order lock is the tree lock, held
// exclusively from enqueue through apply. Reads never touch the log; they
// wait for a writer's exclusive section, never for its fsync.
type DurableTree struct {
	*Tree
}

// NewDurable creates a durable tree over a fresh store, logging to
// walPath.
func NewDurable(st storage.Store, walPath string, opt Options) (*DurableTree, error) {
	l, err := wal.Open(walPath)
	if err != nil {
		return nil, err
	}
	return NewDurableLog(st, l, opt)
}

// NewDurableLog is NewDurable over an already-open log (e.g. one opened
// through a fault-injecting filesystem). The tree takes ownership of the
// log, closing it on error.
func NewDurableLog(st storage.Store, l *wal.Log, opt Options) (*DurableTree, error) {
	tr, err := NewPaged(st, opt)
	if err != nil {
		l.Close()
		return nil, err
	}
	if err := l.ResetAt(tr.epoch, l.BaseLSN()); err != nil {
		l.Close()
		return nil, err
	}
	tr.lsn = l.BaseLSN()
	tr.log = l
	return &DurableTree{tr}, nil
}

// OpenDurable reopens a durable tree: the checkpointed state is loaded
// from the store and any operations logged after it are replayed.
func OpenDurable(st storage.Store, walPath string, cacheNodes int) (*DurableTree, error) {
	l, err := wal.Open(walPath)
	if err != nil {
		return nil, err
	}
	return OpenDurableLog(st, l, cacheNodes)
}

// OpenDurableLog is OpenDurable over an already-open log. The tree takes
// ownership of the log, closing it on error. Replay runs before the log
// is attached, so the replayed operations are not logged again.
func OpenDurableLog(st storage.Store, l *wal.Log, cacheNodes int) (*DurableTree, error) {
	tr, err := OpenPaged(st, cacheNodes)
	if err != nil {
		l.Close()
		return nil, err
	}
	tr.lsn = l.BaseLSN()
	switch {
	case l.Epoch() == tr.epoch:
		if err := l.Replay(func(rec []byte) error {
			tr.lsn++
			return applyRecord(tr, rec)
		}); err != nil {
			l.Close()
			return nil, fmt.Errorf("bvtree: wal replay: %w", err)
		}
	case l.Epoch() < tr.epoch:
		// Every record in the log predates the store's checkpoint: the
		// crash hit between the checkpoint flush and the log reset.
		// Replaying would double-apply; discard instead — but first count
		// the records, so the LSN stream stays continuous across the
		// completed-but-unreset checkpoint.
		if err := l.Replay(func([]byte) error { tr.lsn++; return nil }); err != nil {
			l.Close()
			return nil, fmt.Errorf("bvtree: wal scan: %w", err)
		}
		if err := l.ResetAt(tr.epoch, tr.lsn); err != nil {
			l.Close()
			return nil, err
		}
	default:
		l.Close()
		return nil, fmt.Errorf("bvtree: %w: wal epoch %d ahead of store checkpoint epoch %d", wal.ErrCorrupt, l.Epoch(), tr.epoch)
	}
	tr.log = l
	return &DurableTree{tr}, nil
}

const (
	opInsert byte = 1
	opDelete byte = 2

	// maxRecordLen is the length of a record of a geometry.MaxDims point:
	// an op's stack buffer holds any record the tree accepts.
	maxRecordLen = 2 + 8*geometry.MaxDims + 8
)

// encodeOp appends one logical operation's record to dst. The log copies
// a record at Enqueue, so dst may live on the caller's stack.
func encodeOp(dst []byte, op byte, p geometry.Point, payload uint64) []byte {
	dst = append(dst, op, byte(len(p)))
	for _, c := range p {
		dst = binary.LittleEndian.AppendUint64(dst, c)
	}
	return binary.LittleEndian.AppendUint64(dst, payload)
}

// record is encodeOp on a tree with a log; without one it encodes
// nothing and returns nil, which commit never reads.
func (t *Tree) record(dst []byte, op byte, p geometry.Point, payload uint64) []byte {
	if t.log == nil {
		return nil
	}
	return encodeOp(dst, op, p, payload)
}

// records is a batch's records on a tree with a log, nil without one:
// the i-th encodes op(i), and all n share one slab.
func (t *Tree) records(n int, op func(i int) (byte, geometry.Point, uint64)) [][]byte {
	if t.log == nil {
		return nil
	}
	recs := make([][]byte, n)
	slab := make([]byte, 0, n*(2+8*t.opt.Dims+8))
	for i := range recs {
		o, p, payload := op(i)
		start := len(slab)
		slab = encodeOp(slab, o, p, payload)
		recs[i] = slab[start:]
	}
	return recs
}

// recordDims is the dimensionality of the point an encodeOp record
// carries, read from its length: the dims byte would wrap for a point of
// more than 255 coordinates.
func recordDims(rec []byte) int { return (len(rec) - 2 - 8) / 8 }

// applyRecord decodes one logical WAL record and applies it to t. It is
// shared by crash recovery (OpenDurable*) and point-in-time restore
// (RestoreToLSN), which replays a backup's trailing log onto a plain
// Tree.
func applyRecord(t *Tree, rec []byte) error {
	if len(rec) < 2 {
		return fmt.Errorf("bvtree: short wal record")
	}
	dims := int(rec[1])
	if len(rec) != 2+8*dims+8 {
		return fmt.Errorf("bvtree: wal record length %d for %d dims", len(rec), dims)
	}
	p := make(geometry.Point, dims)
	for i := range p {
		p[i] = binary.LittleEndian.Uint64(rec[2+8*i:])
	}
	payload := binary.LittleEndian.Uint64(rec[2+8*dims:])
	switch rec[0] {
	case opInsert:
		return t.Insert(p, payload)
	case opDelete:
		_, err := t.Delete(p, payload)
		return err
	default:
		return fmt.Errorf("bvtree: unknown wal op %d", rec[0])
	}
}

// InsertBatch is BulkLoad: the inserts are group-committed contiguously
// with a single sync and applied in the caller's order under one lock
// acquisition. A crash during the batch recovers to a record-granularity
// prefix of it.
func (d *DurableTree) InsertBatch(points []geometry.Point, payloads []uint64) error {
	return d.BulkLoad(points, payloads)
}

// Checkpoint is Flush: it persists the tree state under a new checkpoint
// epoch and empties the log.
func (d *DurableTree) Checkpoint() error { return d.Flush() }

// AutoCheckpoint makes the tree checkpoint itself whenever the log holds
// at least logBytes of records: the writer whose commit fills the log
// runs the checkpoint on its own goroutine, once its operation is
// durable, and every other operation waits for it on the tree lock, as
// for any Flush. Like EnableMetrics it is set after construction, on a
// new and on a reopened tree alike; a later call changes the size, and
// logBytes <= 0 turns the trigger off. It is the write path's only
// setting: everything else about group commit is decided by what the
// writers do.
func (d *DurableTree) AutoCheckpoint(logBytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ckptBytes = logBytes
}

// LogSize returns the bytes of operations logged since the last
// checkpoint.
func (d *DurableTree) LogSize() int64 { return d.log.Size() }

// LSN returns the log sequence number of the last committed operation —
// the total count of logged operations over the tree's whole history,
// across checkpoints and restarts. A backup taken now captures exactly
// this LSN, and RestoreToLSN can replay a WAL onto it up to any later
// number.
func (d *DurableTree) LSN() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lsn
}

// GroupStats reports the log's running totals: records committed and
// group syncs performed. Their ratio is the write-path amortisation
// achieved so far.
func (d *DurableTree) GroupStats() (commits, syncs uint64) { return d.log.Stats() }

// Close checkpoints and closes the log. The page store remains the
// caller's to close.
func (d *DurableTree) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.flushLocked(); err != nil {
		d.log.Close()
		return err
	}
	return d.log.Close()
}
