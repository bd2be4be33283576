package bvtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/wal"
)

// attach recovers the log l onto t, which Open has just loaded or
// started, and attaches it: l is replayed past t's checkpoint, which for
// a new tree is LSN 0. So a store emptied or lost beside its log comes
// back with the log's records, never silently empty. A log that adds
// nothing past the checkpoint and does not begin at it is one whose
// reset a crash prevented or tore; it is emptied at the checkpoint LSN,
// so the next record is numbered after it. Replay runs before l is
// attached, so replayed operations are not logged again.
func (t *Tree) attach(l *wal.Log) error {
	ckpt := t.lsn
	if err := t.replay(l, math.MaxUint64); err != nil {
		return fmt.Errorf("bvtree: wal replay: %w", err)
	}
	if t.lsn == ckpt && l.BaseLSN() != ckpt {
		if err := l.ResetAt(ckpt); err != nil {
			return err
		}
	}
	t.log = l
	return nil
}

// logGap refuses a log that begins after the checkpoint at LSN ckpt:
// the records in between are lost, so it is wal.ErrCorrupt.
func logGap(l *wal.Log, ckpt uint64) error {
	if n := l.BaseLSN(); n > ckpt {
		return fmt.Errorf("%w: log begins after LSN %d, a gap after the checkpoint at LSN %d", wal.ErrCorrupt, n, ckpt)
	}
	return nil
}

// errStopReplay ends a replay at its target LSN; it never escapes replay.
var errStopReplay = errors.New("bvtree: replay stop")

// replay is the one rule of crash recovery and point-in-time restore
// alike. t has no log attached and holds the state of LSN t.lsn, its
// checkpoint. replay numbers l's records from l.BaseLSN(), skips those
// at or below the checkpoint, applies the rest through LSN through, and
// stops at the first record past it without applying it; t.lsn becomes
// that of the last record applied, or stays at the checkpoint. A log
// that begins after the checkpoint is refused before anything is read
// (logGap).
func (t *Tree) replay(l *wal.Log, through uint64) error {
	ckpt, n := t.lsn, l.BaseLSN()
	if err := logGap(l, ckpt); err != nil {
		return err
	}
	err := l.Replay(func(rec []byte) error {
		if n == through {
			return errStopReplay
		}
		if n++; n <= ckpt {
			return nil
		}
		t.lsn = n
		return applyRecord(t, rec)
	})
	if errors.Is(err, errStopReplay) {
		return nil
	}
	return err
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

// applyRecord decodes one logical WAL record and applies it to t, for
// replay.
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

// AutoCheckpoint makes a tree with a log checkpoint itself whenever the
// log holds at least logBytes of records: the writer whose commit fills
// the log runs the checkpoint on its own goroutine, once its operation
// is durable, and every other operation waits for it on the tree lock,
// as for any Flush. Like EnableMetrics it is set after Open, on a new and
// on a reopened tree alike; a later call changes the size, and
// logBytes <= 0 turns the trigger off. It is the write path's only
// setting: everything else about group commit is decided by what the
// writers do. Without a log it does nothing.
func (t *Tree) AutoCheckpoint(logBytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ckptBytes = logBytes
}

// LogSize returns the bytes of operations logged since the last
// checkpoint: 0 without a log.
func (t *Tree) LogSize() int64 {
	if t.log == nil {
		return 0
	}
	return t.log.Size()
}

// LSN returns the log sequence number of the last committed operation —
// the total count of logged operations over the tree's whole history,
// across checkpoints, restarts and restores; 0 for a tree with no log
// history. A tree reopened without a log reports its checkpoint's LSN. A
// backup taken now captures exactly this LSN, and RestoreToLSN can
// replay a WAL onto it up to any later number.
func (t *Tree) LSN() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lsn
}

// GroupStats reports the log's running totals: records committed and
// group syncs performed, 0 and 0 without a log. Their ratio is the
// write-path amortisation achieved so far.
func (t *Tree) GroupStats() (commits, syncs uint64) {
	if t.log == nil {
		return 0, 0
	}
	return t.log.Stats()
}

// Close checkpoints the tree and closes the log it owns; a write after
// it is refused. Without a log it does nothing. It closes nothing else:
// the store stays the caller's.
func (t *Tree) Close() error {
	if t.log == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.flushLocked(); err != nil {
		t.log.Close()
		return err
	}
	return t.log.Close()
}

// Deprecated: kept only for benchmark/; ROADMAP 1(e) deletes it.
type DurableTree struct{ *Tree }

// Deprecated: kept only for benchmark/; ROADMAP 1(e) deletes it.
func (d *DurableTree) InsertBatch(points []geometry.Point, payloads []uint64) error {
	return d.BulkLoad(points, payloads)
}

// Deprecated: kept only for benchmark/; ROADMAP 1(e) deletes it.
func (d *DurableTree) Checkpoint() error { return d.Flush() }

// Deprecated: kept only for benchmark/; ROADMAP 1(e) deletes it.
func NewPaged(st storage.Store, opt Options) (*Tree, error) { return Open(st, nil, opt) }

// Deprecated: kept only for benchmark/; ROADMAP 1(e) deletes it.
func OpenPaged(st storage.Store, cacheNodes int) (*Tree, error) {
	return Open(st, nil, Options{CacheNodes: cacheNodes})
}

// Deprecated: kept only for benchmark/; ROADMAP 1(e) deletes it.
func NewDurableLog(st storage.Store, l *wal.Log, opt Options) (*DurableTree, error) {
	return durable(Open(st, l, opt))
}

// Deprecated: kept only for benchmark/; ROADMAP 1(e) deletes it.
func OpenDurableLog(st storage.Store, l *wal.Log, cacheNodes int) (*DurableTree, error) {
	return durable(Open(st, l, Options{CacheNodes: cacheNodes}))
}

// durable wraps what Open returned for the two shims above.
func durable(t *Tree, err error) (*DurableTree, error) {
	if err != nil {
		return nil, err
	}
	return &DurableTree{t}, nil
}
