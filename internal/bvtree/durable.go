package bvtree

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"bvtree/internal/geometry"
	"bvtree/internal/obs"
	"bvtree/internal/storage"
	"bvtree/internal/wal"
)

// DurableTree wraps a paged Tree with a logical write-ahead log: every
// mutation is enqueued into a group-committed log batch and applied to the
// tree, and the caller's ack is withheld until the log batch is fsynced.
// Checkpoint persists the tree and empties the log. Opening after a crash
// replays the operations logged since the last checkpoint onto the
// checkpointed tree state, so no acknowledged update is lost.
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
// Write-path protocol (commit). A mutation (1) encodes its log record,
// (2) takes the order lock d.mu, enqueues the record into the group
// committer's forming batch AND applies the operation to the tree,
// (3) releases d.mu and waits for the batch's single fsync before
// acknowledging. Enqueue and apply share one critical section, so the log
// order always equals the apply order — recovery replays a strict prefix
// of exactly the sequence the live tree executed. The fsync happens
// outside d.mu: while one batch's leader is in fsync, other writers
// enqueue-and-apply under d.mu and pile onto the next batch, so one disk
// sync is amortised over every writer that arrived during it. A mutation
// that fails the fsync wait returns the error and poisons the committer;
// the applied-but-unlogged state is then unreachable through the write
// path (every later mutation fails) and the correct recovery is to discard
// the handle and reopen, which replays the durable prefix.
//
// Every method of the embedded Tree that changes the tree or the store is
// declared again on DurableTree, so that it goes through the log or
// through Checkpoint: a store synced at an epoch the log still carries
// would replay the log onto a state that already holds it
// (TestDurableShadowsTreeMutators keeps the list complete). The only
// setting of the write path is AutoCheckpoint.
//
// Concurrency: the wrapper's mutex guards the log enqueue order, and only
// the mutating operations take it. Read operations are promoted unchanged
// from the embedded Tree and never touch the WAL mutex — they run under
// the tree's shared lock, in parallel with each other, blocked only by an
// in-flight mutation's tree-level exclusive section, never by its fsync.
type DurableTree struct {
	*Tree
	mu  sync.Mutex // serialises log enqueue + apply; see the protocol above
	log *wal.Log
	gc  *wal.GroupCommitter

	// lsn is the log sequence number of the last operation enqueued (and
	// applied — the two happen in one d.mu critical section, so the tree
	// state under d.mu is exactly the state after lsn operations).
	// Guarded by d.mu. Checkpoints fold it into the log preamble
	// (ResetAt), so it survives restarts: on open it is reconstructed as
	// BaseLSN plus the number of records replayed.
	lsn uint64

	// wm holds the WAL-layer histograms when metrics are enabled (via
	// Options.Metrics or EnableMetrics). Guarded by d.mu; the log itself
	// keeps its own atomic reference.
	wm *obs.WALMetrics

	cp *checkpointer // non-nil once AutoCheckpoint has started one
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
	if err := l.Reset(tr.Epoch()); err != nil {
		l.Close()
		return nil, err
	}
	d := &DurableTree{Tree: tr, log: l, gc: wal.NewGroupCommitter(l)}
	d.lsn = l.BaseLSN()
	tr.setBaseLSN(d.lsn)
	if opt.Metrics {
		d.wm = &obs.WALMetrics{}
		l.SetMetrics(d.wm)
	}
	return d, nil
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
// ownership of the log, closing it on error.
func OpenDurableLog(st storage.Store, l *wal.Log, cacheNodes int) (*DurableTree, error) {
	tr, err := OpenPaged(st, cacheNodes)
	if err != nil {
		l.Close()
		return nil, err
	}
	d := &DurableTree{Tree: tr, log: l}
	switch {
	case l.Epoch() == tr.Epoch():
		d.lsn = l.BaseLSN()
		if err := l.Replay(func(rec []byte) error {
			d.lsn++
			return d.apply(rec)
		}); err != nil {
			l.Close()
			return nil, fmt.Errorf("bvtree: wal replay: %w", err)
		}
	case l.Epoch() < tr.Epoch():
		// Every record in the log predates the store's checkpoint: the
		// crash hit between the checkpoint flush and the log reset.
		// Replaying would double-apply; discard instead — but first count
		// the records, so the LSN stream stays continuous across the
		// completed-but-unreset checkpoint.
		d.lsn = l.BaseLSN()
		if err := l.Replay(func([]byte) error { d.lsn++; return nil }); err != nil {
			l.Close()
			return nil, fmt.Errorf("bvtree: wal scan: %w", err)
		}
		if err := l.ResetAt(tr.Epoch(), d.lsn); err != nil {
			l.Close()
			return nil, err
		}
	default:
		l.Close()
		return nil, fmt.Errorf("bvtree: %w: wal epoch %d ahead of store checkpoint epoch %d", wal.ErrCorrupt, l.Epoch(), tr.Epoch())
	}
	tr.setBaseLSN(d.lsn)
	d.gc = wal.NewGroupCommitter(l)
	return d, nil
}

const (
	opInsert byte = 1
	opDelete byte = 2
)

// recPool recycles log-record encode buffers. A record is in flight (and
// must stay untouched) from Enqueue until the committer's Wait returns, so
// buffers go back to the pool only after the group sync.
var recPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2+8*geometry.MaxDims+8)
	return &b
}}

// encodeOp frames one logical operation into a pooled buffer. Release
// with putRec after the record is durable.
func encodeOp(op byte, p geometry.Point, payload uint64) *[]byte {
	bp := recPool.Get().(*[]byte)
	rec := (*bp)[:0]
	rec = append(rec, op, byte(len(p)))
	for _, c := range p {
		rec = binary.LittleEndian.AppendUint64(rec, c)
	}
	rec = binary.LittleEndian.AppendUint64(rec, payload)
	*bp = rec
	return bp
}

func putRec(bp *[]byte) { recPool.Put(bp) }

func (d *DurableTree) apply(rec []byte) error { return applyRecord(d.Tree, rec) }

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

// commit runs the group-commit protocol for the records of one operation
// — a single Insert or Delete, or a whole batch, which is logged
// contiguously under one ticket: enqueue and apply under the order lock,
// wait for the group sync outside it, and only then hand the encode
// buffers back to the pool. It returns the apply result in preference to
// the sync result, since an apply error carries the structural failure.
func (d *DurableTree) commit(apply func() error, bufs ...*[]byte) error {
	var one [1][]byte // a single record needs no slice on the heap
	recs := one[:0]
	if len(bufs) > len(one) {
		recs = make([][]byte, 0, len(bufs))
	}
	for _, bp := range bufs {
		recs = append(recs, *bp)
	}
	d.mu.Lock()
	t, err := d.gc.Enqueue(recs...)
	var aerr error
	if err == nil {
		d.lsn += uint64(len(recs))
		aerr = apply()
		d.kickIfLogFull()
	}
	d.mu.Unlock()
	if err == nil {
		err = d.gc.Wait(t)
	}
	for _, bp := range bufs {
		putRec(bp)
	}
	if aerr != nil {
		return aerr
	}
	return err
}

// Insert logs the operation as part of a group commit and applies it; it
// returns once the record is durable.
func (d *DurableTree) Insert(p geometry.Point, payload uint64) error {
	return d.commit(func() error { return d.Tree.Insert(p, payload) }, encodeOp(opInsert, p, payload))
}

// Delete logs the operation as part of a group commit and applies it; it
// returns once the record is durable. As with Tree.Delete the bool says
// whether the item left the tree, beside an error as well as without one.
func (d *DurableTree) Delete(p geometry.Point, payload uint64) (bool, error) {
	var ok bool
	err := d.commit(func() error {
		var aerr error
		ok, aerr = d.Tree.Delete(p, payload)
		return aerr
	}, encodeOp(opDelete, p, payload))
	return ok, err
}

// InsertBatch inserts points[i] with payload payloads[i] as one logged
// batch: the records are group-committed contiguously with a single sync,
// and the tree applies them under a single lock acquisition, in z-order,
// so successive descents share upper-tree nodes. A crash during the batch
// recovers to a record-granularity prefix of it.
func (d *DurableTree) InsertBatch(points []geometry.Point, payloads []uint64) error {
	if len(points) != len(payloads) {
		return fmt.Errorf("bvtree: InsertBatch: %d points but %d payloads", len(points), len(payloads))
	}
	ops := make([]BatchOp, len(points))
	for i := range points {
		ops[i] = BatchOp{Point: points[i], Payload: payloads[i]}
	}
	return d.ApplyBatch(ops)
}

// ApplyBatch logs and applies a mixed batch of inserts and deletes as one
// group-committed unit. The batch is first stably sorted by z-order
// (operations on the same point keep their relative order), then logged
// contiguously and applied in the same order under a single tree lock
// acquisition. It returns once the whole batch is durable. On an apply
// error the batch's applied prefix remains, exactly as with sequential
// operations.
func (d *DurableTree) ApplyBatch(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	if err := d.Tree.sortBatchZOrder(ops); err != nil {
		return err
	}
	bufs := make([]*[]byte, len(ops))
	for i := range ops {
		op := opInsert
		if ops[i].Delete {
			op = opDelete
		}
		bufs[i] = encodeOp(op, ops[i].Point, ops[i].Payload)
	}
	return d.commit(func() error { return d.Tree.ApplyBatch(ops) }, bufs...)
}

// BulkLoad logs points[i]/payloads[i] as one group-committed batch of
// insert records and loads them through the tree's bulk path (packed
// bottom-up build on an empty tree, z-ordered batch apply otherwise). It
// returns once the whole batch is durable. Crash recovery replays the
// records individually — the rebuilt tree holds the same item multiset,
// though not necessarily the same page layout, as the bulk build.
func (d *DurableTree) BulkLoad(points []geometry.Point, payloads []uint64) error {
	if len(points) != len(payloads) {
		return fmt.Errorf("bvtree: BulkLoad: %d points but %d payloads", len(points), len(payloads))
	}
	if len(points) == 0 {
		return nil
	}
	bufs := make([]*[]byte, len(points))
	for i := range points {
		bufs[i] = encodeOp(opInsert, points[i], payloads[i])
	}
	return d.commit(func() error { return d.Tree.BulkLoad(points, payloads) }, bufs...)
}

// Checkpoint persists the tree state under a new checkpoint epoch and
// empties the log. After a successful checkpoint, recovery starts from
// this state. The ordering is crash-safe at every point: the store flush
// is atomic (rollback journal), and the log is only reset after the new
// epoch is durable in the store — a crash in between leaves the log one
// epoch behind, which recovery recognises and discards. AutoCheckpoint
// runs it in the background.
func (d *DurableTree) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpointLocked()
}

// Flush is Checkpoint. The embedded Tree.Flush alone would sync the store
// at the epoch the log still carries, and a crash after it would replay
// every logged operation onto a store that already holds it.
func (d *DurableTree) Flush() error { return d.Checkpoint() }

// checkpointLocked runs under d.mu, which blocks new enqueues; draining
// the group committer then guarantees no in-flight batch can append
// pre-checkpoint records after the log reset stamps the new epoch (they
// would replay as post-checkpoint operations and double-apply).
func (d *DurableTree) checkpointLocked() error {
	wm, tr := d.wm, d.Tree.getTracer()
	var start time.Time
	if wm != nil || tr != nil {
		start = time.Now()
	}
	if err := d.gc.Drain(); err != nil {
		return err
	}
	absorbed := d.log.Size() // log bytes this checkpoint makes redundant
	d.Tree.advanceEpoch()
	if err := d.Tree.Flush(); err != nil {
		return err
	}
	if err := d.log.ResetAt(d.Tree.Epoch(), d.lsn); err != nil {
		return err
	}
	if wm != nil {
		wm.Checkpoint.ObserveSince(start)
		wm.CheckpointB.Add(uint64(absorbed))
		wm.Checkpoints.Inc()
	}
	if tr != nil {
		tr.Trace(obs.Event{Layer: obs.LayerWAL, Op: obs.OpCheckpoint, Dur: time.Since(start), N: absorbed})
	}
	return nil
}

// EnableMetrics enables the tree-layer histograms (see Tree.EnableMetrics)
// and additionally wires up the WAL-layer histograms.
func (d *DurableTree) EnableMetrics() {
	d.Tree.EnableMetrics()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wm == nil {
		d.wm = &obs.WALMetrics{}
		d.log.SetMetrics(d.wm)
	}
}

// Metrics extends Tree.Metrics with the WAL layer's section: append and
// fsync latency, group-commit amortisation and checkpoint cost.
func (d *DurableTree) Metrics() obs.Snapshot {
	d.mu.Lock()
	wm := d.wm
	d.mu.Unlock()
	s := d.Tree.Metrics()
	if wm != nil {
		ws := wm.Snapshot()
		s.WAL = &ws
	}
	return s
}

// LogSize returns the bytes of operations logged since the last
// checkpoint.
func (d *DurableTree) LogSize() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Size()
}

// LSN returns the log sequence number of the last committed operation —
// the total count of logged operations over the tree's whole history,
// across checkpoints and restarts. A backup taken now captures exactly
// this LSN, and RestoreToLSN can replay a WAL onto it up to any later
// number.
func (d *DurableTree) LSN() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lsn
}

// SnapshotBackup streams a consistent online backup of the tree to w and
// returns the LSN it captures. The snapshot is pinned under the write
// order lock — so the backup state is exactly "every operation through
// LSN n, nothing after" — but streaming runs on an MVCC snapshot after
// the lock is released: concurrent writers commit freely while the
// backup's pinned epoch streams out. See Tree.SnapshotBackup for the
// stream format.
func (d *DurableTree) SnapshotBackup(w io.Writer) (uint64, error) {
	d.mu.Lock()
	// d.mu blocks all mutations while the state is pinned, so the pinned
	// pages are exactly the effect of operations 1..lsn.
	s, err := d.Tree.Snapshot()
	if err != nil {
		d.mu.Unlock()
		return 0, err
	}
	lsn := d.lsn
	d.mu.Unlock()
	defer s.Release()
	if err := s.writeBackup(w, lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// GroupStats reports the group committer's running totals: records
// committed and group syncs performed. Their ratio is the write-path
// amortisation achieved so far.
func (d *DurableTree) GroupStats() (commits, syncs uint64) {
	return d.gc.Commits(), d.gc.Syncs()
}

// Close stops the background checkpointer (if any), checkpoints, and
// closes the log. The page store remains the caller's to close.
//
// Shutdown ordering (see DESIGN.md §9): the checkpointer is stopped
// before d.mu is taken — it acquires d.mu for its own checkpoints, so
// stopping it from inside the lock would deadlock.
func (d *DurableTree) Close() error {
	cpErr := d.stopCheckpointer()
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkpointLocked(); err != nil {
		d.log.Close()
		return err
	}
	if err := d.log.Close(); err != nil {
		return err
	}
	return cpErr
}
