package bvtree

import (
	"fmt"
	"time"

	"bvtree/internal/geometry"
)

// BatchOp is one operation of a batched mutation: an insert, or a delete
// when Delete is set. Deletes that match nothing are not errors, exactly
// as with Tree.Delete.
type BatchOp struct {
	Delete  bool
	Point   geometry.Point
	Payload uint64
}

// ApplyBatch applies ops in order under a single exclusive lock
// acquisition, amortising the lock handoff and the end-of-op cache
// maintenance over the whole batch. It stops at the first failing
// operation and returns its error; the preceding operations remain
// applied. Each insert is a put of its own — a save, and a split the
// moment the page overflows — so a batch builds exactly the tree the
// same operations build one by one, in the caller's order.
//
// On a tree with a log the batch is logged, in that order, as one
// contiguous group-committed unit before it is applied; ApplyBatch
// returns once the whole batch is durable, and a crash recovers a
// record-granularity prefix of ops. A batch holding a point of the wrong
// dimensionality is refused whole, before anything is logged or applied.
// ops is never modified.
func (t *Tree) ApplyBatch(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	recs := t.records(len(ops), func(i int) (byte, geometry.Point, uint64) {
		if ops[i].Delete {
			return opDelete, ops[i].Point, ops[i].Payload
		}
		return opInsert, ops[i].Point, ops[i].Payload
	})
	return t.commit(func() error {
		if m := t.metrics; m != nil {
			defer m.Batch.ObserveSince(time.Now())
			m.BatchSize.Observe(int64(len(ops)))
		}
		return t.applyBatchLocked(ops)
	}, recs...)
}

// applyBatchLocked is ApplyBatch's body (exclusive lock held).
func (t *Tree) applyBatchLocked(ops []BatchOp) error {
	for i := range ops {
		op := &ops[i]
		if op.Delete {
			if _, err := t.deleteLocked(op.Point, op.Payload); err != nil {
				return err
			}
		} else if err := t.insertLocked(op.Point, op.Payload); err != nil {
			return err
		}
	}
	return nil
}

// BulkLoad inserts points[i] with payload payloads[i] for all i, in that
// order, under one exclusive lock acquisition: it is a batch of inserts,
// and builds exactly the tree the same Inserts build one by one. There is
// no separate bulk builder — the paper's insertion algorithm keeps its
// guarantees (1/3 occupancy, exact match in height+1 nodes) in any arrival
// order, so the input needs no presorting. Like ApplyBatch it stops at
// the first failing insert, and the preceding ones remain applied.
//
// On a tree with a log the points are logged as one group-committed batch
// of insert records, and BulkLoad returns once the batch is durable.
// Recovery replays the records one by one, in the same order, and so
// rebuilds the same tree.
func (t *Tree) BulkLoad(points []geometry.Point, payloads []uint64) error {
	if len(points) != len(payloads) {
		return fmt.Errorf("bvtree: %d points but %d payloads", len(points), len(payloads))
	}
	if len(points) == 0 {
		return nil
	}
	recs := t.records(len(points), func(i int) (byte, geometry.Point, uint64) {
		return opInsert, points[i], payloads[i]
	})
	return t.commit(func() error {
		for i := range points {
			if err := t.insertLocked(points[i], payloads[i]); err != nil {
				return err
			}
		}
		return nil
	}, recs...)
}
