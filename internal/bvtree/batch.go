package bvtree

import (
	"sort"
	"time"

	"bvtree/internal/geometry"
	"bvtree/internal/obs"
	"bvtree/internal/region"
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
// same operations build one by one; sharing one save between the
// same-page items of a z-sorted batch would save writes but change every
// split, and waits for a workload that measures it.
//
// On a tree with a log the batch is first stably sorted by z-order, in
// place (operations on one point keep their order), then logged as one
// contiguous group-committed unit and applied in that order; it returns
// once the whole batch is durable, and a crash recovers a
// record-granularity prefix of it.
func (t *Tree) ApplyBatch(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	var bufs []*[]byte
	if t.log != nil {
		if err := t.sortBatchZOrder(ops); err != nil {
			return err
		}
		bufs = make([]*[]byte, len(ops))
		for i := range ops {
			op := opInsert
			if ops[i].Delete {
				op = opDelete
			}
			bufs[i] = encodeOp(op, ops[i].Point, ops[i].Payload)
		}
	}
	return t.commit(func() error {
		m, tr := t.metrics, t.tracer
		if m == nil && tr == nil {
			return t.applyBatchLocked(ops)
		}
		start := time.Now()
		err := t.applyBatchLocked(ops)
		dur := time.Since(start)
		if m != nil {
			m.Batch.Observe(int64(dur))
			m.BatchSize.Observe(int64(len(ops)))
		}
		if tr != nil {
			tr.Trace(obs.Event{Layer: obs.LayerTree, Op: obs.OpBatch, Dur: dur, N: int64(len(ops)), Err: err != nil})
		}
		return err
	}, bufs...)
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

// sortBatchZOrder stably sorts ops by the z-order address of their point,
// so successive descents of a batch walk neighbouring paths: the upper
// tree nodes and the decoded-node cache lines they share stay hot from
// one operation to the next. Stability is what keeps mixed batches
// correct — two operations on the same point have equal addresses, and
// their relative order (insert before delete, or the reverse) is
// semantically significant.
func (t *Tree) sortBatchZOrder(ops []BatchOp) error {
	keys := make([]region.BitString, len(ops))
	for i := range ops {
		a, err := t.addr(ops[i].Point)
		if err != nil {
			return err
		}
		keys[i] = a
	}
	sort.Stable(&zorderedOps{keys: keys, ops: ops})
	return nil
}

// zorderedOps sorts a batch and its precomputed address keys in lockstep.
type zorderedOps struct {
	keys []region.BitString
	ops  []BatchOp
}

func (z *zorderedOps) Len() int           { return len(z.ops) }
func (z *zorderedOps) Less(i, j int) bool { return z.keys[i].Compare(z.keys[j]) < 0 }
func (z *zorderedOps) Swap(i, j int) {
	z.keys[i], z.keys[j] = z.keys[j], z.keys[i]
	z.ops[i], z.ops[j] = z.ops[j], z.ops[i]
}
