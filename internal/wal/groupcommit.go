package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bvtree/internal/obs"
)

// commitBatch is one group of records that becomes durable with a single
// Sync. The first enqueuer is the batch's leader and performs the I/O on
// behalf of every member.
type commitBatch struct {
	id   uint64
	recs [][]byte
	done chan struct{} // closed after the batch's I/O completes
	err  error
}

// Ticket identifies one Enqueue within a batch. Every ticket's owner must
// call Wait exactly once; the batch leader's Wait performs the group I/O,
// so an abandoned ticket stalls every later batch.
type Ticket struct {
	b      *commitBatch
	leader bool
}

// GroupCommitter turns concurrent Append+Sync pairs into group commits:
// concurrent committers enqueue records into a forming batch, one of them
// (the leader) frames and writes the whole batch with a single Write and
// makes it durable with a single Sync, and every member observes the same
// outcome. Batches reach the log strictly in formation order, so the log
// order equals the enqueue order — the property the durable tree's
// log-before-apply contract needs. There is nothing to tune: a batch
// absorbs enqueues until its leader claims the log, which it does as soon
// as the previous batch's I/O is over, so batching is exactly the commits
// that arrive while a Sync is in flight.
//
// Failure is sticky: after any batch I/O error the log's tail state is
// unknown (a torn frame may sit beyond the last durable record, and a
// later append would shadow it), so every subsequent Enqueue, Wait and
// Drain reports the first error. The owner must discard the committer —
// and, for the durable tree, the whole in-memory state — and recover by
// replay.
type GroupCommitter struct {
	log *Log

	mu     sync.Mutex
	cond   *sync.Cond // broadcast when ioTurn advances
	cur    *commitBatch
	nextID uint64 // id of the next batch to form
	ioTurn uint64 // id of the batch allowed to perform I/O
	closed bool
	failed error

	syncs   atomic.Uint64 // group Syncs performed (one per batch)
	commits atomic.Uint64 // records committed
}

// NewGroupCommitter wraps l. The caller retains ownership of l but must
// route every append through the committer from now on: raw Append/Sync
// calls would interleave with group frames. Reset and Replay remain the
// owner's to call, after Drain.
func NewGroupCommitter(l *Log) *GroupCommitter {
	g := &GroupCommitter{log: l}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Syncs returns the number of group Sync operations performed so far; the
// ratio Commits/Syncs is the amortization the group achieved.
func (g *GroupCommitter) Syncs() uint64 { return g.syncs.Load() }

// Commits returns the number of records committed so far.
func (g *GroupCommitter) Commits() uint64 { return g.commits.Load() }

// Enqueue adds recs to the forming batch as one contiguous unit — they
// occupy adjacent positions in the log, so a crash recovers a prefix of
// them in order — and returns a single ticket for all of them, whose Wait
// blocks until they are durable. The committer does not copy the records:
// the caller must keep them unmodified until Wait returns.
func (g *GroupCommitter) Enqueue(recs ...[]byte) (*Ticket, error) {
	for _, rec := range recs {
		if len(rec) == 0 {
			return nil, fmt.Errorf("wal: group commit: empty record")
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrClosed
	}
	if g.failed != nil {
		return nil, fmt.Errorf("wal: group commit failed earlier: %w", g.failed)
	}
	t := &Ticket{}
	b := g.cur
	if b == nil {
		b = &commitBatch{id: g.nextID, done: make(chan struct{})}
		g.nextID++
		t.leader = true
		g.cur = b
	}
	t.b = b
	b.recs = append(b.recs, recs...)
	return t, nil
}

// Wait blocks until the ticket's batch is durable and returns the batch's
// outcome. The leader's Wait claims the log in batch order, writes the
// whole batch as one frame sequence and syncs once.
//
// When the log carries metrics (Log.SetMetrics), Wait records its own
// duration — the committer's enqueue-to-durable wait — into GroupWait,
// and the leader records the batch's record count into GroupBatch.
func (g *GroupCommitter) Wait(t *Ticket) error {
	m := g.log.m.Load()
	if m == nil {
		return g.wait(t, nil)
	}
	start := time.Now()
	err := g.wait(t, m)
	m.GroupWait.ObserveSince(start)
	return err
}

func (g *GroupCommitter) wait(t *Ticket, m *obs.WALMetrics) error {
	b := t.b
	if !t.leader {
		<-b.done
		return b.err
	}
	g.mu.Lock()
	for g.ioTurn != b.id {
		g.cond.Wait()
	}
	if g.cur == b {
		g.cur = nil // later enqueues form the next batch
	}
	failed := g.failed
	g.mu.Unlock()

	var err error
	if failed != nil {
		err = fmt.Errorf("wal: group commit failed earlier: %w", failed)
	} else {
		err = g.log.AppendBatch(b.recs)
		if err == nil {
			g.syncs.Add(1)
			g.commits.Add(uint64(len(b.recs)))
			if m != nil {
				m.GroupBatch.Observe(int64(len(b.recs)))
			}
		}
	}

	g.mu.Lock()
	if err != nil && g.failed == nil {
		g.failed = err
	}
	g.ioTurn++ // advances even on failure, so successors don't deadlock
	g.cond.Broadcast()
	g.mu.Unlock()

	b.err = err
	close(b.done)
	return err
}

// Drain blocks until every batch enqueued so far has completed its I/O and
// returns the committer's sticky failure, if any. The owner must prevent
// new enqueues during the operations that need a drained log (checkpoint,
// close): the durable tree does so by holding its order lock.
func (g *GroupCommitter) Drain() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.ioTurn != g.nextID {
		g.cond.Wait()
	}
	if g.failed != nil {
		return fmt.Errorf("wal: group commit failed earlier: %w", g.failed)
	}
	return nil
}

// Close drains the committer and rejects further enqueues. It does not
// close the underlying log, which the owner keeps for Reset/Replay/Close.
func (g *GroupCommitter) Close() error {
	err := g.Drain()
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	return err
}
