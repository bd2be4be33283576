package bvtree

import "sync"

// checkpointer runs checkpoints on a background goroutine, so the log
// never grows without bound and foreground writers never pay a full flush
// inline. Lock ordering (DESIGN.md §8/§9): the goroutine acquires the
// tree lock → storage locks, exactly like a foreground Flush, and holds
// nothing across its channel waits. Shutdown must therefore happen while
// the caller holds no tree lock — Close stops the goroutine before taking
// it.
type checkpointer struct {
	t        *Tree
	logBytes int64         // the trigger; guarded by t.mu
	kick     chan struct{} // non-blocking sends from mutations
	stop     chan struct{}
	done     chan struct{}

	mu sync.Mutex
	// firstErr is the first checkpoint failure: once a store poisons,
	// every retry fails with a consequence of that error, so keeping the
	// first preserves the root cause for Close and CheckpointerStats.
	firstErr error
	runs     uint64
}

// AutoCheckpoint makes the tree checkpoint itself in the background
// whenever the log holds at least logBytes of records (checked on every
// mutation). Like EnableMetrics it is set after construction, on a new and
// on a reopened tree alike; a later call changes the size, and
// logBytes <= 0 turns the trigger off. It is the write path's only
// setting: everything else about group commit is decided by what the
// writers do.
func (d *DurableTree) AutoCheckpoint(logBytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cp == nil {
		if logBytes <= 0 {
			return
		}
		d.cp = &checkpointer{
			t:    d.Tree,
			kick: make(chan struct{}, 1),
			stop: make(chan struct{}),
			done: make(chan struct{}),
		}
		go d.cp.run()
	}
	d.cp.logBytes = logBytes
}

// stopCheckpointer terminates the background checkpointer and returns the
// first error it encountered, if any. Safe to call when none is running.
// It holds the tree lock only to detach the checkpointer: the goroutine
// may be waiting for that lock to run a checkpoint, and it must be able
// to finish that checkpoint before it can observe the stop signal.
func (t *Tree) stopCheckpointer() error {
	t.mu.Lock()
	cp := t.cp
	t.cp = nil
	t.mu.Unlock()
	if cp == nil {
		return nil
	}
	close(cp.stop)
	<-cp.done
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.firstErr
}

// kickIfLogFull nudges the checkpointer when the size trigger fires. The
// caller holds the exclusive tree lock (it just committed), so the send
// must not block — a full kick channel means a checkpoint is already
// pending.
func (t *Tree) kickIfLogFull() {
	cp := t.cp
	if cp == nil || cp.logBytes <= 0 || t.log.Size() < cp.logBytes {
		return
	}
	select {
	case cp.kick <- struct{}{}:
	default:
	}
}

// CheckpointerStats reports the background checkpointer's progress: how
// many checkpoints it has run, and the first error it hit (nil while
// every checkpoint has succeeded; later failures never overwrite it, so
// the root cause survives the retries it provokes). Zero values before
// AutoCheckpoint.
func (d *DurableTree) CheckpointerStats() (runs uint64, firstErr error) {
	d.mu.RLock()
	cp := d.cp
	d.mu.RUnlock()
	if cp == nil {
		return 0, nil
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.runs, cp.firstErr
}

// run checkpoints on every kick. Errors are recorded, not fatal: the
// foreground write path keeps its own durability (each mutation is fsynced
// via group commit), so a failing background checkpoint degrades log
// truncation, not correctness — and the next trigger retries.
func (cp *checkpointer) run() {
	defer close(cp.done)
	for {
		select {
		case <-cp.stop:
			return
		case <-cp.kick:
			cp.record(cp.t.Flush())
		}
	}
}

// record counts one checkpoint run and keeps its error if it is the
// first.
func (cp *checkpointer) record(err error) {
	cp.mu.Lock()
	cp.runs++
	if err != nil && cp.firstErr == nil {
		cp.firstErr = err
	}
	cp.mu.Unlock()
}
