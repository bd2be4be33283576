package bvtree

import (
	"sync"
	"time"
)

// CheckpointConfig triggers background checkpoints so the log never grows
// without bound and foreground writers never pay a full flush inline.
// Either trigger may be used alone; the zero value disables the
// background checkpointer entirely.
type CheckpointConfig struct {
	// MaxLogBytes checkpoints once the WAL holds at least this many bytes
	// of records (size trigger, checked on every mutation). 0 disables.
	MaxLogBytes int64
	// MaxAge checkpoints whenever the log has been non-empty for this
	// long (age trigger). 0 disables.
	MaxAge time.Duration
}

func (c CheckpointConfig) enabled() bool {
	return c.MaxLogBytes > 0 || c.MaxAge > 0
}

// checkpointer runs checkpoints on a background goroutine. Lock ordering
// (DESIGN.md §8/§9): the goroutine acquires d.mu → tree.mu → storage
// locks, exactly like a foreground Checkpoint, and holds nothing across
// its channel waits. Shutdown must therefore happen while the caller
// holds no DurableTree locks — Close stops the goroutine before taking
// d.mu.
type checkpointer struct {
	d    *DurableTree
	cfg  CheckpointConfig
	kick chan struct{} // size trigger, non-blocking sends from mutations
	stop chan struct{}
	done chan struct{}

	mu sync.Mutex
	// firstErr is the first checkpoint failure: once a store poisons,
	// every retry fails with a consequence of that error, so keeping the
	// first preserves the root cause for Close and CheckpointerStats.
	firstErr error
	runs     uint64
}

// startCheckpointer launches the background checkpointer when cfg enables
// one. Called from the constructors, before the tree is shared.
func (d *DurableTree) startCheckpointer(cfg CheckpointConfig) {
	if !cfg.enabled() {
		return
	}
	cp := &checkpointer{
		d:    d,
		cfg:  cfg,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	d.cp = cp
	go cp.run()
}

// stopCheckpointer terminates the background checkpointer and returns the
// first error it encountered, if any. Safe to call when none is running.
// Must be called without holding d.mu: the goroutine may be blocked
// acquiring it for a checkpoint, and it must be able to finish that
// checkpoint before it can observe the stop signal.
func (d *DurableTree) stopCheckpointer() error {
	cp := d.cp
	if cp == nil {
		return nil
	}
	d.cp = nil
	close(cp.stop)
	<-cp.done
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.firstErr
}

// kickIfLogFull nudges the checkpointer when the size trigger fires. The
// caller holds d.mu (it just appended to the log), so the send must not
// block — a full kick channel means a checkpoint is already pending.
func (d *DurableTree) kickIfLogFull() {
	cp := d.cp
	if cp == nil || cp.cfg.MaxLogBytes <= 0 || d.log.Size() < cp.cfg.MaxLogBytes {
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
// the root cause survives the retries it provokes). Zero values when no
// checkpointer is configured.
func (d *DurableTree) CheckpointerStats() (runs uint64, firstErr error) {
	cp := d.cp
	if cp == nil {
		return 0, nil
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.runs, cp.firstErr
}

func (cp *checkpointer) run() {
	defer close(cp.done)
	var ticker *time.Ticker
	var tick <-chan time.Time
	if cp.cfg.MaxAge > 0 {
		ticker = time.NewTicker(cp.cfg.MaxAge)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-cp.stop:
			return
		case <-cp.kick:
			cp.checkpoint(0)
		case <-tick:
			// The age trigger only bothers the disk when there is
			// something to absorb.
			cp.checkpoint(1)
		}
	}
}

// checkpoint runs one background checkpoint if the log holds at least
// minBytes of records. Errors are recorded, not fatal: the foreground
// write path keeps its own durability (each mutation is fsynced via group
// commit), so a failing background checkpoint degrades log truncation,
// not correctness — and the next trigger retries.
func (cp *checkpointer) checkpoint(minBytes int64) {
	if cp.d.LogSize() < minBytes {
		return
	}
	cp.record(cp.d.Checkpoint())
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
