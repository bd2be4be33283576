package bvtree

// Batched write-path suite: differential correctness of
// BulkLoad/ApplyBatch against the sequential path and a linear-scan
// oracle, plus the TestConcurrentBatch* race-smoke tests that make
// verify runs under the race detector.

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"bvtree/internal/fault"
	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/vfs"
	"bvtree/internal/workload"
)

// TestBatchDifferentialOracle drives the same shuffled workload through
// (a) BulkLoad/ApplyBatch in batches on a durable tree and (b) one-at-a-time
// Insert/Delete on a second durable tree, and checks both against a
// linear-scan oracle: identical exact-match answers on every point,
// identical range counts, full invariant pass on both trees.
func TestBatchDifferentialOracle(t *testing.T) {
	for _, kind := range []workload.Kind{workload.Uniform, workload.Clustered, workload.Skewed} {
		t.Run(string(kind), func(t *testing.T) {
			const dims, n = 2, 3000
			pts, err := workload.Generate(kind, dims, n, 41)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			batched, err := openLogged(storage.NewMemStore(), filepath.Join(dir, "b.wal"), Options{Dims: dims, DataCapacity: 8, Fanout: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer batched.Close()
			serial, err := openLogged(storage.NewMemStore(), filepath.Join(dir, "s.wal"), Options{Dims: dims, DataCapacity: 8, Fanout: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer serial.Close()

			// Shuffle the workload and build mixed batches: inserts for the
			// shuffled points plus deletes of a third of the items inserted
			// by earlier batches — and, within one batch, some insert+delete
			// pairs of the same point, whose outcome depends on the batch
			// keeping the caller's order.
			rng := rand.New(rand.NewSource(97))
			perm := rng.Perm(n)
			type item struct {
				p       geometry.Point
				payload uint64
			}
			live := map[uint64]geometry.Point{}
			var inserted []item
			next := 0
			for batchNo := 0; next < n; batchNo++ {
				size := 1 + rng.Intn(200)
				if size > n-next {
					size = n - next
				}
				var ops []BatchOp
				for i := 0; i < size; i++ {
					idx := perm[next]
					next++
					p := pts[idx]
					ops = append(ops, BatchOp{Point: p, Payload: uint64(idx)})
					inserted = append(inserted, item{p: p, payload: uint64(idx)})
					live[uint64(idx)] = p
					if rng.Intn(8) == 0 {
						// Same-batch insert+delete of the same point: must
						// cancel out in log order.
						ops = append(ops, BatchOp{Delete: true, Point: p, Payload: uint64(idx)})
						delete(live, uint64(idx))
					}
				}
				for i := 0; i < size/3 && len(inserted) > 0; i++ {
					j := rng.Intn(len(inserted))
					it := inserted[j]
					if _, ok := live[it.payload]; !ok {
						continue
					}
					ops = append(ops, BatchOp{Delete: true, Point: it.p, Payload: it.payload})
					delete(live, it.payload)
				}
				if err := batched.ApplyBatch(ops); err != nil {
					t.Fatalf("batch %d: %v", batchNo, err)
				}
				// Serial tree: the same logical ops one at a time, in the
				// same order.
				for _, op := range ops {
					if op.Delete {
						if _, err := serial.Delete(op.Point, op.Payload); err != nil {
							t.Fatal(err)
						}
					} else {
						if err := serial.Insert(op.Point, op.Payload); err != nil {
							t.Fatal(err)
						}
					}
				}
			}

			if got, want := batched.Len(), len(live); got != want {
				t.Fatalf("batched Len=%d, oracle %d", got, want)
			}
			if got, want := serial.Len(), len(live); got != want {
				t.Fatalf("serial Len=%d, oracle %d", got, want)
			}
			if err := batched.Validate(true); err != nil {
				t.Fatalf("batched invariants: %v", err)
			}
			if err := serial.Validate(true); err != nil {
				t.Fatalf("serial invariants: %v", err)
			}
			// Exact-match agreement on every original point.
			for i, p := range pts {
				wantHit := false
				if q, ok := live[uint64(i)]; ok && q.Equal(p) {
					wantHit = true
				}
				for name, d := range map[string]*Tree{"batched": batched, "serial": serial} {
					got, err := contains(d, p, uint64(i))
					if err != nil {
						t.Fatal(err)
					}
					if got != wantHit {
						t.Fatalf("%s: point %d present=%v, oracle %v", name, i, got, wantHit)
					}
				}
			}
			// Range-count agreement against the linear scan.
			for qi, r := range workload.QueryRects(dims, 25, 0.1, 7) {
				want := 0
				for _, p := range live {
					if r.Contains(p) {
						want++
					}
				}
				for name, d := range map[string]*Tree{"batched": batched, "serial": serial} {
					got, err := d.Count(r)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s: query %d count=%d, oracle %d", name, qi, got, want)
					}
				}
			}
			// Group commit really grouped: the batched tree performed far
			// fewer syncs than it committed records.
			commits, syncs := batched.GroupStats()
			if commits == 0 || syncs == 0 || syncs > commits {
				t.Fatalf("GroupStats commits=%d syncs=%d out of range", commits, syncs)
			}
		})
	}
}

// TestBatchRecoveryRoundTrip checkpoints nothing and reopens after batch
// writes: every batched record must replay from the log.
func TestBatchRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenFileStore(filepath.Join(dir, "t.db"),
		storage.FileStoreOptions{SlotSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	d, err := openLogged(st, filepath.Join(dir, "t.wal"), Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(workload.Uniform, 2, 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([]uint64, len(pts))
	for i := range payloads {
		payloads[i] = uint64(i)
	}
	if err := d.BulkLoad(pts, payloads); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon store and tree without Close. Closing would
	// checkpoint the applied state while the log still holds the same
	// ops — replay would then double-apply. A crash loses the pinned
	// dirty frames instead, so recovery comes entirely from the log.
	_ = d
	_ = st

	st2, err := storage.OpenFileStore(filepath.Join(dir, "t.db"), storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	re, err := openLogged(st2, filepath.Join(dir, "t.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(pts) {
		t.Fatalf("recovered Len=%d, want %d", re.Len(), len(pts))
	}
	for i, p := range pts {
		found, err := contains(re, p, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("batched item %d lost across recovery", i)
		}
	}
	if err := re.Validate(true); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentBatchWriters hammers a durable tree with concurrent
// ApplyBatch, single-op Insert/Delete, readers, and explicit checkpoints
// — the race-smoke test for the group-commit write path (run under
// -race by make verify).
func TestConcurrentBatchWriters(t *testing.T) {
	dir := t.TempDir()
	d, err := openLogged(storage.NewMemStore(), filepath.Join(dir, "t.wal"), Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	d.AutoCheckpoint(1 << 14)
	pts, err := workload.Generate(workload.Uniform, 2, 2400, 43)
	if err != nil {
		t.Fatal(err)
	}
	stable := pts[:800]
	churn := pts[800:]
	for i, p := range stable {
		if err := d.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	var (
		stop     atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			stop.Store(true)
		}
		errMu.Unlock()
	}
	var wg sync.WaitGroup
	// Batch writers: each owns an interleaved slice of the churn half and
	// commits it in batches of 32, deleting every third batch again.
	const batchWriters = 3
	for w := 0; w < batchWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ops []BatchOp
			for i := w; i < len(churn); i += batchWriters {
				if stop.Load() {
					return
				}
				ops = append(ops, BatchOp{Point: churn[i], Payload: uint64(800 + i)})
				if len(ops) == 32 {
					if err := d.ApplyBatch(ops); err != nil {
						fail(fmt.Errorf("batch writer %d: %w", w, err))
						return
					}
					if i%3 == 0 {
						del := make([]BatchOp, len(ops))
						for j, op := range ops {
							del[j] = BatchOp{Delete: true, Point: op.Point, Payload: op.Payload}
						}
						if err := d.ApplyBatch(del); err != nil {
							fail(fmt.Errorf("batch writer %d: delete batch: %w", w, err))
							return
						}
					}
					ops = ops[:0]
				}
			}
			if len(ops) > 0 {
				if err := d.ApplyBatch(ops); err != nil {
					fail(fmt.Errorf("batch writer %d: tail batch: %w", w, err))
				}
			}
		}(w)
	}
	// One single-op writer mixing with the batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300 && !stop.Load(); i++ {
			p := geometry.Point{uint64(i) * 7919, uint64(i) * 104729}
			if err := d.Insert(p, uint64(1_000_000+i)); err != nil {
				fail(fmt.Errorf("single writer: %w", err))
				return
			}
			if _, err := d.Delete(p, uint64(1_000_000+i)); err != nil {
				fail(fmt.Errorf("single writer delete: %w", err))
				return
			}
		}
	}()
	// Readers over the stable half.
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			src := workload.NewSource(uint64(4200 + r))
			for !stop.Load() {
				idx := int(src.Uint64() % uint64(len(stable)))
				payloads, err := d.Lookup(stable[idx])
				if err != nil {
					fail(fmt.Errorf("reader %d: %w", r, err))
					return
				}
				if !containsPayload(payloads, uint64(idx)) {
					fail(fmt.Errorf("reader %d: stable point %d missing", r, idx))
					return
				}
			}
		}(r)
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if err := d.Validate(true); err != nil {
		t.Fatal(err)
	}
	commits, syncs := d.GroupStats()
	if commits == 0 || syncs == 0 || syncs > commits {
		t.Fatalf("GroupStats commits=%d syncs=%d out of range", commits, syncs)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentBackgroundCheckpointer lets the size trigger fire under
// concurrent writers, each of which may run the checkpoint its commit
// made due, and verifies the checkpoints actually truncate the log, leave
// the tree consistent, and let the tree close cleanly.
func TestConcurrentBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenFileStore(filepath.Join(dir, "t.db"),
		storage.FileStoreOptions{SlotSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d, err := openLogged(st, filepath.Join(dir, "t.wal"), Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	const trigger = 4 << 10
	d.EnableMetrics()
	d.AutoCheckpoint(trigger)
	pts, err := workload.Generate(workload.Uniform, 2, 2000, 44)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var werr atomic.Value
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pts); i += 2 {
				if err := d.Insert(pts[i], uint64(i)); err != nil {
					werr.Store(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err, _ := werr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if size := d.LogSize(); size >= trigger {
		t.Fatalf("log holds %d bytes after the writers joined, trigger %d", size, trigger)
	}
	if d.Metrics().WAL.Checkpoints == 0 {
		t.Fatal("size trigger never fired despite >4KiB of log traffic")
	}
	if err := d.Validate(true); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := storage.OpenFileStore(filepath.Join(dir, "t.db"), storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	re, err := openLogged(st2, filepath.Join(dir, "t.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(pts) {
		t.Fatalf("recovered Len=%d, want %d", re.Len(), len(pts))
	}
}

// TestAutoCheckpointFailure pins what a failed inline checkpoint leaves
// behind. The insert that fills the log runs the checkpoint, and the
// store's Sync fails under it. The insert is durable already, so it
// returns nil; the failure stays sticky, so the next write fails with
// storage.ErrPoisoned and Close reports the injected fault; and a
// crash-reopen holds every acknowledged insert, the trigger included.
func TestAutoCheckpointFailure(t *testing.T) {
	dir := t.TempDir()
	storeFS := fault.NewFS(vfs.OS{}, fault.Plan{})
	st, err := storage.OpenFileStore(filepath.Join(dir, "t.db"),
		storage.FileStoreOptions{SlotSize: 256, FS: storeFS})
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "t.wal")
	d, err := openLogged(st, walPath, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(workload.Uniform, 2, 40, 45)
	if err != nil {
		t.Fatal(err)
	}
	last := len(pts) - 1
	for i, p := range pts[:last] {
		if err := d.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The next insert fills the log, and the first store file operation
	// after this point, which is its checkpoint's, fails.
	d.AutoCheckpoint(d.LogSize() + 1)
	storeFS.SetPlan(fault.Plan{InjectAt: storeFS.Ops() + 1, Mode: fault.ModeError})
	if err := d.Insert(pts[last], uint64(last)); err != nil {
		t.Fatalf("the insert that triggered the checkpoint: %v", err)
	}
	if !storeFS.Injected() {
		t.Fatal("the triggering insert ran no checkpoint")
	}
	if err := d.Insert(geometry.Point{1, 2}, 1000); !errors.Is(err, storage.ErrPoisoned) {
		t.Fatalf("write after the failed checkpoint: err = %v, want ErrPoisoned", err)
	}
	if err := d.Close(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Close = %v, want the injected checkpoint failure", err)
	}

	// Crash: abandon the poisoned store and recover from the real
	// filesystem.
	storeFS.CloseAll()
	st2, err := storage.OpenFileStore(filepath.Join(dir, "t.db"), storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	re, err := openLogged(st2, walPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Validate(true); err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		found, err := contains(re, p, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("acknowledged insert %d lost across the failed checkpoint", i)
		}
	}
}
