package bvtree

// Crash torture for the write buffer and the bulk loader. The buffer
// defers tree application, not durability: an insert is acked only after
// its WAL group fsync, so a crash that lands inside a later buffer
// flush — wiping out the staged ops before they ever reached a page —
// must still recover every acked op from the log. The BulkLoad sweep
// crashes inside the packed build's page materialisation and index
// graft; recovery replays the batch's records individually onto the
// checkpointed state, so the rebuilt tree must hold the same items even
// though the build it interrupted never finished.

import (
	"errors"

	"path/filepath"
	"testing"

	"bvtree/internal/fault"
	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/vfs"
	"bvtree/internal/wal"
)

// bufCrashEnv is a durable tree with BufferOps enabled over fault-
// injecting store and WAL filesystems.
type bufCrashEnv struct {
	dir            string
	storeFS, walFS *fault.FS
	st             *storage.FileStore
	d              *DurableTree
}

func newBufCrashEnv(t *testing.T, bufferOps int) *bufCrashEnv {
	t.Helper()
	e := &bufCrashEnv{
		dir:     t.TempDir(),
		storeFS: fault.NewFS(vfs.OS{}, fault.Plan{}),
		walFS:   fault.NewFS(vfs.OS{}, fault.Plan{}),
	}
	var err error
	e.st, err = storage.CreateFileStore(filepath.Join(e.dir, "t.db"),
		storage.FileStoreOptions{SlotSize: 256, PoolSlots: 64, PinDirty: true, FS: e.storeFS})
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.OpenFS(e.walFS, filepath.Join(e.dir, "t.wal"))
	if err != nil {
		t.Fatal(err)
	}
	e.d, err = NewDurableLog(e.st, l, Options{Dims: 2, DataCapacity: 8, Fanout: 8, BufferOps: bufferOps})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// reopen abandons the crashed handles and recovers from the real
// filesystem, asserting structural invariants and clean MVCC state.
func (e *bufCrashEnv) reopen(t *testing.T) *DurableTree {
	t.Helper()
	e.storeFS.CloseAll()
	e.walFS.CloseAll()
	st, err := storage.OpenFileStore(filepath.Join(e.dir, "t.db"), storage.FileStoreOptions{PinDirty: true})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	d, err := OpenDurable(st, filepath.Join(e.dir, "t.wal"), 0)
	if err != nil {
		t.Fatalf("reopen tree: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.Validate(true); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
	if err := d.CheckSnapshots(); err != nil {
		t.Fatalf("mvcc state after recovery: %v", err)
	}
	return d
}

// TestBufferedCrashDuringFlushSweep arms a store fault at every offset
// of a buffered insert workload. With BufferOps=4 the staged groups
// flush every few inserts, so the sweep lands faults inside flush page
// writes, splits and root growths. Acked inserts must survive recovery;
// the recovered tree must also pass the occupancy checker.
func TestBufferedCrashDuringFlushSweep(t *testing.T) {
	const sweep = 40
	flushCrashes := 0
	for k := 1; k <= sweep; k++ {
		e := newBufCrashEnv(t, 4)
		type ack struct {
			p       geometry.Point
			payload uint64
		}
		var acked []ack
		// A few acked ops before arming, so every sweep point has a
		// baseline of acked-but-possibly-still-buffered state.
		for i := 0; i < 6; i++ {
			p := geometry.Point{uint64(i+1) << 30, uint64(i+1) << 45}
			if err := e.d.Insert(p, uint64(i)); err != nil {
				t.Fatalf("k=%d: baseline insert: %v", k, err)
			}
			acked = append(acked, ack{p, uint64(i)})
		}
		e.storeFS.SetPlan(fault.Plan{InjectAt: e.storeFS.Ops() + k, Mode: fault.ModeError})
		for i := 0; i < 400 && !e.storeFS.Injected(); i++ {
			p := geometry.Point{uint64(i+1) << 29, uint64(400-i) << 47}
			err := e.d.Insert(p, uint64(1000+i))
			if err != nil {
				if !errors.Is(err, storage.ErrPoisoned) && !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("k=%d: insert err = %v, want ErrPoisoned or injected", k, err)
				}
				break
			}
			acked = append(acked, ack{p, uint64(1000 + i)})
		}
		if !e.storeFS.Injected() {
			t.Fatalf("k=%d: fault never fired; sweep offset past the workload", k)
		}
		flushCrashes++

		d := e.reopen(t)
		for _, a := range acked {
			found, err := contains(d.Tree, a.p, a.payload)
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatalf("k=%d: acked insert payload %d lost across flush crash", k, a.payload)
			}
		}
		// Replay may legitimately resurrect the op whose flush crashed
		// before acking — it was already logged — so Len is bounded, not
		// pinned.
		if d.Len() < len(acked) {
			t.Fatalf("k=%d: Len=%d < %d acked ops", k, d.Len(), len(acked))
		}
		stats, err := d.CollectStats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Items != d.Len() {
			t.Fatalf("k=%d: walked %d items, Len=%d", k, stats.Items, d.Len())
		}
	}
	t.Logf("swept %d crash points inside the buffered insert workload", flushCrashes)
}

// TestBufferedCrashAtWALSync crashes the log fsync of a buffered insert:
// the op is staged and applied-to-buffer but never acked, so recovery
// owes it nothing — only consistency and the earlier acked ops.
func TestBufferedCrashAtWALSync(t *testing.T) {
	e := newBufCrashEnv(t, 8)
	var acked []geometry.Point
	for i := 0; i < 10; i++ {
		p := geometry.Point{uint64(i+1) << 33, uint64(i+2) << 41}
		if err := e.d.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, p)
	}
	// Next WAL op is the record append, the one after its sync.
	e.walFS.SetPlan(fault.Plan{InjectAt: e.walFS.Ops() + 2, Mode: fault.ModeError})
	err := e.d.Insert(geometry.Point{1 << 20, 1 << 21}, 999)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("insert err = %v, want injected", err)
	}
	d := e.reopen(t)
	for i, p := range acked {
		found, err := contains(d.Tree, p, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("acked insert %d lost across WAL-sync crash", i)
		}
	}
}

// TestBufferedBulkLoadCrashSweep arms a store fault at every offset of a
// durable BulkLoad on an empty tree, landing crashes inside the packed
// build's page materialisation and the index graft. The batch's records
// hit the log before the build starts, so recovery replays them all:
// the rebuilt tree must hold exactly the loaded items, page layout
// notwithstanding.
func TestBufferedBulkLoadCrashSweep(t *testing.T) {
	const n = 120
	pts := make([]geometry.Point, n)
	pays := make([]uint64, n)
	for i := range pts {
		pts[i] = geometry.Point{uint64(i*2654435761 + 17), uint64(i*40503+5) << 20}
		pays[i] = uint64(i)
	}
	// Sweep every store-op offset the build performs; the sweep ends at
	// the first offset past the build (the store is pooled and
	// pin-dirty, so the build's filesystem op count is modest).
	const sweep = 64
	covered := 0
	for k := 1; k <= sweep; k++ {
		e := newBufCrashEnv(t, 0)
		e.storeFS.SetPlan(fault.Plan{InjectAt: e.storeFS.Ops() + k, Mode: fault.ModeError})
		err := e.d.BulkLoad(pts, pays)
		if err == nil {
			if e.storeFS.Injected() {
				t.Fatalf("k=%d: store fault fired but BulkLoad reported success", k)
			}
			break // offset past the whole build
		}
		if !errors.Is(err, fault.ErrInjected) && !errors.Is(err, storage.ErrPoisoned) {
			t.Fatalf("k=%d: BulkLoad err = %v, want injected or poisoned", k, err)
		}
		covered++
		d := e.reopen(t)
		if d.Len() != n {
			t.Fatalf("k=%d: recovered Len=%d, want %d (all records were logged before the build)", k, d.Len(), n)
		}
		for i := range pts {
			found, err := contains(d.Tree, pts[i], pays[i])
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatalf("k=%d: bulk item %d lost across graft crash", k, i)
			}
		}
	}
	if covered < 10 {
		t.Fatalf("sweep crashed only %d offsets inside the build; too few to call it a sweep", covered)
	}
	t.Logf("swept %d crash points inside the packed build", covered)
}

// TestBufferedCheckpointDrainsBuffer pins the checkpoint contract: a
// checkpoint must flush staged ops into the store before truncating the
// log, or a clean restart would silently lose them.
func TestBufferedCheckpointDrainsBuffer(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.CreateFileStore(filepath.Join(dir, "t.db"),
		storage.FileStoreOptions{PinDirty: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(st, filepath.Join(dir, "t.wal"),
		Options{Dims: 2, DataCapacity: 8, Fanout: 8, BufferOps: 64})
	if err != nil {
		t.Fatal(err)
	}
	var pts []geometry.Point
	for i := 0; i < 30; i++ {
		p := geometry.Point{uint64(i+3) << 35, uint64(i+7) << 29}
		if err := d.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		pts = append(pts, p)
	}
	if d.Tree.buf.empty() {
		t.Fatal("test needs staged ops at checkpoint time")
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !d.Tree.buf.empty() {
		t.Fatal("checkpoint left ops in the buffer after truncating the log")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.OpenFileStore(filepath.Join(dir, "t.db"), storage.FileStoreOptions{PinDirty: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	re, err := OpenDurable(st2, filepath.Join(dir, "t.wal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(pts) {
		t.Fatalf("restart Len=%d, want %d", re.Len(), len(pts))
	}
	for i, p := range pts {
		found, err := contains(re.Tree, p, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("item %d lost across checkpoint+restart", i)
		}
	}
	if err := re.Validate(true); err != nil {
		t.Fatal(err)
	}
}
