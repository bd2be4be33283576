package bvtree

// Crash-point matrix: one targeted test per stage of the durable update
// protocol, each pinning down what must survive. The torture sweep in
// torture_test.go covers these points statistically; the matrix makes
// each contractual boundary an explicit, named assertion.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"bvtree/internal/fault"
	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/vfs"
	"bvtree/internal/wal"
)

// matrixEnv is a durable tree whose store file and WAL file sit behind
// separate fault filesystems, so a fault can be aimed at one side of the
// protocol precisely.
type matrixEnv struct {
	dir            string
	storeFS, walFS *fault.FS
	st             *storage.FileStore
	d              *Tree
	base           []geometry.Point // baseline items, payload = index
}

func newMatrixEnv(t *testing.T) *matrixEnv { return newMatrixEnvN(t, 40) }

// newMatrixEnvN is newMatrixEnv with n checkpointed baseline items.
func newMatrixEnvN(t *testing.T, n int) *matrixEnv {
	t.Helper()
	e := &matrixEnv{
		dir:     t.TempDir(),
		storeFS: fault.NewFS(vfs.OS{}, fault.Plan{}),
		walFS:   fault.NewFS(vfs.OS{}, fault.Plan{}),
	}
	var err error
	if e.st, e.d, err = openDir(e.dir, e.storeFS, e.walFS, crashOpts); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < n; i++ {
		p := clusteredPoint(rng, 2)
		if err := e.d.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		e.base = append(e.base, p)
	}
	if err := e.d.Flush(); err != nil {
		t.Fatal(err)
	}
	return e
}

// reopen abandons the crashed state and reopens it with the real
// filesystem, asserting structural invariants, clean MVCC state and that
// every baseline item survived.
func (e *matrixEnv) reopen(t *testing.T) *Tree {
	t.Helper()
	e.storeFS.CloseAll()
	e.walFS.CloseAll()
	st, d, err := openDir(e.dir, vfs.OS{}, vfs.OS{}, crashOpts)
	if st != nil {
		t.Cleanup(func() { st.Close() })
	}
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.Validate(true); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
	if err := d.CheckSnapshots(); err != nil {
		t.Fatalf("mvcc state after recovery: %v", err)
	}
	for i, p := range e.base {
		found, err := contains(d, p, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("baseline item %d lost", i)
		}
	}
	return d
}

func (e *matrixEnv) mustContain(t *testing.T, d *Tree, p geometry.Point, payload uint64, want bool) {
	t.Helper()
	found, err := contains(d, p, payload)
	if err != nil {
		t.Fatal(err)
	}
	if found != want {
		t.Fatalf("payload %d present=%v after recovery, want %v", payload, found, want)
	}
}

var matrixTarget = geometry.Point{1 << 40, 1 << 41}

const matrixPayload = 999

// Crash before the WAL append reaches the file: the operation was never
// acknowledged and must leave no trace.
func TestCrashBeforeWALAppend(t *testing.T) {
	e := newMatrixEnv(t)
	e.walFS.SetPlan(fault.Plan{InjectAt: e.walFS.Ops() + 1, Mode: fault.ModeError})
	if err := e.d.Insert(matrixTarget, matrixPayload); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("insert err = %v, want injected", err)
	}
	d := e.reopen(t)
	e.mustContain(t, d, matrixTarget, matrixPayload, false)
	if d.Len() != len(e.base) {
		t.Fatalf("Len=%d, want %d", d.Len(), len(e.base))
	}
}

// Crash after the append's write but before its fsync: the record is in
// the file (this harness models completed writes as persistent), so
// recovery replays it — the operation is atomically present.
func TestCrashAfterWALAppendBeforeSync(t *testing.T) {
	e := newMatrixEnv(t)
	e.walFS.SetPlan(fault.Plan{InjectAt: e.walFS.Ops() + 2, Mode: fault.ModeError})
	if err := e.d.Insert(matrixTarget, matrixPayload); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("insert err = %v, want injected", err)
	}
	d := e.reopen(t)
	e.mustContain(t, d, matrixTarget, matrixPayload, true)
	if d.Len() != len(e.base)+1 {
		t.Fatalf("Len=%d, want %d", d.Len(), len(e.base)+1)
	}
}

// A failed log fsync after acknowledged but uncheckpointed inserts: the
// unacked insert is owed nothing, and the ten acked before it — which
// live in the log alone — all survive the replay.
func TestCrashAtWALSync(t *testing.T) {
	e := newMatrixEnv(t)
	var acked []geometry.Point
	for i := 0; i < 10; i++ {
		p := geometry.Point{uint64(i+1) << 33, uint64(i+2) << 41}
		if err := e.d.Insert(p, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, p)
	}
	// Next WAL op is the record append, the one after its sync.
	e.walFS.SetPlan(fault.Plan{InjectAt: e.walFS.Ops() + 2, Mode: fault.ModeError})
	if err := e.d.Insert(matrixTarget, matrixPayload); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("insert err = %v, want injected", err)
	}
	d := e.reopen(t)
	for i, p := range acked {
		e.mustContain(t, d, p, uint64(100+i), true)
	}
}

// The append's write itself is torn: recovery truncates the partial
// record as a torn tail and the operation vanishes atomically.
func TestCrashTornWALAppend(t *testing.T) {
	e := newMatrixEnv(t)
	e.walFS.SetPlan(fault.Plan{InjectAt: e.walFS.Ops() + 1, Mode: fault.ModeTorn, Seed: 9})
	if err := e.d.Insert(matrixTarget, matrixPayload); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("insert err = %v, want injected", err)
	}
	d := e.reopen(t)
	e.mustContain(t, d, matrixTarget, matrixPayload, false)
	if d.Len() != len(e.base) {
		t.Fatalf("Len=%d, want %d", d.Len(), len(e.base))
	}
}

// Crash after the WAL record is durable but before the in-memory apply
// completes: the operation was effectively acknowledged by the log, so
// recovery must replay it. The fault here is injected at the logical
// store level with fault.Store rather than at the filesystem, at every
// store operation of the apply in turn. A save reaches the store only
// through write-back, so with the default cache the apply's operations
// are the allocations of its split; with 8 nodes cached they include the
// write-back that ends the insert.
func TestCrashAfterSyncBeforeApply(t *testing.T) {
	for _, cache := range []int{0, 8} {
		t.Run(fmt.Sprintf("cache-%d", cache), func(t *testing.T) {
			inWrite, k := 0, 1
			for ; crashAfterSyncBeforeApply(t, cache, k, &inWrite); k++ {
			}
			if k == 1 {
				t.Fatal("the insert performed no store operation")
			}
			if cache != 0 && inWrite == 0 {
				t.Fatalf("none of %d faults landed in a write-back", k-1)
			}
			t.Logf("swept %d store operations of the apply, %d writes", k-1, inWrite)
		})
	}
}

// crashAfterSyncBeforeApply fails the k-th store operation of one durable
// insert and checks recovery; it reports false when the insert performed
// fewer than k operations.
func crashAfterSyncBeforeApply(t *testing.T, cache, k int, inWrite *int) bool {
	dir := t.TempDir()
	ffs := fault.NewFS(vfs.OS{}, fault.Plan{})
	inner, err := storage.OpenFileStore(filepath.Join(dir, "t.db"),
		storage.FileStoreOptions{SlotSize: 256, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	fst := fault.NewStore(inner, 0)
	d, err := openLogged(fst, filepath.Join(dir, "t.wal"), Options{Dims: 2, DataCapacity: 8, Fanout: 8, CacheNodes: cache})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(78))
	base := make([]geometry.Point, 40)
	for i := range base {
		base[i] = clusteredPoint(rng, 2)
		if err := d.Insert(base[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	fst.Arm(k)
	err = d.Insert(matrixTarget, matrixPayload)
	if !fst.Tripped() {
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
		inner.Close()
		return false
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("k=%d: insert err = %v, want injected", k, err)
	}
	if strings.Contains(err.Error(), "storage write") {
		*inWrite++
	}
	// Crash: the writes the store took since the checkpoint are in its
	// write set, and are lost with it.
	ffs.CloseAll()

	st2, re, err := openDir(dir, vfs.OS{}, vfs.OS{}, crashOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	defer re.Close()
	found, err := contains(re, matrixTarget, matrixPayload)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("k=%d: operation durable in the WAL was lost because its apply crashed", k)
	}
	if re.Len() != len(base)+1 {
		t.Fatalf("k=%d: Len=%d, want %d", k, re.Len(), len(base)+1)
	}
	return true
}

// Crash mid-checkpoint, swept across every file operation the checkpoint
// performs: the failed store is poisoned (ErrPoisoned on further use) and
// recovery always lands on a state containing every acknowledged
// operation — either the rolled-back previous checkpoint plus a WAL
// replay, or the new checkpoint with the log's records skipped, as none
// lies past its LSN.
func TestCrashMidCheckpoint(t *testing.T) {
	for k := 1; ; k++ {
		e := newMatrixEnv(t)
		// Post-checkpoint operations that the mid-checkpoint crash must not
		// lose.
		extra := []geometry.Point{{5, 6}, {7, 8}, {9, 10}}
		for i, p := range extra {
			if err := e.d.Insert(p, uint64(100+i)); err != nil {
				t.Fatal(err)
			}
		}
		e.storeFS.SetPlan(fault.Plan{InjectAt: e.storeFS.Ops() + k, Mode: fault.ModeError})
		err := e.d.Flush()
		if err == nil {
			// The injection point lies beyond the checkpoint's I/O: the
			// whole protocol has been swept.
			if k < 4 {
				t.Fatalf("checkpoint performed only %d file operations", k-1)
			}
			t.Logf("swept %d mid-checkpoint crash points", k-1)
			return
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("k=%d: checkpoint err = %v, want injected", k, err)
		}
		// The store must now be poisoned: its write-set/file relationship
		// is unknown and further writes could corrupt the checkpoint.
		if err := e.d.Insert(geometry.Point{11, 12}, 200); !errors.Is(err, storage.ErrPoisoned) && !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("k=%d: insert on crashed store err = %v, want ErrPoisoned or injected", k, err)
		}
		d := e.reopen(t) // asserts all baseline items survived
		for i, p := range extra {
			e.mustContain(t, d, p, uint64(100+i), true)
		}
	}
}

// TestBulkLoadCrashSweep arms a store fault at every offset of a durable
// BulkLoad on an empty tree, landing crashes inside the splits and page
// allocations of its inserts. The batch's records hit the log before the
// first insert applies, so recovery replays them all, in the caller's
// order: the rebuilt tree must be the tree the same BulkLoad builds
// without a crash, page for page — its backup byte-identical.
func TestBulkLoadCrashSweep(t *testing.T) {
	const n = 120
	pts := make([]geometry.Point, n)
	pays := make([]uint64, n)
	for i := range pts {
		pts[i] = geometry.Point{uint64(i*2654435761 + 17), uint64(i*40503+5) << 20}
		pays[i] = uint64(i)
	}
	clean := newMatrixEnvN(t, 0)
	if err := clean.d.BulkLoad(pts, pays); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := clean.d.SnapshotBackup(&want); err != nil {
		t.Fatal(err)
	}
	// Sweep every store-op offset the build performs; the sweep ends at
	// the first offset past the build (the store writes its file only at
	// Sync, so the build's filesystem op count is modest).
	const sweep = 64
	covered := 0
	for k := 1; k <= sweep; k++ {
		e := newMatrixEnvN(t, 0)
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
			e.mustContain(t, d, pts[i], pays[i], true)
		}
		var got bytes.Buffer
		if _, err := d.SnapshotBackup(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("k=%d: the recovered tree is not the tree BulkLoad builds without a crash", k)
		}
	}
	if covered < 10 {
		t.Fatalf("sweep crashed only %d offsets inside the build; too few to call it a sweep", covered)
	}
	t.Logf("swept %d crash points inside the load", covered)
}

// TestRejectedWriteIsNotLogged writes a point of the wrong dimensionality
// through each logged entry point, between acknowledged inserts that live
// in the log alone, then crashes and reopens. The write must fail with the
// error an unlogged tree gives, and leave no trace: a logged record whose
// apply fails fails again at replay, and the tree could not be reopened.
// A batch holding such a point is refused whole.
func TestRejectedWriteIsNotLogged(t *testing.T) {
	bad := geometry.Point{1 << 40, 1 << 41, 1 << 42}
	good := geometry.Point{5 << 40, 6 << 40}
	plain, err := New(Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantErr := plain.Insert(bad, matrixPayload)
	if wantErr == nil {
		t.Fatal("an unlogged tree accepted a 3-D point into a 2-D tree")
	}
	writes := []struct {
		name  string
		write func(d *Tree) error
	}{
		{"Insert", func(d *Tree) error { return d.Insert(bad, matrixPayload) }},
		{"Delete", func(d *Tree) error { _, err := d.Delete(bad, matrixPayload); return err }},
		{"ApplyBatch", func(d *Tree) error {
			return d.ApplyBatch([]BatchOp{{Point: good, Payload: matrixPayload}, {Point: bad, Payload: matrixPayload}})
		}},
		{"BulkLoad", func(d *Tree) error {
			return d.BulkLoad([]geometry.Point{good, bad}, []uint64{matrixPayload, matrixPayload})
		}},
	}
	for _, w := range writes {
		t.Run(w.name, func(t *testing.T) {
			e := newMatrixEnv(t)
			var acked []geometry.Point
			insert := func(k int) {
				for i := 0; i < k; i++ {
					p := geometry.Point{uint64(len(acked)+1) << 33, uint64(len(acked)+3) << 41}
					if err := e.d.Insert(p, uint64(100+len(acked))); err != nil {
						t.Fatal(err)
					}
					acked = append(acked, p)
				}
			}
			insert(5)
			if err := w.write(e.d); err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s of a 3-D point: err = %v, want %v", w.name, err, wantErr)
			}
			insert(5)
			d := e.reopen(t) // fails if the log does not replay
			for i, p := range acked {
				e.mustContain(t, d, p, uint64(100+i), true)
			}
			e.mustContain(t, d, good, matrixPayload, false)
			if d.Len() != len(e.base)+len(acked) {
				t.Fatalf("Len=%d, want %d", d.Len(), len(e.base)+len(acked))
			}
		})
	}
}

// TestCrashBetweenSyncs crashes a file-backed tree long after its last
// Flush (paged) or Checkpoint (durable), with a decoded cache of 8 nodes
// so that thousands of write-backs reach the store in between. The store
// file must still hold exactly the last Sync: every flushed item of the
// paged tree is found, and the durable tree replays the log on top of it
// and loses nothing acknowledged.
func TestCrashBetweenSyncs(t *testing.T) {
	const n = 3000
	opt := Options{Dims: 2, DataCapacity: 8, Fanout: 8, CacheNodes: 8}
	rng := rand.New(rand.NewSource(30))
	pts := make([]geometry.Point, 2*n)
	for i := range pts {
		pts[i] = clusteredPoint(rng, 2)
	}
	insert := func(t *testing.T, tr interface {
		Insert(geometry.Point, uint64) error
	}, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := tr.Insert(pts[i], uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// check validates the recovered tree and finds its first want items.
	check := func(t *testing.T, tr *Tree, want int) {
		t.Helper()
		if err := tr.Validate(true); err != nil {
			t.Fatalf("invariants after the crash: %v", err)
		}
		lost := 0
		for i := 0; i < want; i++ {
			found, err := contains(tr, pts[i], uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				lost++
			}
		}
		if lost > 0 || tr.Len() != want {
			t.Fatalf("recovered %d items with %d of the %d owed missing", tr.Len(), lost, want)
		}
	}
	open := func(t *testing.T) (string, *fault.FS, *storage.FileStore) {
		dir := t.TempDir()
		ffs := fault.NewFS(vfs.OS{}, fault.Plan{})
		st, err := storage.OpenFileStore(filepath.Join(dir, "t.db"),
			storage.FileStoreOptions{SlotSize: 256, FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		return dir, ffs, st
	}
	reopen := func(t *testing.T, dir string) *storage.FileStore {
		st, err := storage.OpenFileStore(filepath.Join(dir, "t.db"), storage.FileStoreOptions{})
		if err != nil {
			t.Fatalf("reopen store: %v", err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}

	t.Run("paged", func(t *testing.T) {
		dir, ffs, st := open(t)
		tr, err := Open(st, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		insert(t, tr, 0, n)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		insert(t, tr, n, 2*n)
		ffs.CloseAll()

		re, err := Open(reopen(t, dir), nil, Options{CacheNodes: 8})
		if err != nil {
			t.Fatalf("reopen tree: %v", err)
		}
		check(t, re, n)
	})

	t.Run("durable", func(t *testing.T) {
		dir, ffs, st := open(t)
		l, err := wal.OpenFS(ffs, filepath.Join(dir, "t.wal"))
		if err != nil {
			t.Fatal(err)
		}
		d, err := Open(st, l, opt)
		if err != nil {
			t.Fatal(err)
		}
		insert(t, d, 0, n)
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		insert(t, d, n, 2*n)
		ffs.CloseAll()

		re, err := openLogged(reopen(t, dir), filepath.Join(dir, "t.wal"), Options{CacheNodes: 8})
		if err != nil {
			t.Fatalf("reopen tree: %v", err)
		}
		t.Cleanup(func() { re.Close() })
		check(t, re, 2*n)
	})
}
