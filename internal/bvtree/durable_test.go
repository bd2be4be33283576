package bvtree

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"bvtree/internal/fault"
	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/vfs"
	"bvtree/internal/wal"
)

// openLogged is Open with the write-ahead log at walPath.
func openLogged(st storage.Store, walPath string, opt Options) (*Tree, error) {
	l, err := wal.Open(walPath)
	if err != nil {
		return nil, err
	}
	return Open(st, l, opt)
}

// crashOpts is the tree the crash batteries run.
var crashOpts = Options{Dims: 2, DataCapacity: 8, Fanout: 8}

// openDir is the crash batteries' one open step, for a run and for its
// recovery alike: the store dir/t.db is opened through storeFS (created
// with 256-byte slots when it holds none), Open then starts or recovers
// the tree in it, with the log dir/t.wal opened through walFS. An error
// after the store opened returns the store unclosed: a crashed run
// abandons it, a recovery closes it.
func openDir(dir string, storeFS, walFS vfs.FS, opt Options) (*storage.FileStore, *Tree, error) {
	st, err := storage.OpenFileStore(filepath.Join(dir, "t.db"), storage.FileStoreOptions{SlotSize: 256, FS: storeFS})
	if err != nil {
		return nil, nil, err
	}
	l, err := wal.OpenFS(walFS, filepath.Join(dir, "t.wal"))
	if err != nil {
		return st, nil, err
	}
	tr, err := Open(st, l, opt)
	return st, tr, err
}

func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "tree.db")
	walPath := filepath.Join(dir, "tree.wal")

	st, err := storage.OpenFileStore(dbPath, storage.FileStoreOptions{SlotSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	d, err := openLogged(st, walPath, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	var checkpointed, unlogged []geometry.Point
	for i := 0; i < 1500; i++ {
		p := clusteredPoint(rng, 2)
		checkpointed = append(checkpointed, p)
		if err := d.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint operations: logged but never flushed to the store.
	for i := 1500; i < 2200; i++ {
		p := clusteredPoint(rng, 2)
		unlogged = append(unlogged, p)
		if err := d.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete some checkpointed items post-checkpoint as well.
	for i := 0; i < 200; i++ {
		if ok, err := d.Delete(checkpointed[i], uint64(i)); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	if d.LogSize() == 0 {
		t.Fatal("wal empty despite post-checkpoint operations")
	}
	// Simulate a crash: abandon the store and log without closing them.
	// The on-disk image is exactly the last checkpoint.

	st2, err := storage.OpenFileStore(dbPath, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	re, err := openLogged(st2, walPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1500+700-200 {
		t.Fatalf("recovered Len=%d, want %d", re.Len(), 1500+700-200)
	}
	if err := re.Validate(true); err != nil {
		t.Fatal(err)
	}
	for i := 200; i < 1500; i++ {
		found, err := contains(re, checkpointed[i], uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("checkpointed item %d missing after recovery", i)
		}
	}
	for i, p := range unlogged {
		found, err := contains(re, p, uint64(1500+i))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("logged-but-unflushed item %d missing after recovery", 1500+i)
		}
	}
	for i := 0; i < 200; i++ {
		found, err := contains(re, checkpointed[i], uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Fatalf("deleted item %d resurrected by recovery", i)
		}
	}
}

func contains(tr *Tree, p geometry.Point, payload uint64) (bool, error) {
	got, err := tr.Lookup(p)
	if err != nil {
		return false, err
	}
	for _, v := range got {
		if v == payload {
			return true, nil
		}
	}
	return false, nil
}

func TestDurableTornWALTail(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "tree.db")
	walPath := filepath.Join(dir, "tree.wal")

	st, err := storage.OpenFileStore(dbPath, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := openLogged(st, walPath, Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(92))
	pts := make([]geometry.Point, 50)
	for i := range pts {
		pts[i] = randPoint(rng, 2)
		if err := d.Insert(pts[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash mid-append: garbage at the tail of the WAL.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := storage.OpenFileStore(dbPath, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	re, err := openLogged(st2, walPath, Options{})
	if err != nil {
		t.Fatalf("torn tail must not break recovery: %v", err)
	}
	defer re.Close()
	if re.Len() != len(pts) {
		t.Fatalf("recovered %d of %d items", re.Len(), len(pts))
	}
	for i, p := range pts {
		found, err := contains(re, p, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("item %d missing", i)
		}
	}
}

func TestDurableCheckpointEmptiesLog(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenFileStore(filepath.Join(dir, "t.db"), storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d, err := openLogged(st, filepath.Join(dir, "t.wal"), Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Insert(geometry.Point{1, 2}, 7); err != nil {
		t.Fatal(err)
	}
	if d.LogSize() == 0 {
		t.Fatal("log empty after insert")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.LogSize() != 0 {
		t.Fatalf("log size %d after checkpoint", d.LogSize())
	}
}

// TestWriteAfterCloseIsRefused pins that a closed log refuses a write
// before it is applied: every logged entry point fails with an error
// wrapping wal.ErrClosed, and Len and Lookup are as Close left them.
func TestWriteAfterCloseIsRefused(t *testing.T) {
	dir := t.TempDir()
	st := storage.NewMemStore()
	d, err := openLogged(st, filepath.Join(dir, "c.wal"), Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	kept, fresh := geometry.Point{1, 2}, geometry.Point{3, 4}
	if err := d.Insert(kept, 7); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	writes := map[string]func() error{
		"Insert": func() error { return d.Insert(fresh, 8) },
		"Delete": func() error { _, err := d.Delete(kept, 7); return err },
		"ApplyBatch": func() error {
			return d.ApplyBatch([]BatchOp{{Point: fresh, Payload: 8}, {Delete: true, Point: kept, Payload: 7}})
		},
		"BulkLoad": func() error { return d.BulkLoad([]geometry.Point{fresh}, []uint64{8}) },
	}
	for name, write := range writes {
		if err := write(); !errors.Is(err, wal.ErrClosed) {
			t.Errorf("%s after Close: err = %v, want wal.ErrClosed", name, err)
		}
		if n := d.Len(); n != 1 {
			t.Errorf("%s after Close: Len = %d, want 1", name, n)
		}
		if got, err := d.Lookup(kept); err != nil || len(got) != 1 || got[0] != 7 {
			t.Errorf("%s after Close: Lookup(kept) = %v, %v, want [7]", name, got, err)
		}
		if got, err := d.Lookup(fresh); err != nil || len(got) != 0 {
			t.Errorf("%s after Close: Lookup(fresh) = %v, %v, want none", name, got, err)
		}
	}
}

// TestDurableFlushThenCrash pins that Flush on a durable tree is a
// checkpoint. The embedded Tree.Flush once synced the store without
// emptying the log, so recovery replayed every logged insert onto a store
// that already held it: n inserts reopened as 2n items.
func TestDurableFlushThenCrash(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "tree.db")
	walPath := filepath.Join(dir, "tree.wal")
	st, err := storage.OpenFileStore(dbPath, storage.FileStoreOptions{SlotSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	d, err := openLogged(st, walPath, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	rng := rand.New(rand.NewSource(23))
	pts := make([]geometry.Point, n)
	for i := range pts {
		pts[i] = geometry.Point{uint64(i) << 40, rng.Uint64()} // distinct points
		if err := d.Insert(pts[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.LogSize() != 0 {
		t.Errorf("log holds %d bytes after Flush, want 0", d.LogSize())
	}
	// Crash: abandon the store and the log without closing them.

	st2, err := storage.OpenFileStore(dbPath, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	re, err := openLogged(st2, walPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != n {
		t.Fatalf("recovered Len=%d, want %d", re.Len(), n)
	}
	for i, p := range pts {
		got, err := re.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != uint64(i) {
			t.Fatalf("point %d looks up %v, want [%d]", i, got, i)
		}
	}
	if err := re.Validate(true); err != nil {
		t.Fatal(err)
	}
}

// TestEveryHandleIsLogged runs one program of Insert, Delete, ApplyBatch
// and BulkLoad through a durable tree and through the deprecated
// DurableTree shim around it in turn, with a Flush of the tree halfway,
// then crashes and reopens. Both handles reach the same logged tree, so
// every acknowledged operation is there exactly once. When the log lived outside Tree, the
// embedded handle's operations bypassed it and were lost, and its Flush
// synced the store without emptying the log, so recovery applied the
// logged operations a second time.
func TestEveryHandleIsLogged(t *testing.T) {
	dir := t.TempDir()
	dbPath, walPath := filepath.Join(dir, "t.db"), filepath.Join(dir, "t.wal")
	ffs := fault.NewFS(vfs.OS{}, fault.Plan{})
	st, err := storage.OpenFileStore(dbPath, storage.FileStoreOptions{SlotSize: 256, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.OpenFS(ffs, walPath)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(st, l, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	type handle interface {
		Insert(geometry.Point, uint64) error
		Delete(geometry.Point, uint64) (bool, error)
		ApplyBatch([]BatchOp) error
		BulkLoad([]geometry.Point, []uint64) error
	}
	handles := []handle{d, &DurableTree{d}}

	rng := rand.New(rand.NewSource(31))
	points := map[uint64]geometry.Point{} // every payload ever acknowledged
	var live []uint64                     // payloads still in the tree
	fresh := func() (geometry.Point, uint64) {
		payload := uint64(len(points))
		p := geometry.Point{payload << 40, rng.Uint64()} // distinct points
		points[payload] = p
		return p, payload
	}
	victim := func() (geometry.Point, uint64) {
		i := rng.Intn(len(live))
		payload := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return points[payload], payload
	}
	const rounds = 8
	for r := 0; r < rounds; r++ {
		h := handles[r%2]
		pts, payloads := make([]geometry.Point, 12), make([]uint64, 12)
		for i := range pts {
			pts[i], payloads[i] = fresh()
		}
		if err := h.BulkLoad(pts, payloads); err != nil {
			t.Fatal(err)
		}
		live = append(live, payloads...)
		for i := 0; i < 10; i++ {
			p, payload := fresh()
			if err := h.Insert(p, payload); err != nil {
				t.Fatal(err)
			}
			live = append(live, payload)
		}
		var ops []BatchOp
		for i := 0; i < 3; i++ {
			p, payload := victim()
			ops = append(ops, BatchOp{Delete: true, Point: p, Payload: payload})
		}
		for i := 0; i < 8; i++ {
			p, payload := fresh()
			ops = append(ops, BatchOp{Point: p, Payload: payload})
			live = append(live, payload)
		}
		if err := h.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			p, payload := victim()
			if ok, err := h.Delete(p, payload); err != nil || !ok {
				t.Fatalf("round %d: Delete = (%v, %v)", r, ok, err)
			}
		}
		if r == rounds/2 {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ffs.CloseAll() // crash: neither the store nor the log is closed

	st2, err := storage.OpenFileStore(dbPath, storage.FileStoreOptions{})
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
	if re.Len() != len(live) {
		t.Errorf("reopened Len=%d, want %d", re.Len(), len(live))
	}
	alive := map[uint64]bool{}
	for _, payload := range live {
		alive[payload] = true
	}
	for payload, p := range points {
		got, err := re.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if alive[payload] {
			want = 1
		}
		n := 0
		for _, v := range got {
			if v == payload {
				n++
			}
		}
		if n != want {
			t.Fatalf("payload %d is in the reopened tree %d times, want %d", payload, n, want)
		}
	}
}
