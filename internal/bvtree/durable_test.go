package bvtree

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/storage"
)

func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "tree.db")
	walPath := filepath.Join(dir, "tree.wal")

	st, err := storage.CreateFileStore(dbPath, storage.FileStoreOptions{SlotSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(st, walPath, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
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
	if err := d.Checkpoint(); err != nil {
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
	re, err := OpenDurable(st2, walPath, 0)
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
		found, err := contains(re.Tree, checkpointed[i], uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("checkpointed item %d missing after recovery", i)
		}
	}
	for i, p := range unlogged {
		found, err := contains(re.Tree, p, uint64(1500+i))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("logged-but-unflushed item %d missing after recovery", 1500+i)
		}
	}
	for i := 0; i < 200; i++ {
		found, err := contains(re.Tree, checkpointed[i], uint64(i))
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

	st, err := storage.CreateFileStore(dbPath, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(st, walPath, Options{Dims: 2})
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
	re, err := OpenDurable(st2, walPath, 0)
	if err != nil {
		t.Fatalf("torn tail must not break recovery: %v", err)
	}
	defer re.Close()
	if re.Len() != len(pts) {
		t.Fatalf("recovered %d of %d items", re.Len(), len(pts))
	}
	for i, p := range pts {
		found, err := contains(re.Tree, p, uint64(i))
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
	st, err := storage.CreateFileStore(filepath.Join(dir, "t.db"), storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d, err := NewDurable(st, filepath.Join(dir, "t.wal"), Options{Dims: 2})
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
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if d.LogSize() != 0 {
		t.Fatalf("log size %d after checkpoint", d.LogSize())
	}
}

// TestDurableFlushThenCrash pins that Flush on a durable tree is a
// checkpoint. The embedded Tree.Flush synced the store at the epoch the log
// still carried, so recovery replayed every logged insert onto a store
// that already held it: n inserts reopened as 2n items.
func TestDurableFlushThenCrash(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "tree.db")
	walPath := filepath.Join(dir, "tree.wal")
	st, err := storage.CreateFileStore(dbPath, storage.FileStoreOptions{SlotSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(st, walPath, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
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
	re, err := OpenDurable(st2, walPath, 0)
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

// TestDurableShadowsTreeMutators keeps DurableTree's shadowing of the
// embedded Tree complete: an exported *Tree method must either be declared
// again on *DurableTree — so that it goes through the log or through
// Checkpoint — or be listed here with the reason it is safe to promote.
// A mutator that reaches a durable tree through the embedding alone (as
// Flush did) fails here instead of in a recovery.
func TestDurableShadowsTreeMutators(t *testing.T) {
	promoted := map[string]string{
		// reads
		"CheckSnapshots": "read", "CollectStats": "read", "Contains": "read",
		"Count": "read", "Dump": "read", "Epoch": "read", "Height": "read",
		"Len": "read", "Lookup": "read", "Nearest": "read", "Options": "read",
		"PartialMatch": "read", "RangeQuery": "read", "RangeQueryWorkers": "read",
		"Scan": "read", "SearchCost": "read", "Snapshot": "read",
		"Stats": "read", "Validate": "read",
		// instrumentation
		"ResetAccessCount": "a counter", "SetTracer": "instrumentation",
		// This rewrites pages but changes neither what the tree holds nor the
		// store's checkpoint: nothing reaches the disk before the next
		// Checkpoint, and replay is logical.
		"Maintain": "re-places guards",
	}
	// Reflection cannot tell a promoted method from a declared one, so
	// the declarations are read from the package's source.
	own := map[string]bool{}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pkgs["bvtree"].Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() {
				continue
			}
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok && id.Name == "DurableTree" {
					own[fn.Name.Name] = true
				}
			}
		}
	}
	if !own["Insert"] {
		t.Fatal("found no declaration of (*DurableTree).Insert: the source scan is broken")
	}
	tt := reflect.TypeOf((*Tree)(nil))
	for i := 0; i < tt.NumMethod(); i++ {
		name := tt.Method(i).Name
		if _, ok := promoted[name]; !ok && !own[name] {
			t.Errorf("Tree.%s reaches a DurableTree through the embedding: declare it on *DurableTree or list it here with the reason it is safe", name)
		}
	}
	for name := range promoted {
		if _, ok := tt.MethodByName(name); !ok {
			t.Errorf("%s is listed but *Tree has no such method", name)
		}
		if own[name] {
			t.Errorf("%s is listed as promoted but *DurableTree declares it", name)
		}
	}
}
