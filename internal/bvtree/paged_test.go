package bvtree

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/storage"
)

func TestPagedTreeMemStore(t *testing.T) {
	st := storage.NewMemStore()
	tr, err := Open(st, nil, Options{Dims: 2, DataCapacity: 8, Fanout: 8, CacheNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([]geometry.Point, 3000)
	for i := range pts {
		pts[i] = randPoint(rng, 2)
		if err := tr.Insert(pts[i], uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	for i, p := range pts[:200] {
		got, err := tr.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, v := range got {
			if v == uint64(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("point %d missing from paged tree", i)
		}
	}
}

func TestPagedTreePersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{SlotSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(st, nil, Options{Dims: 3, DataCapacity: 10, Fanout: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	pts := make([]geometry.Point, 2000)
	for i := range pts {
		pts[i] = clusteredPoint(rng, 3)
		if err := tr.Insert(pts[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	wantHeight := tr.Height()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	re, err := Open(st2, nil, Options{CacheNodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != len(pts) || re.Height() != wantHeight {
		t.Fatalf("reopened: len=%d height=%d, want %d/%d", re.Len(), re.Height(), len(pts), wantHeight)
	}
	if err := re.Validate(true); err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		got, err := re.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, v := range got {
			if v == uint64(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("point %d missing after reopen", i)
		}
	}
	// The reopened tree must accept further writes.
	extra := randPoint(rng, 3)
	if err := re.Insert(extra, 999999); err != nil {
		t.Fatal(err)
	}
	if ok, _ := re.Contains(extra); !ok {
		t.Fatal("insert after reopen not visible")
	}
}

// TestNewPagedRejectsUsedStore: a store whose first page is allocated
// but holds no meta record is neither empty nor a tree, and Open refuses
// it.
func TestNewPagedRejectsUsedStore(t *testing.T) {
	st := storage.NewMemStore()
	if _, err := st.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(st, nil, Options{Dims: 2}); !errors.Is(err, page.ErrCorrupt) {
		t.Fatalf("Open of a store with an empty first page: %v, want page.ErrCorrupt", err)
	}
}

func TestOpenPagedRejectsGarbageMeta(t *testing.T) {
	st := storage.NewMemStore()
	id, _ := st.Alloc()
	_ = st.WriteNode(id, []byte("definitely not a meta page"))
	if _, err := Open(st, nil, Options{}); err == nil {
		t.Fatal("Open accepted garbage metadata")
	}
}

// TestOpenPagedRefusesOtherPrecision: every tree interleaves 64 bits per
// dimension, so a meta record carrying any other precision is corrupt
// input and is refused with page.ErrCorrupt.
func TestOpenPagedRefusesOtherPrecision(t *testing.T) {
	st := storage.NewMemStore()
	tr, err := Open(st, nil, Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(geometry.Point{1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	blob, err := st.ReadNode(metaPageID)
	if err != nil {
		t.Fatal(err)
	}
	m, err := page.DecodeMeta(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{0, 32, 63, 65, 64} {
		m.BitsPerDim = bits
		if err := st.WriteNode(metaPageID, page.EncodeMeta(m)); err != nil {
			t.Fatal(err)
		}
		re, err := Open(st, nil, Options{})
		switch {
		case bits == bitsPerDim && err != nil:
			t.Fatalf("the tree's own meta record refused: %v", err)
		case bits == bitsPerDim && re.Len() != 1:
			t.Fatalf("reopened tree holds %d items, want 1", re.Len())
		case bits != bitsPerDim && !errors.Is(err, page.ErrCorrupt):
			t.Fatalf("meta record with %d bits per dimension: %v, want page.ErrCorrupt", bits, err)
		}
	}
}

func TestPagedCacheEviction(t *testing.T) {
	st := storage.NewMemStore()
	tr, err := Open(st, nil, Options{Dims: 2, DataCapacity: 6, Fanout: 5, CacheNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(randPoint(rng, 2), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := tr.paged.size.Load(); n > 2000 {
		t.Fatalf("decoded cache grew unbounded: %d", n)
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
}

// TestSavesEncodeAtWriteBack: a save only publishes a node in the decoded
// cache. With a cache larger than the tree, inserts reach the store as
// allocations alone — no node is encoded or written — and Flush then
// writes every live node once, plus the meta page.
func TestSavesEncodeAtWriteBack(t *testing.T) {
	st := storage.NewMemStore()
	tr, err := Open(st, nil, Options{Dims: 2, DataCapacity: 8, Fanout: 8, CacheNodes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	before := st.Stats().NodeWrites
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(randPoint(rng, 2), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Stats().NodeWrites; got != before {
		t.Fatalf("2000 inserts wrote %d nodes to the store, want 0", got-before)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	ts, err := tr.CollectStats()
	if err != nil {
		t.Fatal(err)
	}
	live := ts.DataPages
	for _, ls := range ts.IndexLevels {
		live += ls.Nodes
	}
	if got := st.Stats().NodeWrites - before; got != uint64(live+1) {
		t.Fatalf("Flush wrote %d nodes, want the %d live nodes and the meta page", got, live)
	}
}
