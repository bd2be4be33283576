package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"bvtree/internal/page"
)

func stores(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := OpenFileStore(filepath.Join(t.TempDir(), "store.db"), FileStoreOptions{SlotSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return map[string]Store{
		"mem":  NewMemStore(),
		"file": fs,
	}
}

func TestStoreBasics(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			id, err := st.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.WriteNode(id, []byte("hello")); err != nil {
				t.Fatal(err)
			}
			got, err := st.ReadNode(id)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "hello" {
				t.Fatalf("got %q", got)
			}
			// Overwrite with longer and shorter blobs.
			long := bytes.Repeat([]byte("x"), 10000)
			if err := st.WriteNode(id, long); err != nil {
				t.Fatal(err)
			}
			got, _ = st.ReadNode(id)
			if !bytes.Equal(got, long) {
				t.Fatalf("long blob mismatch: %d bytes", len(got))
			}
			if err := st.WriteNode(id, []byte("s")); err != nil {
				t.Fatal(err)
			}
			got, _ = st.ReadNode(id)
			if string(got) != "s" {
				t.Fatalf("shrunk blob = %q", got)
			}
			if err := st.Free(id); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStoreManyNodesRandomized(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			model := make(map[page.ID][]byte)
			var ids []page.ID
			for op := 0; op < 3000; op++ {
				switch {
				case len(ids) == 0 || rng.Float64() < 0.35:
					id, err := st.Alloc()
					if err != nil {
						t.Fatal(err)
					}
					blob := make([]byte, rng.Intn(2000))
					rng.Read(blob)
					if err := st.WriteNode(id, blob); err != nil {
						t.Fatal(err)
					}
					model[id] = blob
					ids = append(ids, id)
				case rng.Float64() < 0.6:
					id := ids[rng.Intn(len(ids))]
					blob := make([]byte, rng.Intn(3000))
					rng.Read(blob)
					if err := st.WriteNode(id, blob); err != nil {
						t.Fatal(err)
					}
					model[id] = blob
				default:
					i := rng.Intn(len(ids))
					id := ids[i]
					if err := st.Free(id); err != nil {
						t.Fatal(err)
					}
					delete(model, id)
					ids[i] = ids[len(ids)-1]
					ids = ids[:len(ids)-1]
				}
				if op%700 == 0 {
					// Later reads take some slots from the file, some from
					// the write set.
					if err := st.Sync(); err != nil {
						t.Fatal(err)
					}
				}
				if op%250 == 0 {
					for id, want := range model {
						got, err := st.ReadNode(id)
						if err != nil {
							t.Fatalf("read %d: %v", id, err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("node %d content mismatch (%d vs %d bytes)", id, len(got), len(want))
						}
					}
				}
			}
		})
	}
}

func TestFileStorePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.db")
	fs, err := OpenFileStore(path, FileStoreOptions{SlotSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	model := make(map[page.ID][]byte)
	for i := 0; i < 50; i++ {
		id, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		blob := make([]byte, rng.Intn(1000))
		rng.Read(blob)
		if err := fs.WriteNode(id, blob); err != nil {
			t.Fatal(err)
		}
		model[id] = blob
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for id, want := range model {
		got, err := re.ReadNode(id)
		if err != nil {
			t.Fatalf("reopened read %d: %v", id, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("node %d mismatch after reopen", id)
		}
	}
	// Allocation must not hand out overlapping slots after reopen.
	id, err := re.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := re.WriteNode(id, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	for mid, want := range model {
		got, _ := re.ReadNode(mid)
		if !bytes.Equal(got, want) {
			t.Fatalf("node %d clobbered by new allocation", mid)
		}
	}
}

func TestFileStoreFreeListReuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "free.db")
	fs, err := OpenFileStore(path, FileStoreOptions{SlotSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	// Fill, free, refill: the file should not grow on the second fill.
	var ids []page.ID
	big := bytes.Repeat([]byte("y"), 1000) // multi-slot chains
	for i := 0; i < 20; i++ {
		id, _ := fs.Alloc()
		if err := fs.WriteNode(id, big); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	grown := fs.nextSlot
	for _, id := range ids {
		if err := fs.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		id, _ := fs.Alloc()
		if err := fs.WriteNode(id, big); err != nil {
			t.Fatal(err)
		}
	}
	if fs.nextSlot != grown {
		t.Fatalf("file grew from %d to %d slots despite free list", grown, fs.nextSlot)
	}
}

// TestFileChangesOnlyAtSync pins the write set: between Syncs, writes,
// frees and allocations off the free list leave every byte the last Sync
// wrote untouched, and a Sync empties the write set.
func TestFileChangesOnlyAtSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.db")
	fs, err := OpenFileStore(path, FileStoreOptions{SlotSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var ids []page.ID
	for i := 0; i < 12; i++ {
		id, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteNode(id, bytes.Repeat([]byte{byte(i)}, 50+i*40)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := fs.Free(ids[3]); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := len(fs.written); n != 0 {
		t.Fatalf("%d slots left in the write set after Sync", n)
	}
	synced, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		switch {
		case i == 3:
		case i%3 == 0:
			if err := fs.Free(id); err != nil {
				t.Fatal(err)
			}
		default:
			if err := fs.WriteNode(id, bytes.Repeat([]byte{0xEE}, 10+i*50)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 6; i++ { // off the free list, then past the end
		id, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteNode(id, []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(now) < len(synced) || !bytes.Equal(now[:len(synced)], synced) {
		t.Fatal("the file changed between Syncs")
	}
	if len(fs.written) == 0 {
		t.Fatal("writes since the Sync left the write set empty")
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if now, _ = os.ReadFile(path); bytes.Equal(now[:len(synced)], synced) {
		t.Fatal("Sync left the file unchanged")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.db")
	if err := writeFile(path, bytes.Repeat([]byte{0xAB}, 200)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path, FileStoreOptions{}); err == nil {
		t.Fatal("garbage file opened")
	}
}

func TestErrorsOnUnallocated(t *testing.T) {
	m := NewMemStore()
	if _, err := m.ReadNode(99); err == nil {
		t.Fatal("read of unallocated page succeeded")
	}
	if err := m.WriteNode(99, nil); err == nil {
		t.Fatal("write to unallocated page succeeded")
	}
	if err := m.Free(99); err == nil {
		t.Fatal("free of unallocated page succeeded")
	}
}

// TestReadOfUnallocatedPage: on both stores a read of a page that was
// never allocated — every page of a fresh store, page 0, a page past the
// last allocation — fails with ErrUnallocated, through ReadNode and
// LendNode alike, and a FileStore refuses it without reading the file.
// An allocated page, even one never written, is not refused, and a
// FileStore reopened from its file still knows which pages it allocated.
func TestReadOfUnallocatedPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.db")
	fs, err := OpenFileStore(path, FileStoreOptions{SlotSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for name, st := range map[string]interface {
		Store
		Lender
	}{"mem": NewMemStore(), "file": fs} {
		t.Run(name, func(t *testing.T) {
			refused := func(id page.ID) {
				t.Helper()
				before := st.Stats()
				if _, err := st.ReadNode(id); !errors.Is(err, ErrUnallocated) {
					t.Errorf("ReadNode(%d): err = %v, want ErrUnallocated", id, err)
				}
				if _, err := st.LendNode(id, func(page.ID, []byte) (any, error) { return nil, nil }); !errors.Is(err, ErrUnallocated) {
					t.Errorf("LendNode(%d): err = %v, want ErrUnallocated", id, err)
				}
				if d := st.Stats().Sub(before); d.NodeReads != 0 || d.SlotReads != 0 {
					t.Errorf("refused read of page %d counted %d node and %d slot reads", id, d.NodeReads, d.SlotReads)
				}
			}
			refused(0)
			refused(1)
			id, err := st.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.ReadNode(id); err != nil {
				t.Fatalf("read of an allocated, unwritten page: %v", err)
			}
			refused(id + 1)
			refused(id + 1000)
		})
	}
	if err := fs.WriteNode(1, []byte("meta")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, err := re.ReadNode(1); err != nil || string(got) != "meta" {
		t.Fatalf("reopened page 1 = %q, %v", got, err)
	}
	if _, err := re.ReadNode(2); !errors.Is(err, ErrUnallocated) {
		t.Fatalf("reopened page 2: err = %v, want ErrUnallocated", err)
	}
}

func TestStatsProgress(t *testing.T) {
	m := NewMemStore()
	id, _ := m.Alloc()
	_ = m.WriteNode(id, []byte("a"))
	_, _ = m.ReadNode(id)
	s := m.Stats()
	if s.Allocs != 1 || s.NodeWrites != 1 || s.NodeReads != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if d := s.Sub(Stats{NodeReads: 1}); d.NodeReads != 0 || d.Allocs != 1 {
		t.Fatalf("Sub = %+v", d)
	}
}

func writeFile(path string, data []byte) error {
	f, err := createFile(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func createFile(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}
