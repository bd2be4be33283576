package bvtree

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"bvtree/internal/fault"
	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/storage"
	"bvtree/internal/vfs"
	"bvtree/internal/wal"
)

// openRig is one store for TestOpen: a MemStore, which a restart finds
// as it was, or a FileStore behind a fault filesystem, which a restart
// abandons (the crash) and opens again from the real file.
type openRig struct {
	dir     string
	ffs     *fault.FS
	st      storage.Store
	restart func(t *testing.T) storage.Store
}

func newOpenRig(t *testing.T, backend string) *openRig {
	r := &openRig{dir: t.TempDir(), ffs: fault.NewFS(vfs.OS{}, fault.Plan{})}
	if backend == "mem" {
		st := storage.NewMemStore()
		r.st, r.restart = st, func(*testing.T) storage.Store { return st }
		return r
	}
	path := filepath.Join(r.dir, "t.db")
	st, err := storage.CreateFileStore(path, storage.FileStoreOptions{SlotSize: 256, FS: r.ffs})
	if err != nil {
		t.Fatal(err)
	}
	r.st = st
	r.restart = func(t *testing.T) storage.Store {
		r.ffs.CloseAll()
		st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	return r
}

// log opens the rig's log, through its fault filesystem, so a restart
// abandons it too.
func (r *openRig) log(t *testing.T) *wal.Log {
	l, err := wal.OpenFS(r.ffs, filepath.Join(r.dir, "t.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestOpen: Open is the one way to start and to reopen a tree, on a
// MemStore and on a FileStore alike. A fresh store starts a tree; a
// flushed one reopens with its Len and Height and passes the full
// check; a log is replayed onto the checkpoint, or discarded when its
// epoch is behind the store's; Options whose shape differs from the
// stored tree's are refused, and zero fields take the stored shape;
// and Close on a tree without a log leaves its store usable. A bit
// flipped in a FileStore's meta slot is refused with page.ErrCorrupt
// and leaves the file as it was: the store is never taken for empty.
func TestOpen(t *testing.T) {
	opt := Options{Dims: 2, DataCapacity: 8, Fanout: 8}
	rng := rand.New(rand.NewSource(41))
	pts := make([]geometry.Point, 300)
	for i := range pts {
		pts[i] = clusteredPoint(rng, 2)
	}
	insert := func(t *testing.T, tr *Tree, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := tr.Insert(pts[i], uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	holds := func(t *testing.T, tr *Tree, n int) {
		t.Helper()
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		for i := 0; i < n; i++ {
			if found, err := contains(tr, pts[i], uint64(i)); err != nil || !found {
				t.Fatalf("item %d: found %v, %v", i, found, err)
			}
		}
		if err := tr.Validate(true); err != nil {
			t.Fatal(err)
		}
	}
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend+"/fresh", func(t *testing.T) {
			r := newOpenRig(t, backend)
			tr, err := Open(r.st, nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := tr.Options(); got.Dims != 2 || got.DataCapacity != 8 || got.Fanout != 8 {
				t.Fatalf("Options = %+v", got)
			}
			holds(t, tr, 0)
			if tr.Height() != 0 || tr.Epoch() != 1 || tr.LSN() != 0 || tr.LogSize() != 0 {
				t.Fatalf("fresh tree: height %d, epoch %d, LSN %d, log %d", tr.Height(), tr.Epoch(), tr.LSN(), tr.LogSize())
			}
			if c, s := tr.GroupStats(); c != 0 || s != 0 {
				t.Fatalf("GroupStats without a log = %d, %d", c, s)
			}
		})

		t.Run(backend+"/reopen", func(t *testing.T) {
			r := newOpenRig(t, backend)
			tr, err := Open(r.st, nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			insert(t, tr, 0, len(pts))
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			st := r.restart(t)
			re, err := Open(st, nil, Options{CacheNodes: 16})
			if err != nil {
				t.Fatal(err)
			}
			holds(t, re, len(pts))
			if re.Height() != tr.Height() || re.Options().CacheNodes != 16 || re.Options().Fanout != 8 {
				t.Fatalf("reopened: height %d (want %d), Options %+v", re.Height(), tr.Height(), re.Options())
			}
			// Each shape field must be zero or the stored one.
			for _, o := range []Options{{Dims: 3}, {Fanout: 16}, {DataCapacity: 32}, {Dims: 2, LevelScaledPages: true}} {
				if _, err := Open(st, nil, o); err == nil {
					t.Fatalf("Open with %+v accepted a tree of %+v", o, re.Options())
				}
			}
			if again, err := Open(st, nil, opt); err != nil || again.Len() != len(pts) {
				t.Fatalf("Open with the stored shape: %v", err)
			}
		})

		t.Run(backend+"/replay", func(t *testing.T) {
			r := newOpenRig(t, backend)
			tr, err := Open(r.st, r.log(t), opt)
			if err != nil {
				t.Fatal(err)
			}
			insert(t, tr, 0, 100)
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			insert(t, tr, 100, 160)
			st := r.restart(t) // crash: the last 60 inserts are in the log alone
			l, err := wal.Open(filepath.Join(r.dir, "t.wal"))
			if err != nil {
				t.Fatal(err)
			}
			re, err := Open(st, l, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			holds(t, re, 160)
			if re.LSN() != 160 || re.LogSize() == 0 {
				t.Fatalf("replayed tree: LSN %d, log %d bytes", re.LSN(), re.LogSize())
			}
		})

		t.Run(backend+"/stale-log", func(t *testing.T) {
			r := newOpenRig(t, backend)
			tr, err := Open(r.st, r.log(t), opt)
			if err != nil {
				t.Fatal(err)
			}
			insert(t, tr, 0, 100)
			walPath := filepath.Join(r.dir, "t.wal")
			stale, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			// The checkpoint's store sync lands, its log reset does not.
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			st := r.restart(t)
			if err := os.WriteFile(walPath, stale, 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := wal.Open(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if l.Epoch() >= tr.Epoch() {
				t.Fatalf("log epoch %d is not behind the store's %d", l.Epoch(), tr.Epoch())
			}
			re, err := Open(st, l, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			holds(t, re, 100) // once each, not replayed a second time
			if re.LSN() != 100 || re.LogSize() != 0 {
				t.Fatalf("stale log: LSN %d (want 100), %d bytes left in the log", re.LSN(), re.LogSize())
			}
		})

		t.Run(backend+"/close-without-log", func(t *testing.T) {
			r := newOpenRig(t, backend)
			tr, err := Open(r.st, nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			insert(t, tr, 0, 50)
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			insert(t, tr, 50, 80)
			if err := tr.Flush(); err != nil {
				t.Fatalf("Flush after Close: %v", err)
			}
			re, err := Open(r.restart(t), nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			holds(t, re, 80)
		})
	}

	t.Run("file/corrupt-meta", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "t.db")
		const slot = 256
		st, err := storage.CreateFileStore(path, storage.FileStoreOptions{SlotSize: slot})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Open(st, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		insert(t, tr, 0, 100)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The meta page is slot 1; its fragment follows the slot header.
		data[int(metaPageID)*slot+12+9] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Open(re, nil, opt); !errors.Is(err, page.ErrCorrupt) {
			t.Fatalf("Open of a flipped meta slot: %v, want page.ErrCorrupt", err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, data) {
			t.Fatal("a refused Open changed the store file")
		}
	})
}
