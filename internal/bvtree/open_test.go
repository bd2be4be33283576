package bvtree

import (
	"bytes"
	"encoding/binary"
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
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{SlotSize: 256, FS: r.ffs})
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
	l, err := wal.OpenFS(r.ffs, r.walPath())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func (r *openRig) walPath() string { return filepath.Join(r.dir, "t.wal") }

// emptied abandons the rig's store as a crash does and returns it
// emptied: a new MemStore, or the FileStore's file truncated to 0 bytes
// and opened again. The log is left as it is.
func (r *openRig) emptied(t *testing.T) storage.Store {
	t.Helper()
	if _, ok := r.st.(*storage.MemStore); ok {
		return storage.NewMemStore()
	}
	r.ffs.CloseAll()
	path := filepath.Join(r.dir, "t.db")
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{SlotSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// another returns a fresh store of the rig's backend, named name.
func (r *openRig) another(t *testing.T, name string) storage.Store {
	if _, ok := r.st.(*storage.MemStore); ok {
		return storage.NewMemStore()
	}
	st, err := storage.OpenFileStore(filepath.Join(r.dir, name), storage.FileStoreOptions{SlotSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// checkpointLSN reads the checkpoint LSN from st's meta record.
func checkpointLSN(t *testing.T, st storage.Store) uint64 {
	t.Helper()
	blob, err := st.ReadNode(metaPageID)
	if err != nil {
		t.Fatal(err)
	}
	m, err := page.DecodeMeta(blob)
	if err != nil {
		t.Fatal(err)
	}
	return m.LSN
}

// TestOpen: Open is the one way to start and to reopen a tree, on a
// MemStore and on a FileStore alike. A fresh store starts a tree; a
// flushed one reopens with its Len and Height and passes the full
// check; a log's records past the store's checkpoint LSN are replayed
// onto it and those at or below it skipped, a log that ends before the
// checkpoint (torn in its reset) leaves the LSN where the checkpoint put
// it, a restored store opened with the log replays to the log's end, and
// a log that begins after the checkpoint is refused (also beside an
// emptied store, a new tree at LSN 0, whose log's records are otherwise
// replayed onto it); Options whose shape
// differs from the
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
			if tr.Height() != 0 || tr.LSN() != 0 || tr.LogSize() != 0 || checkpointLSN(t, r.st) != 0 {
				t.Fatalf("fresh tree: height %d, LSN %d, log %d, checkpoint LSN %d", tr.Height(), tr.LSN(), tr.LogSize(), checkpointLSN(t, r.st))
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
			if ckpt := checkpointLSN(t, st); l.BaseLSN() >= ckpt {
				t.Fatalf("log base LSN %d is not below the store's checkpoint LSN %d", l.BaseLSN(), ckpt)
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

		// The checkpoint's store sync lands, and the crash hits inside
		// the log reset: the log is left empty, or with a torn preamble.
		// The checkpoint LSN is the store's, so the tree keeps it, and
		// the log is reset at it so later records number on from it.
		for _, torn := range []struct {
			name string
			size int64
		}{{"empty", 0}, {"torn-preamble", 7}} {
			t.Run(backend+"/torn-log-reset/"+torn.name, func(t *testing.T) {
				r := newOpenRig(t, backend)
				tr, err := Open(r.st, r.log(t), opt)
				if err != nil {
					t.Fatal(err)
				}
				insert(t, tr, 0, 100)
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
				st := r.restart(t)
				if err := os.Truncate(r.walPath(), torn.size); err != nil {
					t.Fatal(err)
				}
				re, err := Open(st, r.log(t), Options{})
				if err != nil {
					t.Fatal(err)
				}
				holds(t, re, 100)
				if re.LSN() != 100 {
					t.Fatalf("after a torn log reset: LSN %d, want the checkpoint's 100", re.LSN())
				}
				insert(t, re, 100, 130)
				st = r.restart(t) // crash again: 30 inserts in the log alone
				again, err := Open(st, r.log(t), Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer again.Close()
				holds(t, again, 130)
				if again.LSN() != 130 {
					t.Fatalf("records logged after the torn reset: LSN %d, want 130", again.LSN())
				}
			})
		}

		// A backup at LSN 15 of a tree whose log holds LSNs 11-20: the
		// restored store is a checkpoint at 15, so Open with that log
		// skips 11-15 and replays 16-20, the state RestoreToLSN gives
		// for 20.
		t.Run(backend+"/restore-then-open", func(t *testing.T) {
			r := newOpenRig(t, backend)
			tr, err := Open(r.st, r.log(t), opt)
			if err != nil {
				t.Fatal(err)
			}
			insert(t, tr, 0, 10)
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			insert(t, tr, 10, 15)
			var backup bytes.Buffer
			if lsn, err := tr.SnapshotBackup(&backup); err != nil || lsn != 15 {
				t.Fatalf("SnapshotBackup = %d, %v; want LSN 15", lsn, err)
			}
			insert(t, tr, 15, 20)
			r.restart(t)

			l := r.log(t)
			pitr, err := RestoreToLSN(r.another(t, "pitr.db"), bytes.NewReader(backup.Bytes()), l, 20)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			st := r.another(t, "restored.db")
			if _, err := RestoreSnapshot(st, bytes.NewReader(backup.Bytes())); err != nil {
				t.Fatal(err)
			}
			if ckpt := checkpointLSN(t, st); ckpt != 15 {
				t.Fatalf("restored store's checkpoint LSN %d, want 15", ckpt)
			}
			re, err := Open(st, r.log(t), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			holds(t, re, 20)
			if re.LSN() != 20 || pitr.LSN() != 20 {
				t.Fatalf("restore then open: LSN %d; RestoreToLSN: LSN %d; want 20", re.LSN(), pitr.LSN())
			}
			equalMultiset(t, "restore then open vs RestoreToLSN", collect(t, re.Scan), collect(t, pitr.Scan))
		})

		// A log that begins after the store's checkpoint has lost the
		// records in between: Open refuses it and writes nothing.
		t.Run(backend+"/gap", func(t *testing.T) {
			r := newOpenRig(t, backend)
			tr, err := Open(r.st, r.log(t), opt)
			if err != nil {
				t.Fatal(err)
			}
			insert(t, tr, 0, 50)
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			st := r.restart(t)
			if err := os.Remove(r.walPath()); err != nil {
				t.Fatal(err)
			}
			l := r.log(t)
			if err := l.ResetAt(80); err != nil {
				t.Fatal(err)
			}
			seq, err := l.Enqueue(encodeOp(nil, opInsert, pts[60], 60))
			if err == nil {
				err = l.Wait(seq)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			storeBefore, logBefore := storeImage(t, r, st), readFile(t, r.walPath())
			if _, err := Open(st, r.log(t), Options{}); !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("Open with a log beginning at LSN 80 over a checkpoint at 50: %v, want wal.ErrCorrupt", err)
			}
			if !bytes.Equal(storeImage(t, r, st), storeBefore) || !bytes.Equal(readFile(t, r.walPath()), logBefore) {
				t.Fatal("a refused Open changed the store or the log")
			}
			re, err := Open(st, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			holds(t, re, 50)
			if re.LSN() != 50 {
				t.Fatalf("reopened without a log: LSN %d, want the checkpoint's 50", re.LSN())
			}
		})

		// A store emptied or lost beside a log that holds records is a new
		// tree, a checkpoint at LSN 0: the log's records are replayed onto
		// it, never discarded.
		t.Run(backend+"/store-emptied", func(t *testing.T) {
			r := newOpenRig(t, backend)
			tr, err := Open(r.st, r.log(t), opt)
			if err != nil {
				t.Fatal(err)
			}
			insert(t, tr, 0, 10)
			st := r.emptied(t)
			re, err := Open(st, r.log(t), opt)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			holds(t, re, 10)
			if re.LSN() != 10 {
				t.Fatalf("emptied store beside 10 logged inserts: LSN %d, want 10", re.LSN())
			}
		})

		// An emptied store beside a log that begins at LSN 50 has lost the
		// records up to it: Open refuses the pair and writes neither.
		t.Run(backend+"/store-emptied-gap", func(t *testing.T) {
			r := newOpenRig(t, backend)
			l := r.log(t)
			if err := l.ResetAt(50); err != nil {
				t.Fatal(err)
			}
			seq, err := l.Enqueue(encodeOp(nil, opInsert, pts[50], 50))
			if err == nil {
				err = l.Wait(seq)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			st := r.emptied(t)
			storeBefore, logBefore := storeImage(t, r, st), readFile(t, r.walPath())
			if _, err := Open(st, r.log(t), opt); !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("Open of an emptied store beside a log beginning at LSN 50: %v, want wal.ErrCorrupt", err)
			}
			if !bytes.Equal(storeImage(t, r, st), storeBefore) || !bytes.Equal(readFile(t, r.walPath()), logBefore) {
				t.Fatal("a refused Open changed the store or the log")
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
		st, err := storage.OpenFileStore(path, storage.FileStoreOptions{SlotSize: slot})
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

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// storeImage is the rig's store as bytes: the file of a FileStore; of
// a MemStore, every page ever allocated (IDs run from 1), a freed one as
// a single 0xff.
func storeImage(t *testing.T, r *openRig, st storage.Store) []byte {
	t.Helper()
	if _, ok := st.(*storage.MemStore); !ok {
		return readFile(t, filepath.Join(r.dir, "t.db"))
	}
	var img []byte
	for id := page.ID(1); id <= page.ID(st.Stats().Allocs); id++ {
		blob, err := st.ReadNode(id)
		if errors.Is(err, storage.ErrUnallocated) {
			blob = []byte{0xff}
		} else if err != nil {
			t.Fatal(err)
		}
		img = binary.LittleEndian.AppendUint32(img, uint32(len(blob)))
		img = append(img, blob...)
	}
	return img
}
