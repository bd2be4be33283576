package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bvtree/internal/fault"
	"bvtree/internal/page"
	"bvtree/internal/storage"
	"bvtree/internal/vfs"
)

// crashScenario builds a store with one synced generation of node
// content, then rewrites every node and attempts a second Sync with a
// fault injected at its k-th file operation. It returns the store, the
// fault filesystem, the node IDs, and the two content generations.
func crashScenario(t *testing.T, dir string, plan fault.Plan) (*storage.FileStore, *fault.FS, []page.ID, [][]byte, [][]byte) {
	t.Helper()
	ffs := fault.NewFS(vfs.OS{}, plan)
	st, err := storage.OpenFileStore(filepath.Join(dir, "s.db"),
		storage.FileStoreOptions{SlotSize: 128, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	var ids []page.ID
	var v1, v2 [][]byte
	for i := 0; i < 6; i++ {
		id, err := st.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		// Multi-slot chains included: sizes straddle the 116-byte payload.
		blob := make([]byte, 40+i*60)
		for j := range blob {
			blob[j] = byte(i + j)
		}
		v1 = append(v1, blob)
		if err := st.WriteNode(id, blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err) // checkpoint A: plans below only arm after this
	}
	for i, id := range ids {
		blob := make([]byte, 30+i*70)
		for j := range blob {
			blob[j] = byte(200 - i - j)
		}
		v2 = append(v2, blob)
		if err := st.WriteNode(id, blob); err != nil {
			t.Fatal(err)
		}
	}
	return st, ffs, ids, v1, v2
}

// TestSyncCrashSweep injects a crash at every file operation of an
// atomic Sync, in both clean-error and torn-write flavours, and verifies
// that (a) the store poisons itself, and (b) reopening lands on exactly
// the pre-Sync content (journal rollback) or exactly the post-Sync
// content (the crash hit after the new header was durable, e.g. during
// journal invalidation) — never a mixture.
func TestSyncCrashSweep(t *testing.T) {
	points := 0
	for _, mode := range []fault.Mode{fault.ModeError, fault.ModeTorn} {
		for k := 1; ; k++ {
			dir := t.TempDir()
			st, ffs, ids, v1, v2 := crashScenario(t, dir, fault.Plan{})
			ffs.SetPlan(fault.Plan{InjectAt: ffs.Ops() + k, Mode: mode, Seed: int64(k)})
			err := st.Sync()
			if err == nil {
				// k exceeded the Sync's operation count: sweep complete.
				// The new content must now be fully visible.
				ffs.SetPlan(fault.Plan{})
				for i, id := range ids {
					got, rerr := st.ReadNode(id)
					if rerr != nil {
						t.Fatal(rerr)
					}
					if string(got) != string(v2[i]) {
						t.Fatalf("mode=%v: node %d wrong after completed sync", mode, i)
					}
				}
				st.Close()
				ffs.CloseAll()
				if k < 8 {
					t.Fatalf("mode=%v: sync performed only %d file operations", mode, k-1)
				}
				break
			}
			points++
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("mode=%v k=%d: sync err = %v", mode, k, err)
			}
			// The store is poisoned: every further operation refuses.
			if _, rerr := st.ReadNode(ids[0]); !errors.Is(rerr, storage.ErrPoisoned) {
				t.Fatalf("mode=%v k=%d: read after failed sync err = %v, want storage.ErrPoisoned", mode, k, rerr)
			}
			if werr := st.WriteNode(ids[0], []byte{1}); !errors.Is(werr, storage.ErrPoisoned) {
				t.Fatalf("mode=%v k=%d: write after failed sync err = %v, want storage.ErrPoisoned", mode, k, werr)
			}
			if cerr := st.Close(); !errors.Is(cerr, storage.ErrPoisoned) {
				t.Fatalf("mode=%v k=%d: close of poisoned store err = %v, want storage.ErrPoisoned", mode, k, cerr)
			}
			ffs.CloseAll()

			re, rerr := storage.OpenFileStore(filepath.Join(dir, "s.db"), storage.FileStoreOptions{})
			if rerr != nil {
				t.Fatalf("mode=%v k=%d: reopen after crashed sync: %v", mode, k, rerr)
			}
			oldState, newState := true, true
			for i, id := range ids {
				got, gerr := re.ReadNode(id)
				if gerr != nil {
					t.Fatalf("mode=%v k=%d: read node %d: %v", mode, k, i, gerr)
				}
				oldState = oldState && string(got) == string(v1[i])
				newState = newState && string(got) == string(v2[i])
			}
			if !oldState && !newState {
				t.Fatalf("mode=%v k=%d: recovered state mixes pre- and post-sync content", mode, k)
			}
			re.Close()
		}
	}
	t.Logf("swept %d sync crash points", points)
	t.Logf("swept %d creation crash points", creationCrashSweep(t))
}

// creationCrashSweep is TestSyncCrashSweep's creation arm: it crashes
// at every file operation of a store's creation, its first writes and
// its first Sync, and reopens. The reopened store must be empty or hold
// exactly the synced content, and it must take writes.
func creationCrashSweep(t *testing.T) int {
	blobs := [][]byte{[]byte("one"), bytes.Repeat([]byte{2}, 300), []byte("three")}
	var ids []page.ID // the same in every run: allocation is deterministic
	run := func(path string, ffs *fault.FS) error {
		st, err := storage.OpenFileStore(path, storage.FileStoreOptions{SlotSize: 128, FS: ffs})
		if err != nil {
			return err
		}
		ids = ids[:0]
		for _, blob := range blobs {
			id, err := st.Alloc()
			if err != nil {
				return err
			}
			ids = append(ids, id)
			if err := st.WriteNode(id, blob); err != nil {
				return err
			}
		}
		return st.Sync()
	}
	dry := fault.NewFS(vfs.OS{}, fault.Plan{})
	if err := run(filepath.Join(t.TempDir(), "s.db"), dry); err != nil {
		t.Fatal(err)
	}
	dry.CloseAll()
	synced := slices.Clone(ids)
	points := 0
	for _, mode := range []fault.Mode{fault.ModeError, fault.ModeTorn} {
		for k := 1; ; k++ {
			path := filepath.Join(t.TempDir(), "s.db")
			ffs := fault.NewFS(vfs.OS{}, fault.Plan{InjectAt: k, Mode: mode, Seed: int64(k)})
			err := run(path, ffs)
			ffs.CloseAll()
			if err == nil {
				if k < 8 {
					t.Fatalf("mode=%v: creation performed only %d file operations", mode, k-1)
				}
				break
			}
			points++
			desc := fmt.Sprintf("mode=%v k=%d", mode, k)
			re, err := storage.OpenFileStore(path, storage.FileStoreOptions{SlotSize: 128})
			if err != nil {
				t.Fatalf("%s: reopen after crashed creation: %v", desc, err)
			}
			if got := re.SlotPayload(); got != 128-12 {
				t.Fatalf("%s: reopened with slot payload %d, want 116", desc, got)
			}
			if _, err := re.ReadNode(1); !errors.Is(err, storage.ErrUnallocated) {
				for i, want := range blobs {
					if got, err := re.ReadNode(synced[i]); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s: node %d = %q, %v: neither empty nor the synced content", desc, synced[i], got, err)
					}
				}
			}
			id, err := re.Alloc()
			if err == nil {
				err = re.WriteNode(id, []byte("after"))
			}
			if err == nil {
				err = re.Sync()
			}
			if err != nil {
				t.Fatalf("%s: write to the reopened store: %v", desc, err)
			}
			re.Close()
		}
	}
	return points
}

// TestOpenFileStoreCreatesOrReopens pins the one constructor's three
// cases: a file shorter than a header that is absent, empty or a torn
// header prefix starts a fresh store; any other short file is refused
// with ErrCorrupt and left byte-identical; and a whole store reopens
// with the slot size it was created with, whatever SlotSize says.
func TestOpenFileStoreCreatesOrReopens(t *testing.T) {
	// A real header, for its prefixes.
	hdrPath := filepath.Join(t.TempDir(), "h.db")
	st, err := storage.OpenFileStore(hdrPath, storage.FileStoreOptions{SlotSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	hdr, err := os.ReadFile(hdrPath)
	if err != nil || len(hdr) != 40 {
		t.Fatalf("fresh store file holds %d bytes, %v; want a 40-byte header", len(hdr), err)
	}
	fresh := func(t *testing.T, path string) {
		t.Helper()
		st, err := storage.OpenFileStore(path, storage.FileStoreOptions{SlotSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.ReadNode(1); !errors.Is(err, storage.ErrUnallocated) {
			t.Fatalf("page 1 of a fresh store: %v, want ErrUnallocated", err)
		}
		if got := st.SlotPayload(); got != 256-12 {
			t.Fatalf("fresh store slot payload %d, want 244", got)
		}
		id, err := st.Alloc()
		if err != nil || id != 1 {
			t.Fatalf("first Alloc = %d, %v", id, err)
		}
		if err := st.WriteNode(id, []byte("kept")); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got, err := re.ReadNode(id); err != nil || string(got) != "kept" {
			t.Fatalf("reopened fresh store: %q, %v", got, err)
		}
	}
	t.Run("absent", func(t *testing.T) {
		fresh(t, filepath.Join(t.TempDir(), "absent.db"))
	})
	for _, n := range []int{0, 1, 8, 12, 20, 39} {
		t.Run(fmt.Sprintf("torn-%d", n), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.db")
			if err := os.WriteFile(path, hdr[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			fresh(t, path)
		})
	}
	t.Run("not-a-store", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "notes.txt")
		text := []byte("not a bvtr")
		if err := os.WriteFile(path, text, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := storage.OpenFileStore(path, storage.FileStoreOptions{}); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("open of a 10-byte text file: %v, want ErrCorrupt", err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, text) {
			t.Fatalf("refused file now holds %q, %v", got, err)
		}
		if _, err := os.Stat(path + ".journal"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("refused file got a journal beside it: %v", err)
		}
	})
	t.Run("slot-size-at-creation-only", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "s.db")
		st, err := storage.OpenFileStore(path, storage.FileStoreOptions{SlotSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		for _, slot := range []int{0, 16, 512} {
			re, err := storage.OpenFileStore(path, storage.FileStoreOptions{SlotSize: slot})
			if err != nil {
				t.Fatalf("reopen with SlotSize %d: %v", slot, err)
			}
			if got := re.SlotPayload(); got != 128-12 {
				t.Fatalf("reopen with SlotSize %d: slot payload %d, want 116", slot, got)
			}
			re.Close()
		}
		if _, err := storage.OpenFileStore(filepath.Join(t.TempDir(), "small.db"), storage.FileStoreOptions{SlotSize: 16}); err == nil {
			t.Fatal("a store was created with 16-byte slots")
		}
	})
	// A valid journal beside a short file belongs to an earlier store at
	// the path. The fresh store discards it: rolled back, now or at the
	// next open, it would write the old store's header over the new one.
	t.Run("stale-journal", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "s.db")
		st, ffs, _, _, _ := crashScenario(t, dir, fault.Plan{})
		// The Sync's fourth operation is its first slot write: the
		// journal before it is whole and fsynced.
		ffs.SetPlan(fault.Plan{InjectAt: ffs.Ops() + 4, Mode: fault.ModeError})
		if err := st.Sync(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("sync: %v, want the injected fault", err)
		}
		st.Close()
		ffs.CloseAll()
		if fi, err := os.Stat(path + ".journal"); err != nil || fi.Size() == 0 {
			t.Fatalf("no journal left by the crashed Sync: %v", err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		// Started and closed with no write, the store leaves any journal
		// beside it in place for the next open, the one fresh makes.
		st, err = storage.OpenFileStore(path, storage.FileStoreOptions{SlotSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		fresh(t, path)
	})
}

func TestHeaderCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.db")
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{SlotSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := st.Alloc()
	if err := st.WriteNode(id, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 9, 13, 17, 25, 33} { // magic, version, slotSize, nextSlot, freeHead, crc
		data, _ := os.ReadFile(path)
		data[off] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := storage.OpenFileStore(path, storage.FileStoreOptions{}); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("header byte %d flipped: open err = %v, want storage.ErrCorrupt", off, err)
		}
		data[off] ^= 0x40
		_ = os.WriteFile(path, data, 0o644)
	}
}

func TestGarbageJournalIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.db")
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{SlotSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := st.Alloc()
	if err := st.WriteNode(id, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn or garbage journal (crash before the journal's fsync
	// completed) must be ignored, not rolled back.
	for _, junk := range [][]byte{{}, {1, 2, 3}, make([]byte, 400)} {
		if err := os.WriteFile(path+".journal", junk, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
		if err != nil {
			t.Fatalf("junk journal of %d bytes: %v", len(junk), err)
		}
		got, err := re.ReadNode(id)
		if err != nil || string(got) != "survives" {
			t.Fatalf("junk journal of %d bytes: node = %q, %v", len(junk), got, err)
		}
		re.Close()
	}
}

func TestClosedStoreErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.db")
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{SlotSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := st.Alloc()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Alloc(); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("alloc: %v", err)
	}
	if _, err := st.ReadNode(id); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("read: %v", err)
	}
	if err := st.WriteNode(id, nil); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("write: %v", err)
	}
	if err := st.Free(id); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("free: %v", err)
	}
	if err := st.Sync(); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("sync: %v", err)
	}
}

func TestFreeListCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.db")
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{SlotSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	var ids []page.ID
	for i := 0; i < 4; i++ {
		id, _ := st.Alloc()
		ids = append(ids, id)
		if err := st.WriteNode(id, []byte(fmt.Sprintf("n%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Free(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Point the freed slot's link out of range.
	data, _ := os.ReadFile(path)
	off := int64(ids[1]) * 128
	data[off] = 0xEE
	data[off+1] = 0xEE
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.OpenFileStore(path, storage.FileStoreOptions{}); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("open with corrupt free list err = %v, want storage.ErrCorrupt", err)
	}
}

// TestPoisonedErrorKeepsCause pins the error chain of a poisoned store:
// every refusal after a failed Sync must match both ErrPoisoned and the
// failure that poisoned it, so callers (and the checkpoint crash
// sweeps) can tell an injected fault from any other cause.
func TestPoisonedErrorKeepsCause(t *testing.T) {
	st, ffs, ids, _, _ := crashScenario(t, t.TempDir(), fault.Plan{})
	defer ffs.CloseAll()
	ffs.SetPlan(fault.Plan{InjectAt: ffs.Ops() + 1, Mode: fault.ModeError})
	cause := st.Sync()
	if !errors.Is(cause, fault.ErrInjected) {
		t.Fatalf("sync err = %v, want the injected fault", cause)
	}
	_, rerr := st.ReadNode(ids[0])
	for what, err := range map[string]error{"read": rerr, "write": st.WriteNode(ids[0], []byte{1}), "close": st.Close()} {
		if !errors.Is(err, storage.ErrPoisoned) || !errors.Is(err, cause) {
			t.Fatalf("%s on poisoned store: err = %v, want ErrPoisoned wrapping %v", what, err, cause)
		}
	}
}
