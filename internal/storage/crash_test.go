package storage_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	st, err := storage.CreateFileStore(filepath.Join(dir, "s.db"),
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
}

func TestHeaderCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.db")
	st, err := storage.CreateFileStore(path, storage.FileStoreOptions{SlotSize: 128})
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
	st, err := storage.CreateFileStore(path, storage.FileStoreOptions{SlotSize: 128})
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
	st, err := storage.CreateFileStore(path, storage.FileStoreOptions{SlotSize: 128})
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
	st, err := storage.CreateFileStore(path, storage.FileStoreOptions{SlotSize: 128})
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
