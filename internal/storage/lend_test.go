package storage_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"bvtree/internal/fault"
	"bvtree/internal/page"
	"bvtree/internal/storage"
)

// raceEnabled is set in race builds (race_test.go), where sync.Pool drops
// a share of its Puts and a pooled slot buffer is allocated again.
var raceEnabled bool

// lendingStore is a store with the borrowed read seam.
type lendingStore interface {
	storage.Store
	storage.Lender
}

// copyOut is a LendNode use that copies the lent blob out.
func copyOut(_ page.ID, blob []byte) (any, error) { return bytes.Clone(blob), nil }

// sameRead reads id through ReadNode and through LendNode and fails the
// test unless both return the same bytes and the same error, and move
// NodeReads and SlotReads by the same amounts. It returns the error.
func sameRead(t *testing.T, what string, st lendingStore, id page.ID) error {
	t.Helper()
	s0 := st.Stats()
	want, werr := st.ReadNode(id)
	s1 := st.Stats()
	v, gerr := st.LendNode(id, copyOut)
	s2 := st.Stats()
	got, _ := v.([]byte)
	if !bytes.Equal(got, want) {
		t.Errorf("%s: LendNode lends %d bytes, ReadNode returns %d that differ", what, len(got), len(want))
	}
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Errorf("%s: LendNode error %v, ReadNode error %v", what, gerr, werr)
	}
	for _, sentinel := range []error{storage.ErrCorrupt, storage.ErrClosed, storage.ErrPoisoned, storage.ErrUnallocated} {
		if errors.Is(werr, sentinel) != errors.Is(gerr, sentinel) {
			t.Errorf("%s: errors.Is(%v) is %v for ReadNode, %v for LendNode", what, sentinel, errors.Is(werr, sentinel), errors.Is(gerr, sentinel))
		}
	}
	read, lent := s1.Sub(s0), s2.Sub(s1)
	if read.NodeReads != lent.NodeReads || read.SlotReads != lent.SlotReads {
		t.Errorf("%s: ReadNode counts %d node and %d slot reads, LendNode %d and %d",
			what, read.NodeReads, read.SlotReads, lent.NodeReads, lent.SlotReads)
	}
	return werr
}

func writeBlob(t *testing.T, st storage.Store, size int) page.ID {
	t.Helper()
	id, err := st.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, size)
	for j := range blob {
		blob[j] = byte(size + 7*j)
	}
	if err := st.WriteNode(id, blob); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestLendNodeMatchesReadNode: LendNode is ReadNode without the copy. On
// a FileStore of 128-byte slots (116 bytes of payload) both forms agree
// on a one-slot node and a chain, in the file and in the write set, on a
// freed and an unallocated page, on a corrupt chain link, fragment
// length and chain cycle, and on a closed and a poisoned store; on a
// MemStore on a stored, an empty and an unallocated page.
func TestLendNodeMatchesReadNode(t *testing.T) {
	const slot = 128
	path := filepath.Join(t.TempDir(), "lend.db")
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{SlotSize: slot})
	if err != nil {
		t.Fatal(err)
	}
	one, chain := writeBlob(t, st, 60), writeBlob(t, st, 400)
	badNext, badLen, cycle := writeBlob(t, st, 50), writeBlob(t, st, 70), writeBlob(t, st, 200)
	freed := writeBlob(t, st, 90)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	written, writtenChain := writeBlob(t, st, 50), writeBlob(t, st, 300)
	for what, id := range map[string]page.ID{
		"one-slot node": one, "chain": chain, "write-set slot": written, "write-set chain": writtenChain,
		"unallocated page": page.ID(1 << 20),
	} {
		if err := sameRead(t, what, st, id); err != nil && what != "unallocated page" {
			t.Fatalf("%s: %v", what, err)
		}
	}
	if err := st.Free(freed); err != nil {
		t.Fatal(err)
	}
	sameRead(t, "page freed in the write set", st, freed)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	sameRead(t, "page freed in the file", st, freed)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sameRead(t, "closed store", st, one)

	// Damage three nodes in the file: a slot is its next slot (8 bytes),
	// its fragment length (4) and the fragment.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := func(id page.ID) []byte { return data[int(id)*slot:] }
	binary.LittleEndian.PutUint64(at(badNext), 1<<30)
	binary.LittleEndian.PutUint32(at(badLen)[8:], slot)
	second := page.ID(binary.LittleEndian.Uint64(at(cycle)))
	binary.LittleEndian.PutUint64(at(second), uint64(cycle))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for what, id := range map[string]page.ID{"corrupt next slot": badNext, "corrupt fragment length": badLen, "chain cycle": cycle} {
		if err := sameRead(t, what, re, id); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%s: err = %v, want storage.ErrCorrupt", what, err)
		}
	}
	if err := sameRead(t, "undamaged chain", re, chain); err != nil {
		t.Fatal(err)
	}

	poisoned, ffs, ids, _, _ := crashScenario(t, t.TempDir(), fault.Plan{})
	defer ffs.CloseAll()
	ffs.SetPlan(fault.Plan{InjectAt: ffs.Ops() + 1, Mode: fault.ModeError})
	if err := poisoned.Sync(); err == nil {
		t.Fatal("sync with an injected fault succeeded")
	}
	if err := sameRead(t, "poisoned store", poisoned, ids[0]); !errors.Is(err, storage.ErrPoisoned) {
		t.Fatalf("poisoned store: err = %v, want storage.ErrPoisoned", err)
	}

	mem := storage.NewMemStore()
	empty, err := mem.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	for what, id := range map[string]page.ID{"stored blob": writeBlob(t, mem, 500), "empty page": empty, "unallocated page": page.ID(1 << 20)} {
		sameRead(t, "MemStore "+what, mem, id)
	}
}

// TestLendNodeDoesNotAllocate: lending a one-slot node from the file
// costs its pread and nothing else — the slot buffer is pooled, and a use
// built once allocates no closure.
func TestLendNodeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector: exact allocation counts hold in normal builds only")
	}
	path := filepath.Join(t.TempDir(), "lend.db")
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	id := writeBlob(t, st, 1000)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	sum := 0
	use := func(_ page.ID, blob []byte) (any, error) {
		sum += int(blob[len(blob)-1])
		return nil, nil
	}
	before := st.Stats().SlotReads
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := st.LendNode(id, use); err != nil {
			t.Fatal(err)
		}
	})
	if reads := st.Stats().SlotReads - before; reads < 100 {
		t.Fatalf("%d slot reads in 101 lends: the node is not read from the file", reads)
	}
	if allocs != 0 {
		t.Fatalf("LendNode of a one-slot node allocates %.1f times, want 0", allocs)
	}
}

// TestConcurrentLendBesideWrites races borrowed reads against a writer
// that rewrites nodes between one and four slots long and Syncs every few
// steps, moving their slots between the write set and the file. Every
// blob records its length and a seed in its first three bytes and
// follows the seed after them, so a use that saw a blob torn between two
// writes, or a slot buffer another read was filling, finds it
// inconsistent. make verify runs the TestConcurrent* subset under the
// race detector.
func TestConcurrentLendBesideWrites(t *testing.T) {
	const nodes, readers = 32, 6
	st, err := storage.OpenFileStore(filepath.Join(t.TempDir(), "lend.db"), storage.FileStoreOptions{SlotSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	blob := func(seed, size int) []byte {
		b := make([]byte, size)
		b[0], b[1], b[2] = byte(size), byte(size>>8), byte(seed)
		for j := 3; j < size; j++ {
			b[j] = byte(seed + j)
		}
		return b
	}
	check := func(id page.ID, b []byte) (any, error) {
		if len(b) < 3 || int(b[0])|int(b[1])<<8 != len(b) {
			return nil, fmt.Errorf("page %d: %d bytes, header says otherwise", id, len(b))
		}
		for j := 3; j < len(b); j++ {
			if b[j] != b[2]+byte(j) {
				return nil, fmt.Errorf("page %d: byte %d of %d is torn", id, j, len(b))
			}
		}
		return nil, nil
	}
	ids := make([]page.ID, nodes)
	for i := range ids {
		if ids[i], err = st.Alloc(); err != nil {
			t.Fatal(err)
		}
		if err := st.WriteNode(ids[i], blob(i, 3+i*13)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < 400; r++ {
				if _, err := st.LendNode(ids[rng.Intn(nodes)], check); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 300; step++ {
		if err := st.WriteNode(ids[rng.Intn(nodes)], blob(step, 3+rng.Intn(450))); err != nil {
			t.Fatal(err)
		}
		if step%8 == 0 {
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for g := 0; g < readers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
