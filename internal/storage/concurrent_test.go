package storage

// Concurrency tests for the stores: many readers assembling slot chains
// in parallel, against both the in-memory store and a FileStore, whose
// readers share the write set and the file, and race a writer that
// changes both. The TestConcurrent* prefix is what `make verify` runs
// under the race detector.

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"bvtree/internal/page"
)

func fillPattern(i, size int) []byte {
	blob := make([]byte, size)
	for j := range blob {
		blob[j] = byte(i*31 + j)
	}
	return blob
}

func TestConcurrentStoreReads(t *testing.T) {
	const nodes = 64
	cases := []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"mem", func(t *testing.T) Store { return NewMemStore() }},
		{"file", func(t *testing.T) Store {
			// Hundreds of small slots, read through the write set.
			fs, err := CreateFileStore(filepath.Join(t.TempDir(), "c.bv"), FileStoreOptions{SlotSize: 128})
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.open(t)
			defer st.Close()
			ids := make([]page.ID, nodes)
			want := make([][]byte, nodes)
			for i := range ids {
				id, err := st.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = id
				// Sizes from sub-slot to multi-slot chains.
				want[i] = fillPattern(i, 40+i*17)
				if err := st.WriteNode(id, want[i]); err != nil {
					t.Fatal(err)
				}
			}

			var (
				wg       sync.WaitGroup
				errMu    sync.Mutex
				firstErr error
			)
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for round := 0; round < 30; round++ {
						i := (g*13 + round*7) % nodes
						got, err := st.ReadNode(ids[i])
						if err == nil && !bytes.Equal(got, want[i]) {
							err = fmt.Errorf("node %d: got %d bytes, want %d", i, len(got), len(want[i]))
						}
						if err != nil {
							errMu.Lock()
							if firstErr == nil {
								firstErr = err
							}
							errMu.Unlock()
							return
						}
						_ = st.Stats()
					}
				}(g)
			}
			wg.Wait()
			if firstErr != nil {
				t.Fatal(firstErr)
			}
			st2 := st.Stats()
			if st2.NodeReads < 6*30 {
				t.Fatalf("NodeReads=%d, want at least %d", st2.NodeReads, 6*30)
			}
		})
	}
}

// TestConcurrentReadsBesideWrites races readers against a writer that
// moves slots between the write set and the file. Eight readers run
// ReadNode over random multi-slot chains while a writer
// grows and shrinks chains, frees nodes, allocates off the free list and
// Syncs every few steps, and every blob must match a MemStore model
// byte for byte, during the storm and again after a close and reopen.
func TestConcurrentReadsBesideWrites(t *testing.T) {
	const (
		nodes   = 96
		readers = 8
	)
	path := filepath.Join(t.TempDir(), "rw.bv")
	fs, err := CreateFileStore(path, FileStoreOptions{SlotSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { fs.Close() }()
	model := NewMemStore()
	// fileID[i] and memID[i] name logical node i in the store and in the
	// model; a freed node has fileID 0.
	fileID, memID := make([]page.ID, nodes), make([]page.ID, nodes)
	write := func(i int, blob []byte) {
		t.Helper()
		if err := fs.WriteNode(fileID[i], blob); err != nil {
			t.Fatal(err)
		}
		if err := model.WriteNode(memID[i], blob); err != nil {
			t.Fatal(err)
		}
	}
	alloc := func(i int) {
		t.Helper()
		var err error
		if fileID[i], err = fs.Alloc(); err != nil {
			t.Fatal(err)
		}
		if memID[i], err = model.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nodes; i++ {
		alloc(i)
		write(i, fillPattern(i, 20+(i*37)%600)) // one to six slots
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// mu orders the writer's store+model update against a reader's
	// read+compare; readers share it, so between writes they still race
	// each other, and a Sync races them all.
	var mu sync.RWMutex
	check := func(i int, got []byte) error {
		want, err := model.ReadNode(memID[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("node %d (page %d): read %d bytes that differ from the %d written", i, fileID[i], len(got), len(want))
		}
		return nil
	}
	readLoop := func(g, rounds int) error {
		rng := rand.New(rand.NewSource(int64(g)))
		for r := 0; r < rounds; r++ {
			mu.RLock()
			var err error
			for _, i := range rng.Perm(nodes)[:1+rng.Intn(12)] {
				if fileID[i] == 0 {
					continue
				}
				var got []byte
				if got, err = fs.ReadNode(fileID[i]); err == nil {
					err = check(i, got)
				}
				if err != nil {
					break
				}
			}
			mu.RUnlock()
			if err != nil {
				return err
			}
		}
		return nil
	}
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		go func(g int) { errs <- readLoop(g, 300) }(g)
	}
	rng := rand.New(rand.NewSource(99))
	syncs := 0
	for step := 0; step < 400; step++ {
		i := rng.Intn(nodes)
		mu.Lock()
		switch {
		case fileID[i] == 0:
			alloc(i) // off the free list
			write(i, fillPattern(step, 1+rng.Intn(700)))
		case rng.Intn(5) == 0:
			if err := fs.Free(fileID[i]); err != nil {
				t.Fatal(err)
			}
			if err := model.Free(memID[i]); err != nil {
				t.Fatal(err)
			}
			fileID[i] = 0
		default:
			write(i, fillPattern(step, 1+rng.Intn(700))) // grows or shrinks the chain
		}
		mu.Unlock()
		if step%16 == 0 {
			// Outside mu: the store lock alone orders a Sync against reads.
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			syncs++
		}
	}
	for g := 0; g < readers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if fs, err = OpenFileStore(path, FileStoreOptions{}); err != nil {
		t.Fatal(err)
	}
	live := 0
	for i := 0; i < nodes; i++ {
		if fileID[i] == 0 {
			continue
		}
		live++
		got, err := fs.ReadNode(fileID[i])
		if err == nil {
			err = check(i, got)
		}
		if err != nil {
			t.Fatalf("after reopen: %v", err)
		}
	}
	if live == 0 || live == nodes || syncs == 0 {
		t.Fatalf("%d of %d nodes live after %d syncs: the script freed nothing or everything, or never synced", live, nodes, syncs)
	}
}
