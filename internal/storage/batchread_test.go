package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"bvtree/internal/page"
)

// TestBatchReadNodesMatchesReadNode checks the batch seam against the
// point-read path on both stores, over blobs spanning one to many slots
// (the file store chains slots for large nodes) and over shuffled,
// duplicated ID lists.
func TestBatchReadNodesMatchesReadNode(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			br, ok := st.(BatchReader)
			if !ok {
				t.Fatalf("%T does not implement BatchReader", st)
			}
			rng := rand.New(rand.NewSource(91))
			var ids []page.ID
			want := map[page.ID][]byte{}
			for i := 0; i < 64; i++ {
				id, err := st.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				blob := make([]byte, 1+rng.Intn(1500)) // 256-byte slots: up to ~7-slot chains
				rng.Read(blob)
				if err := st.WriteNode(id, blob); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
				want[id] = blob
			}
			// Shuffled order with duplicates: the batch must return blobs
			// positionally, not as a set.
			req := append([]page.ID{}, ids...)
			rng.Shuffle(len(req), func(i, j int) { req[i], req[j] = req[j], req[i] })
			req = append(req, req[0], req[1])
			got, err := br.ReadNodes(req)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(req) {
				t.Fatalf("got %d blobs for %d ids", len(got), len(req))
			}
			for i, id := range req {
				if !bytes.Equal(got[i], want[id]) {
					t.Fatalf("blob %d (page %d) mismatch: %d vs %d bytes", i, id, len(got[i]), len(want[id]))
				}
			}
			// An unallocated ID fails the whole batch.
			if _, err := br.ReadNodes([]page.ID{ids[0], page.ID(1 << 40)}); err == nil {
				t.Fatal("batch read of unallocated page succeeded")
			}
			if s := st.Stats(); s.BatchReads == 0 {
				t.Fatal("BatchReads counter not advanced")
			}
		})
	}
}

// TestBatchReadCoalesces pins the point of the seam: reading N physically
// adjacent single-slot nodes through ReadNodes must cost far fewer
// physical reads than N point reads of the same (cold) pages.
func TestBatchReadCoalesces(t *testing.T) {
	open := func(t *testing.T) (*FileStore, []page.ID) {
		path := filepath.Join(t.TempDir(), "c.db")
		fs, err := CreateFileStore(path, FileStoreOptions{SlotSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		var ids []page.ID
		for i := 0; i < 48; i++ {
			id, err := fs.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteNode(id, []byte(fmt.Sprintf("node-%d", i))); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopen with an empty write set, so every read reaches the file.
		fs, err = OpenFileStore(path, FileStoreOptions{SlotSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		return fs, ids
	}

	fs, ids := open(t)
	before := fs.Stats()
	for _, id := range ids {
		if _, err := fs.ReadNode(id); err != nil {
			t.Fatal(err)
		}
	}
	point := fs.Stats().Sub(before).SlotReads

	fs, ids = open(t)
	before = fs.Stats()
	if _, err := fs.ReadNodes(ids); err != nil {
		t.Fatal(err)
	}
	batched := fs.Stats().Sub(before).SlotReads

	if point != uint64(len(ids)) {
		t.Fatalf("point reads issued %d physical reads for %d cold pages", point, len(ids))
	}
	// 48 consecutive cold slots are one run.
	if batched != 1 {
		t.Fatalf("batched read issued %d physical reads vs %d point reads: no coalescing", batched, point)
	}
}

// TestConcurrentBatchAndPointReads races ReadNodes and ReadNode against
// each other on one file store, half its slots in the write set and half
// in the file; the race detector (make verify runs the TestConcurrent*
// subset with -race) checks that readers share both without a latch.
func TestConcurrentBatchAndPointReads(t *testing.T) {
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "r.db"), FileStoreOptions{SlotSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var ids []page.ID
	for i := 0; i < 40; i++ {
		id, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteNode(id, bytes.Repeat([]byte{byte(i)}, 100+i)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if len(ids) == 20 {
			// The first half reaches the file; the second stays written.
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				switch g % 2 {
				case 0:
					if _, err := fs.ReadNodes(ids); err != nil {
						done <- err
						return
					}
				default:
					id := ids[rng.Intn(len(ids))]
					blob, err := fs.ReadNode(id)
					if err != nil {
						done <- err
						return
					}
					if len(blob) == 0 || blob[0] != byte(id-ids[0]) {
						done <- fmt.Errorf("page %d returned wrong blob", id)
						return
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
