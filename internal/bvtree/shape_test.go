package bvtree

import (
	"fmt"
	"path/filepath"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/region"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// TestDefaultDataCapacityFitsOneSlot: a tree created in a store with
// slots sizes P to the slot. The derived P is the largest whose
// worst-case page fits one slot's payload; a default tree built in a
// FileStore records it, reads each node of a cold scan in one slot and
// keeps the 1/3 data-page floor; a store without slots, and a store
// written with another P, keep theirs.
func TestDefaultDataCapacityFitsOneSlot(t *testing.T) {
	t.Run("bound", func(t *testing.T) {
		for _, slot := range []int{512, 4096, 8192} {
			st, err := storage.OpenFileStore(filepath.Join(t.TempDir(), "t.db"), storage.FileStoreOptions{SlotSize: slot})
			if err != nil {
				t.Fatal(err)
			}
			payload := st.SlotPayload()
			st.Close()
			if payload != slot-12 {
				t.Fatalf("slot %d: SlotPayload %d, want %d", slot, payload, slot-12)
			}
			for _, dims := range []int{1, 2, 3, 4, 8} {
				p := page.DataCapacityFor(payload, dims)
				if p <= 4 {
					t.Fatalf("slot %d dims %d: P = %d, at its floor", slot, dims, p)
				}
				if n := worstDataPage(t, dims, p); n > payload {
					t.Fatalf("slot %d dims %d: a worst-case page of P = %d items encodes to %d bytes, over the %d-byte payload", slot, dims, p, n, payload)
				}
				if n := worstDataPage(t, dims, p+1); n <= payload {
					t.Fatalf("slot %d dims %d: a worst-case page of P+1 = %d items encodes to %d bytes, within the %d-byte payload", slot, dims, p+1, n, payload)
				}
			}
		}
		for dims, want := range map[int]int{2: 168, 3: 126, 4: 100, 8: 55} {
			if got := page.DataCapacityFor(4084, dims); got != want {
				t.Fatalf("dims %d: P = %d in the default slot, want %d", dims, got, want)
			}
		}
	})

	for _, dims := range []int{2, 3, 4, 8} {
		for _, kind := range []workload.Kind{workload.Clustered, workload.Uniform} {
			t.Run(fmt.Sprintf("%s-%dd", kind, dims), func(t *testing.T) {
				defaultShapeTree(t, kind, dims)
			})
		}
	}

	t.Run("no-slot", func(t *testing.T) {
		tr, err := New(Options{Dims: 2})
		if err != nil {
			t.Fatal(err)
		}
		if tr.opt.DataCapacity != 32 {
			t.Fatalf("New: P = %d, want 32", tr.opt.DataCapacity)
		}
	})

	t.Run("reopen-keeps-P", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "t.db")
		st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Open(st, nil, Options{Dims: 2, DataCapacity: 32})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(geometry.Point{1, 2}, 3); err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = storage.OpenFileStore(path, storage.FileStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		re, err := Open(st, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if re.opt.DataCapacity != 32 || re.Len() != 1 {
			t.Fatalf("reopened with P = %d and %d items, want 32 and 1", re.opt.DataCapacity, re.Len())
		}
	})
}

// worstDataPage returns the encoded size of a data page of n items
// under the longest region key a dims-dimensional tree forms.
func worstDataPage(t *testing.T, dims, n int) int {
	t.Helper()
	words := make([]uint64, dims)
	for i := range words {
		words[i] = ^uint64(0)
	}
	key, err := region.OwnWords(words, 64*dims)
	if err != nil {
		t.Fatal(err)
	}
	dp := page.NewDataPage(key, dims)
	pt := make(geometry.Point, dims)
	for i := 0; i < n; i++ {
		dp.Insert(pt, uint64(i))
	}
	return len(page.EncodeData(dp, dims))
}

// defaultShapeTree builds 20k points of kind into a default-shaped
// FileStore tree and checks its shape: the meta record holds the
// derived P, a cold scan reads one slot per node, and every data page
// but a lone root is at least a third full.
func defaultShapeTree(t *testing.T, kind workload.Kind, dims int) {
	path := filepath.Join(t.TempDir(), "t.db")
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(st, nil, Options{Dims: dims})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(kind, dims, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	blob, err := st.ReadNode(metaPageID)
	if err != nil {
		t.Fatal(err)
	}
	m, err := page.DecodeMeta(blob)
	if err != nil {
		t.Fatal(err)
	}
	if want := page.DataCapacityFor(st.SlotPayload(), dims); m.DataCapacity != want || m.Fanout != 16 {
		t.Fatalf("meta records P = %d, F = %d; want P = %d, F = 16", m.DataCapacity, m.Fanout, want)
	}
	re, err := Open(st, nil, Options{CacheNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	s0 := st.Stats()
	n := 0
	if err := re.Scan(func(geometry.Point, uint64) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	s := st.Stats().Sub(s0)
	if n != len(pts) || s.NodeReads == 0 || s.SlotReads != s.NodeReads {
		t.Fatalf("cold scan: %d of %d items, %d node reads in %d slot reads; want one slot a node",
			n, len(pts), s.NodeReads, s.SlotReads)
	}
	ts, err := re.CollectStats()
	if err != nil {
		t.Fatal(err)
	}
	if ts.DataPages > 1 && ts.DataMinOcc < 1.0/3 {
		t.Fatalf("data occupancy %.3f, below 1/3 (P = %d, %d pages)", ts.DataMinOcc, m.DataCapacity, ts.DataPages)
	}
}
