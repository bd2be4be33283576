package bvtree_test

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"bvtree"
	"bvtree/internal/workload"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	tr, err := bvtree.New(bvtree.Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(workload.Clustered, 2, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 5000 {
		t.Fatalf("Len=%d", tr.Len())
	}
	if ok, _ := tr.Contains(pts[42]); !ok {
		t.Fatal("Contains failed")
	}
	nbrs, err := tr.Nearest(pts[0], 3)
	if err != nil || len(nbrs) != 3 || nbrs[0].Dist != 0 {
		t.Fatalf("Nearest: %v %v", nbrs, err)
	}
	rect := bvtree.UniverseRect(2)
	n, err := tr.Count(rect)
	if err != nil || n != 5000 {
		t.Fatalf("Count=%d err=%v", n, err)
	}
	st, err := tr.CollectStats()
	if err != nil || st.Items != 5000 {
		t.Fatalf("stats: %+v %v", st, err)
	}
	if _, err := tr.Maintain(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "api.db")
	st, err := bvtree.OpenFileStore(path, bvtree.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := bvtree.Open(st, nil, bvtree.Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := bvtree.Point{
		bvtree.NormalizeFloat(48.14, -90, 90),
		bvtree.NormalizeFloat(11.58, -180, 180),
	}
	if err := tr.Insert(p, 7); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := bvtree.OpenFileStore(path, bvtree.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	re, err := bvtree.Open(st2, nil, bvtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Lookup(p)
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("reopened lookup: %v %v", got, err)
	}
	// Round-trip of the float normalisation used above.
	back := bvtree.DenormalizeFloat(p[0], -90, 90)
	if back < 48.13 || back > 48.15 {
		t.Fatalf("denormalize: %v", back)
	}
}

// TestConcurrentReadersAndWriters exercises the tree's thread safety:
// run with -race to verify. Writers insert disjoint ID ranges while
// readers run lookups, range queries and kNN concurrently.
func TestConcurrentReadersAndWriters(t *testing.T) {
	tr, err := bvtree.New(bvtree.Options{Dims: 2, DataCapacity: 16, Fanout: 16})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(workload.Uniform, 2, 8000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts[:2000] {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 2000 + w; i < len(pts); i += 3 {
				if err := tr.Insert(pts[i], uint64(i)); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for r := 0; r < 3; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < 500; i++ {
				switch i % 3 {
				case 0:
					if _, err := tr.Lookup(pts[rng.Intn(2000)]); err != nil {
						errCh <- err
						return
					}
				case 1:
					if _, err := tr.Nearest(pts[rng.Intn(2000)], 3); err != nil {
						errCh <- err
						return
					}
				default:
					rects := workload.QueryRects(2, 1, 0.01, uint64(i))
					if _, err := tr.Count(rects[0]); err != nil {
						errCh <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if tr.Len() != len(pts) {
		t.Fatalf("Len=%d want %d", tr.Len(), len(pts))
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInsertLookup is a property test over arbitrary point sets: for
// any batch of random points, every inserted point is found with its
// payload and the structural invariants hold.
func TestQuickInsertLookup(t *testing.T) {
	f := func(coords []uint64) bool {
		tr, err := bvtree.New(bvtree.Options{Dims: 2, DataCapacity: 4, Fanout: 4})
		if err != nil {
			return false
		}
		n := len(coords) / 2
		for i := 0; i < n; i++ {
			p := bvtree.Point{coords[2*i], coords[2*i+1]}
			if err := tr.Insert(p, uint64(i)); err != nil {
				return false
			}
		}
		for i := 0; i < n; i++ {
			p := bvtree.Point{coords[2*i], coords[2*i+1]}
			got, err := tr.Lookup(p)
			if err != nil {
				return false
			}
			found := false
			for _, v := range got {
				if v == uint64(i) {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return tr.Validate(true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
