package bvtree

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/storage"
)

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Dims: 0},
		{Dims: 99},
		{Dims: 2, DataCapacity: 2},
		{Dims: 2, Fanout: 2},
	}
	for i, o := range bad {
		if _, err := New(o); err == nil {
			t.Fatalf("options %d accepted: %+v", i, o)
		}
	}
	tr, err := New(Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := tr.Options()
	if o.DataCapacity == 0 || o.Fanout == 0 {
		t.Fatalf("defaults not filled: %+v", o)
	}
}

func TestPartialMatchAgainstBruteForce(t *testing.T) {
	tr, err := New(Options{Dims: 3, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	// Use a small discrete domain so partial matches actually hit.
	var pts []geometry.Point
	for i := 0; i < 3000; i++ {
		p := geometry.Point{
			uint64(rng.Intn(8)) << 60,
			uint64(rng.Intn(8)) << 60,
			uint64(rng.Intn(8)) << 60,
		}
		pts = append(pts, p)
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 30; trial++ {
		val := geometry.Point{
			uint64(rng.Intn(8)) << 60,
			uint64(rng.Intn(8)) << 60,
			uint64(rng.Intn(8)) << 60,
		}
		spec := []bool{rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0}
		want := 0
		for _, p := range pts {
			ok := true
			for d := 0; d < 3; d++ {
				if spec[d] && p[d] != val[d] {
					ok = false
				}
			}
			if ok {
				want++
			}
		}
		got := 0
		err := tr.PartialMatch(val, spec, func(geometry.Point, uint64) bool { got++; return true })
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d spec %v: got %d want %d", trial, spec, got, want)
		}
	}
	// Shape mismatch rejected.
	if err := tr.PartialMatch(geometry.Point{1}, []bool{true}, nil); err == nil {
		t.Fatal("bad shape accepted")
	}
}

func TestScanAndCount(t *testing.T) {
	tr, _ := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(randPoint(rng, 2), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := tr.Scan(func(geometry.Point, uint64) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("scan visited %d", n)
	}
	c, err := tr.Count(geometry.UniverseRect(2))
	if err != nil || c != 1000 {
		t.Fatalf("count %d err %v", c, err)
	}
	// Early stop.
	n = 0
	_ = tr.Scan(func(geometry.Point, uint64) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
	// Dim mismatch.
	if err := tr.RangeQuery(geometry.UniverseRect(3), nil); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestOccupancyGuaranteeInsertOnly(t *testing.T) {
	// The paper's headline: after any insert-only load, every data page
	// holds at least a third of capacity and every non-root index node at
	// least a third of fan-out.
	configs := []struct {
		gen  func(*rand.Rand, int) geometry.Point
		name string
	}{
		{randPoint, "uniform"},
		{clusteredPoint, "clustered"},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			tr, err := New(Options{Dims: 2, DataCapacity: 12, Fanout: 12})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(33))
			for i := 0; i < 20000; i++ {
				if err := tr.Insert(cfg.gen(rng, 2), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			st, err := tr.CollectStats()
			if err != nil {
				t.Fatal(err)
			}
			if st.DataMinItems*3 < tr.Options().DataCapacity {
				t.Fatalf("data page with %d/%d items: below the 1/3 guarantee",
					st.DataMinItems, tr.Options().DataCapacity)
			}
			for lvl, ls := range st.IndexLevels {
				if lvl == st.Height {
					continue // the root is exempt, as in the B-tree
				}
				if ls.MinEntries*3 < tr.Options().Fanout {
					t.Fatalf("%s: index node at level %d with %d/%d entries",
						cfg.name, lvl, ls.MinEntries, tr.Options().Fanout)
				}
			}
		})
	}
}

func TestSearchCostFixedPath(t *testing.T) {
	tr, _ := New(Options{Dims: 2, DataCapacity: 6, Fanout: 6})
	rng := rand.New(rand.NewSource(44))
	var pts []geometry.Point
	for i := 0; i < 8000; i++ {
		p := clusteredPoint(rng, 2)
		pts = append(pts, p)
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	h := tr.Height()
	for _, p := range pts[:500] {
		nodes, guards, err := tr.SearchCost(p)
		if err != nil {
			t.Fatal(err)
		}
		if nodes != h+1 {
			t.Fatalf("search visited %d nodes, height+1 = %d", nodes, h+1)
		}
		if guards > h-1 {
			t.Fatalf("guard set %d exceeds bound %d", guards, h-1)
		}
	}
}

func TestDumpRendersGuards(t *testing.T) {
	tr, _ := New(Options{Dims: 2, DataCapacity: 4, Fanout: 4})
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(clusteredPoint(rng, 2), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := tr.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "node") || !strings.Contains(out, "data") {
		t.Fatal("dump lacks structure")
	}
	st, _ := tr.CollectStats()
	if st.TotalGuards > 0 && !strings.Contains(out, "[guard]") {
		t.Fatal("guards present but not rendered")
	}
}

func TestLookupMissing(t *testing.T) {
	tr, _ := New(Options{Dims: 2})
	if got, err := tr.Lookup(geometry.Point{1, 2}); err != nil || len(got) != 0 {
		t.Fatalf("empty tree lookup: %v %v", got, err)
	}
	if err := tr.Insert(geometry.Point{1, 2}, 7); err != nil {
		t.Fatal(err)
	}
	if ok, _ := tr.Contains(geometry.Point{1, 2}); !ok {
		t.Fatal("inserted point missing")
	}
	if ok, _ := tr.Contains(geometry.Point{1, 3}); ok {
		t.Fatal("phantom point")
	}
	if ok, _ := tr.Delete(geometry.Point{9, 9}, 0); ok {
		t.Fatal("delete of absent point succeeded")
	}
	// Dim mismatch surfaces as an error.
	if _, err := tr.Lookup(geometry.Point{1}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestDuplicatePointsAccumulate(t *testing.T) {
	tr, _ := New(Options{Dims: 2, DataCapacity: 4, Fanout: 4})
	p := geometry.Point{5, 6}
	for i := uint64(0); i < 3; i++ {
		if err := tr.Insert(p, i); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := tr.Lookup(p)
	if len(got) != 3 {
		t.Fatalf("lookup returned %d payloads", len(got))
	}
	if ok, _ := tr.Delete(p, 1); !ok {
		t.Fatal("delete of one duplicate failed")
	}
	got, _ = tr.Lookup(p)
	if len(got) != 2 {
		t.Fatalf("after delete: %d payloads", len(got))
	}
}

func TestSoftOverflowOnPureDuplicates(t *testing.T) {
	tr, _ := New(Options{Dims: 2, DataCapacity: 4, Fanout: 4})
	p := geometry.Point{42, 42}
	for i := uint64(0); i < 20; i++ {
		if err := tr.Insert(p, i); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats().SoftOverflows == 0 {
		t.Fatal("identical points must trigger the soft-overflow path")
	}
	got, _ := tr.Lookup(p)
	if len(got) != 20 {
		t.Fatalf("lookup returned %d of 20 duplicates", len(got))
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}

	// Identical points cannot be split whatever the page size, so in a
	// FileStore their data page outgrows its slot and is stored as a
	// chain of slots: a P sized to the slot does not make chains go away.
	path := filepath.Join(t.TempDir(), "dup.db")
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := Open(st, nil, Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	const copies = 1000
	for i := uint64(0); i < copies; i++ {
		if err := ft.Insert(p, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := ft.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = storage.OpenFileStore(path, storage.FileStoreOptions{}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	before := st.Stats()
	if ft, err = Open(st, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if got, err = ft.Lookup(p); err != nil || len(got) != copies {
		t.Fatalf("reopened FileStore: lookup returned %d of %d duplicates (%v)", len(got), copies, err)
	}
	d := st.Stats().Sub(before)
	t.Logf("reopened FileStore: %d slot reads for %d node reads", d.SlotReads, d.NodeReads)
	if d.SlotReads <= d.NodeReads {
		t.Fatal("reopened FileStore: no chained page")
	}
}
