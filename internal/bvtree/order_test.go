package bvtree

// A data page keeps its items in first-coordinate order, duplicates in
// the order they were inserted (page.DataCols). These tests pin what the
// tree makes of that: a Lookup's payloads come back in insertion order
// through splits and a reopen, Validate refuses a page out of order, a
// one-item window tests a few rows of each page it scans rather than
// the page's fill, and an insert that does not split allocates only its
// address.

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// TestLookupReturnsInsertionOrder inserts one point k times, its
// payloads falling so that no sort of them gives the insertion order,
// between items of the same first coordinate and of others. A Lookup of
// it returns the payloads in insertion order while the root is one data
// page, after the page has split many times, and after a reopen.
func TestLookupReturnsInsertionOrder(t *testing.T) {
	pts, err := workload.Generate(workload.Clustered, 2, 600, 54)
	if err != nil {
		t.Fatal(err)
	}
	p := geometry.Point{pts[0][0], pts[0][1]}
	beside := geometry.Point{p[0], p[1] ^ 1} // the same first coordinate
	path := filepath.Join(t.TempDir(), "t.db")
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(st, nil, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	var want []uint64
	for i := 0; i < k; i++ {
		want = append(want, uint64(100-10*i))
		for _, it := range []struct {
			pt      geometry.Point
			payload uint64
		}{{pts[1+i], uint64(1 + i)}, {p, want[i]}} {
			if err := tr.Insert(it.pt, it.payload); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 0 {
			if err := tr.Insert(beside, uint64(50+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when string, tr *Tree) {
		t.Helper()
		got, err := tr.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Lookup gives %v, inserted %v", when, got, want)
		}
		if err := tr.Validate(false); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	if tr.rootLevel != 0 {
		t.Fatalf("%d items split the root page of capacity 8", tr.Len())
	}
	check("one data page", tr)
	for i, q := range pts[1+k:] {
		if err := tr.Insert(q, uint64(1+k+i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats().DataSplits < 50 {
		t.Fatalf("%d data splits: the tree should have split its pages many times", tr.Stats().DataSplits)
	}
	check("after the splits", tr)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = storage.OpenFileStore(path, storage.FileStoreOptions{}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	re, err := Open(st, nil, Options{CacheNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	check("after a reopen", re)
}

// TestValidateRefusesUnorderedPage: Validate reports a data page whose
// rows were put out of first-coordinate order in memory, where no
// decode checks them. The test moves a page's first item behind the
// others with the split's edit, MoveTo.
func TestValidateRefusesUnorderedPage(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := buildTree(t, pts)
	if err := tr.Validate(false); err != nil {
		t.Fatal(err)
	}
	for _, id := range dataPageIDs(t, tr) {
		dp, err := tr.wData(id)
		if err != nil {
			t.Fatal(err)
		}
		if dp.Len() < 2 || dp.Item(0).Point[0] == dp.Item(1).Point[0] {
			continue
		}
		// Items 1.. to a spare page, then item 0 after them, then all
		// back: the page holds item 0 last.
		spare := page.NewDataPage(dp.Region, 2)
		dp.MoveTo(spare, func(i int) bool { return i > 0 })
		dp.MoveTo(spare, func(int) bool { return true })
		spare.MoveTo(dp, func(int) bool { return true })
		if err := tr.paged.SaveData(id, dp); err != nil {
			t.Fatal(err)
		}
		err = tr.Validate(false)
		if err == nil || !strings.Contains(err.Error(), "first coordinate") {
			t.Fatalf("Validate of a tree whose data page %d is out of order: %v, want an error naming the first coordinate", id, err)
		}
		return
	}
	t.Fatal("no data page holds two items of distinct first coordinates")
}

// tinyHalf is the half side of the benchmark's range-tiny windows: half
// of 1e-10 of the domain side.
const tinyHalf uint64 = 922_337_203

// tinyWindows returns count squares of half side tinyHalf, each centred
// on a point drawn from pts and holding that point alone, as the
// benchmark's range-tiny windows do.
func tinyWindows(pts []geometry.Point, count int, rng *rand.Rand) []geometry.Rect {
	var out []geometry.Rect
	for len(out) < count {
		c := pts[rng.Intn(len(pts))]
		w := geometry.UniverseRect(len(c))
		for d := range c {
			w.Min[d] = c[d] - min(c[d], tinyHalf)
			w.Max[d] = c[d] + min(math.MaxUint64-c[d], tinyHalf)
		}
		in := 0
		for _, p := range pts {
			if w.Contains(p) {
				in++
			}
		}
		if in == 1 {
			out = append(out, w)
		}
	}
	return out
}

// TestTinyWindowsTestFewRows: on a default-shape tree of 100k clustered
// points, 256 one-item windows like range-tiny's test at most a few rows
// per window, where a pass over every row of the pages they scan would
// test a page's fill, about 120 rows. The count is the walk's own and
// repeats exactly.
func TestTinyWindowsTestFewRows(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-point tree")
	}
	pts, err := workload.Generate(workload.Clustered, 2, 100_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.OpenFileStore(filepath.Join(t.TempDir(), "t.db"), storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr, err := Open(st, nil, Options{Dims: 2, CacheNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]BatchOp, len(pts))
	for i, p := range pts {
		ops[i] = BatchOp{Point: p, Payload: uint64(i)}
	}
	if err := tr.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	defer snap.Release()
	v := &snap.v
	fill := &countingData{NodeStore: v.st}
	v.st = fill
	wins := tinyWindows(pts, 256, rand.New(rand.NewSource(1)))
	rows := 0
	for _, win := range wins {
		w := &rangeWalker{v: v, rect: win}
		got := 0
		if err := w.drive(rangeTask{id: v.root}, func(geometry.Point, uint64) bool { got++; return true }); err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Fatalf("window %v: %d items, want 1", win, got)
		}
		rows += w.rows
	}
	n := float64(len(wins))
	t.Logf("%d windows: %.2f rows tested per window; the %.2f data pages scanned per window hold %.1f items",
		len(wins), float64(rows)/n, float64(fill.pages)/n, float64(fill.items)/n)
	if perWindow := float64(rows) / n; perWindow > 3 {
		t.Fatalf("%.2f rows tested per one-item window, want at most 3", perWindow)
	}
}

// TestInsertWithoutSplitAllocs pins what an Insert that does not split
// allocates on a tree without a log: once, for the point's address. The
// physical parents a split needs are recorded only when the page
// overflows, so no map of them is made or filled. The inserts are
// copies of one point into a page with room for all of them.
func TestInsertWithoutSplitAllocs(t *testing.T) {
	skipUnderRace(t)
	const runs = 16
	pts, err := workload.Generate(workload.Uniform, 2, 4000, 33)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Options{Dims: 2, DataCapacity: 64, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var p geometry.Point
	for _, id := range dataPageIDs(t, tr) {
		if dp, err := tr.fetchData(id); err != nil {
			t.Fatal(err)
		} else if dp.Len()+runs+1 <= tr.opt.DataCapacity {
			p = dp.Item(0).Point
			break
		}
	}
	if p == nil {
		t.Fatalf("no data page has room for %d more items", runs+1)
	}
	splits := tr.Stats().DataSplits
	allocs := testing.AllocsPerRun(runs, func() {
		if err := tr.Insert(p, 1<<40); err != nil {
			t.Fatal(err)
		}
	})
	if got := tr.Stats().DataSplits; got != splits {
		t.Fatalf("the inserts split %d pages", got-splits)
	}
	t.Logf("an Insert that does not split: %.1f allocs", allocs)
	if allocs > 1 {
		t.Fatalf("an Insert that does not split allocates %.1f times, want 1 (the address)", allocs)
	}
}
