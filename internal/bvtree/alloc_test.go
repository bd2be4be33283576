package bvtree

// Allocation guards for the read hot path. The range walk must not
// allocate per visited node (the old walk copied every node's entry
// slice and materialised a brick per entry), and exact-match lookups must
// stay within a small constant allocation budget. Guards use
// testing.AllocsPerRun so a regression fails `go test`, not just a
// benchmark eyeball.

import (
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

func buildAllocTree(tb testing.TB, n int) (*Tree, []geometry.Point) {
	tb.Helper()
	pts, err := workload.Generate(workload.Uniform, 2, n, 33)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := New(Options{Dims: 2, DataCapacity: 16, Fanout: 8})
	if err != nil {
		tb.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return tr, pts
}

// skipUnderRace skips an exact allocation count in race builds. The race
// detector makes sync.Pool drop a share of its Puts, so a pooled descent,
// walker or slot buffer is allocated again: exact counts hold in normal
// builds only.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceBuild {
		t.Skip("sync.Pool drops Puts under the race detector: exact allocation counts hold in normal builds only")
	}
}

func TestLookupAllocs(t *testing.T) {
	tr, pts := buildAllocTree(t, 4000)
	p := pts[1234]
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := tr.Lookup(p); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: the result slice, the interleaved address, and small
	// per-address scratch. The descent itself is pooled.
	if allocs > 8 {
		t.Fatalf("Lookup allocates %.1f allocs/op, budget 8", allocs)
	}
}

// TestLookupDoesNotAllocate pins both halves of the instrumentation
// contract: with metrics off, Lookup's allocation count is the
// uninstrumented baseline (the disabled path is one nil check — no clock
// reads, no recording); and enabling the histograms adds exactly zero
// allocations on top, because Observe is three atomic adds.
func TestLookupDoesNotAllocate(t *testing.T) {
	skipUnderRace(t)
	tr, pts := buildAllocTree(t, 4000)
	p := pts[2345]
	measure := func() float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := tr.Lookup(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := measure()
	tr.EnableMetrics()
	on := measure()
	if on != off {
		t.Fatalf("instrumentation changed Lookup allocations: %.1f -> %.1f allocs/op, want equal", off, on)
	}
	if tr.Metrics().Tree.LookupNs.Count == 0 {
		t.Fatal("lookup histogram saw no lookups while enabled")
	}
}

// buildPagedFileTree loads n clustered points into a paged tree over a
// FileStore in a test directory and flushes it. The caches of the handles
// it returns hold the whole tree.
func buildPagedFileTree(t *testing.T, n int) (*Tree, *storage.FileStore, string, []geometry.Point) {
	t.Helper()
	pts, err := workload.Generate(workload.Clustered, 2, n, 33)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tree.db")
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	tr, err := Open(st, nil, Options{Dims: 2, DataCapacity: 16, Fanout: 8})
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
	return tr, st, path, pts
}

// TestPagedLookupAllocs pins how many of a Lookup's allocations are the
// tree's own, on a fully cached paged tree over a FileStore, tall enough
// for descents to merge guards: the interleaved address, whose words the
// point's key takes over, and the result slice — exactly two, whatever the
// height and however many guards the descent collects (the guard set is a
// by-value slice on the pooled descent). A cold Lookup that scans its
// data page in scratch, as every miss of a page that did not miss
// recently does, makes the same two (the cold arm); a miss that admits
// the page allocates it as well, which TestColdMissAllocBudget bounds.
func TestPagedLookupAllocs(t *testing.T) {
	skipUnderRace(t)
	tr, st, path, pts := buildPagedFileTree(t, 4000)
	if h := tr.Height(); h != 4 {
		t.Fatalf("tree height %d, want 4", h)
	}
	guarded := 0
	for _, p := range pts[:200] {
		if _, g, err := tr.SearchCost(p); err != nil {
			t.Fatal(err)
		} else if g > 0 {
			guarded++
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := tr.Lookup(p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Fatalf("Lookup(%v) allocates %.1f allocs/op, want exactly 2", p, allocs)
		}
	}
	if guarded == 0 {
		t.Fatal("no sampled descent carried a guard: the test does not exercise the guard set")
	}

	// The cold arm: reopened with room for the index and little more, so
	// each shard's record of misses is 8 pages. A first pass misses every
	// data page but those measured once, which fills every record; then
	// each measured Lookup misses a page that never missed, scans it in
	// scratch and admits nothing; their descents have brought the index
	// nodes they pass in beforehand. The measured pages go largest first, so
	// the warm-up run grows the scratch slab to its last size.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cold, err := Open(st, nil, Options{CacheNodes: 128})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 60
	type target struct {
		p geometry.Point
		n int
	}
	var fill, measured []target
	for _, id := range dataPageIDs(t, cold) {
		dp, err := cold.paged.decodeDataInto(id, mustRead(t, st, id), nil)
		if err != nil {
			t.Fatal(err)
		}
		p := dp.Item(0).Point
		if len(cold.payloadsAt(dp, p)) != 1 {
			continue // a duplicated point: its result grows twice
		}
		if len(measured) <= runs && id%2 == 0 {
			measured = append(measured, target{p, dp.Len()})
		} else {
			fill = append(fill, target{p, dp.Len()})
		}
	}
	if len(measured) <= runs || len(fill) < 8*cacheShards*2 {
		t.Fatalf("%d pages to measure and %d to fill the records with: too few", len(measured), len(fill))
	}
	slices.SortStableFunc(measured, func(a, b target) int { return b.n - a.n })
	for _, f := range fill {
		if _, err := cold.Lookup(f.p); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range measured {
		descendTo(t, cold, m.p)
	}
	for i := range cold.paged.shards {
		if r := &cold.paged.shards[i].missed; len(r.ids) != 128/cacheShards {
			t.Fatalf("shard %d recorded %d misses after the first pass, want a full record of %d", i, len(r.ids), 128/cacheShards)
		}
	}
	before := cold.Metrics().Cache
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := cold.Lookup(measured[i].p); err != nil {
			t.Fatal(err)
		}
		i++
	})
	after := cold.Metrics().Cache
	if reads := after.DataReads - before.DataReads; reads != runs+1 || after.Nodes != before.Nodes {
		t.Fatalf("%d cold Lookups read %d data pages and the cache went from %d to %d nodes: not every one scanned in scratch", runs+1, reads, before.Nodes, after.Nodes)
	}
	if allocs != 2 {
		t.Fatalf("a cold Lookup scanned in scratch allocates %.1f allocs/op, want exactly 2", allocs)
	}
}

// mustRead returns page id's blob as st stores it.
func mustRead(t *testing.T, st storage.Store, id page.ID) []byte {
	t.Helper()
	blob, err := st.ReadNode(id)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestMissRingIsLazy: the record of Lookup misses grows only with the
// misses it records. A tree whose 1<<20-node cache holds every node its
// Lookups reach records none, so no shard holds a ring, and a reopened
// tree that misses holds at most cap/cacheShards pages a shard.
func TestMissRingIsLazy(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(storage.NewMemStore(), nil, Options{Dims: 2, DataCapacity: 16, Fanout: 8, CacheNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pts {
		if _, err := tr.Lookup(p); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Metrics().Cache.DataReads != 0 {
		t.Fatal("the warm tree's Lookups read data pages from the store")
	}
	for i := range tr.paged.shards {
		if r := &tr.paged.shards[i].missed; r.ids != nil || r.set != nil {
			t.Fatalf("shard %d holds a ring of %d and a set of %d slots with no miss", i, cap(r.ids), len(r.set))
		}
	}

	re, _, _ := reopenedFileTree(t, pts, Options{DataCapacity: 16, Fanout: 8}, 256)
	for _, p := range pts {
		if _, err := re.Lookup(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := range re.paged.shards {
		if r := &re.paged.shards[i].missed; len(r.ids) > 256/cacheShards || len(r.set) > 4*256/cacheShards {
			t.Fatalf("shard %d records %d misses in a set of %d slots, bound %d", i, len(r.ids), len(r.set), 256/cacheShards)
		}
	}
}

// TestColdMissAllocBudget bounds what bringing one stored page in costs
// when neither cache holds it and the page is kept: every index miss, and
// a Lookup's second recent miss of a data page. A page is decoded
// straight into its columns, which the node embeds, and builds nothing
// else. An index node: the node, its region key (none for the empty
// region many nodes keep) and the columns' two arenas — four at most. A
// data page: the page, its region key and the one slab that holds its
// rows — three. There is no blob on either list: the store lends the
// pooled slot buffer it read the page into, and the decoder reads it
// there (storage.Lender). A data page a reader borrows and does not keep
// costs nothing: a range walk that reads a cold data page, decoded into
// pooled scratch, makes exactly the allocations it makes over the cached
// page (and so does a Lookup's first miss: TestPagedLookupAllocs).
func TestColdMissAllocBudget(t *testing.T) {
	skipUnderRace(t)
	tr, st, path, _ := buildPagedFileTree(t, 4000)
	root := tr.root
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pn := newPagedNodes(st, 2, 16)

	// Every page of the tree by kind, read the way a miss reads them.
	var index, data []page.ID
	for todo := []page.ID{root}; len(todo) > 0; {
		id := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		n, err := pn.readIndex(id)
		if err != nil {
			t.Fatal(err)
		}
		index = append(index, id)
		for _, e := range n.ReadEntries() {
			if e.Level == 0 {
				data = append(data, e.Child)
			} else {
				todo = append(todo, e.Child)
			}
		}
	}
	if len(index) < 64 || len(data) < 64 {
		t.Fatalf("tree has %d index and %d data pages: too few to cycle through", len(index), len(data))
	}

	measure := func(ids []page.ID, read func(page.ID) error) float64 {
		const runs = 200
		before := st.Stats()
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if err := read(ids[i%len(ids)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if reads := st.Stats().SlotReads - before.SlotReads; reads < runs {
			t.Fatalf("%d slot reads in %d page reads: the reads are not cold", reads, runs+1)
		}
		return allocs
	}
	allocs := measure(index, func(id page.ID) error { _, err := pn.readIndex(id); return err })
	if allocs > 4 {
		t.Errorf("readIndex of a cold page: %.1f allocs, budget 4", allocs)
	}
	dataAllocs := measure(data, func(id page.ID) error { _, err := pn.readData(id); return err })
	if dataAllocs > 3 {
		t.Errorf("readData of a cold page: %.1f allocs, budget 3", dataAllocs)
	}

	// A range walk over the reopened tree reads a data page the cache
	// does not hold into scratch, and never admits it. The window is the
	// bounding box of one data page's items: walked while its data pages
	// are cold and again once Lookups of its items have cached the page (a
	// Lookup admits a page on its second recent miss, and there are at
	// least 8 items), it must make the same allocations, none per cold
	// data page read and none per item (the points go to the walk's
	// pooled arena).
	walked, err := Open(st, nil, Options{CacheNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	home, err := pn.readData(data[len(data)/2])
	if err != nil {
		t.Fatal(err)
	}
	items := home.ReadItems()
	if len(items) < 8 {
		t.Fatalf("data page holds %d items: too few to show a per-item cost", len(items))
	}
	box := geometry.Rect{Min: items[0].Point.Clone(), Max: items[0].Point.Clone()}
	for _, it := range items {
		for d, v := range it.Point {
			box.Min[d], box.Max[d] = min(box.Min[d], v), max(box.Max[d], v)
		}
	}
	walk := func() (allocs float64, dataReads uint64) {
		const runs = 100
		seen := 0
		before := walked.Metrics().Cache.DataReads
		allocs = testing.AllocsPerRun(runs, func() {
			if err := walked.RangeQuery(box, func(geometry.Point, uint64) bool { seen++; return true }); err != nil {
				t.Fatal(err)
			}
		})
		if seen < (runs+1)*len(items) {
			t.Fatalf("%d walks visited %d items, want at least %d each", runs+1, seen, len(items))
		}
		reads := walked.Metrics().Cache.DataReads - before
		if reads%(runs+1) != 0 {
			t.Fatalf("%d walks read %d data pages: not the same pages every walk", runs+1, reads)
		}
		return allocs, reads / (runs + 1)
	}
	walk() // admits the index nodes the walk reads
	coldAllocs, coldReads := walk()
	for _, it := range items {
		if _, err := walked.Lookup(it.Point); err != nil {
			t.Fatal(err)
		}
	}
	warmAllocs, warmReads := walk()
	t.Logf("%d items; cold walk: %.0f allocs, %d data pages read; cached: %.0f allocs, %d read", len(items), coldAllocs, coldReads, warmAllocs, warmReads)
	if coldReads <= warmReads {
		t.Fatalf("the cold walk read %d data pages, the warm one %d", coldReads, warmReads)
	}
	if coldAllocs != warmAllocs {
		t.Errorf("a walk reading %d cold data pages costs %.1f allocs, cached %.1f: want exactly the same, none per cold data page",
			coldReads-warmReads, coldAllocs, warmAllocs)
	}
}

// scribbleStore lends every page in a buffer of its own, and overwrites
// the buffer once use returns, as a store reusing its slot buffer for the
// next read would.
type scribbleStore struct {
	*storage.FileStore
}

func (s scribbleStore) LendNode(id page.ID, use func(page.ID, []byte) (any, error)) (any, error) {
	blob, err := s.ReadNode(id)
	if err != nil {
		return nil, err
	}
	v, err := use(id, blob)
	for i := range blob {
		blob[i] = 0xA5
	}
	return v, err
}

// TestDecodedNodesOwnTheirWords: no node decoded from a lent page aliases
// the lent buffer. Every page of a tree is read through a store that
// overwrites the buffer after each decode, and each node must still equal
// a fresh decode of the page — entries, items and region.
func TestDecodedNodesOwnTheirWords(t *testing.T) {
	tr, st, _, _ := buildPagedFileTree(t, 4000)
	pn := newPagedNodes(scribbleStore{st}, 2, 16)
	if pn.lender == nil {
		t.Fatal("the scribbling store is not a storage.Lender")
	}
	fresh := func(id page.ID) []byte {
		blob, err := st.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	index, data := 0, 0
	for todo := []page.ID{tr.root}; len(todo) > 0; {
		id := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		n, err := pn.readIndex(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := page.DecodeIndexCols(fresh(id), 2)
		if err != nil {
			t.Fatal(err)
		}
		if n.Level != want.Level || !n.Region.Equal(want.Region) || !reflect.DeepEqual(n.ReadEntries(), want.ReadEntries()) {
			t.Fatalf("index page %d decoded from a lent buffer differs from a fresh decode once the buffer is overwritten", id)
		}
		index++
		for _, e := range n.ReadEntries() {
			if e.Level > 0 {
				todo = append(todo, e.Child)
				continue
			}
			p, err := pn.readData(e.Child)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := page.DecodeDataCols(fresh(e.Child), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !p.Region.Equal(want.Region) || !reflect.DeepEqual(p.ReadItems(), want.ReadItems()) {
				t.Fatalf("data page %d decoded from a lent buffer differs from a fresh decode once the buffer is overwritten", e.Child)
			}
			data++
		}
	}
	if index < 64 || data < 64 {
		t.Fatalf("checked %d index and %d data pages: too few", index, data)
	}
}

func TestRangeQueryAllocs(t *testing.T) {
	tr, _ := buildAllocTree(t, 4000)
	rect := geometry.UniverseRect(2)
	count := 0
	allocs := testing.AllocsPerRun(20, func() {
		count = 0
		err := tr.RangeQuery(rect, func(geometry.Point, uint64) bool {
			count++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if count != 4000 {
		t.Fatalf("full-space scan visited %d of 4000 items", count)
	}
	// The walk visits hundreds of nodes and thousands of entries; a
	// fixed budget far below those counts proves it allocates neither
	// per node nor per entry.
	if allocs > 32 {
		t.Fatalf("RangeQuery allocates %.1f allocs/op over the whole space, budget 32", allocs)
	}
}

// TestRangeTinyWindowAllocs pins the guard-set-pruned descent as
// allocation-free: a window holding one stored point allocates nothing,
// neither per node — the guard set lives on expandRange's stack and the
// child buffers on the pooled rangeWalker — nor for its pin, whose view
// is pooled, nor for the visitor closure, which stays on the caller's
// stack.
func TestRangeTinyWindowAllocs(t *testing.T) {
	skipUnderRace(t)
	tr, pts := buildAllocTree(t, 4000)
	p := pts[3456]
	rect := geometry.Rect{Min: p, Max: p}
	count := 0
	allocs := testing.AllocsPerRun(200, func() {
		count = 0
		err := tr.RangeQuery(rect, func(geometry.Point, uint64) bool {
			count++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if count != 1 {
		t.Fatalf("one-point window visited %d items", count)
	}
	if allocs != 0 {
		t.Fatalf("RangeQuery allocates %.1f allocs/op on a one-item window, want 0", allocs)
	}
}

// TestRangeTinyWindowBytes budgets the bytes a one-item window
// allocates over cached pages, which carry only their rows: the walk
// copies the one point it hands out, not the page the point lies on. It
// runs on the tree its writers built and on the same store reopened with
// every page decoded by a lookup.
func TestRangeTinyWindowBytes(t *testing.T) {
	skipUnderRace(t)
	written, pts := buildAllocTree(t, 4000)
	if err := written.Flush(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(written.paged.st, nil, Options{CacheNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if _, err := reopened.Lookup(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, arm := range []struct {
		name string
		tr   *Tree
	}{{"written", written}, {"reopened", reopened}} {
		const queries = 2000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < queries; i++ {
			p := pts[i*7%len(pts)]
			count := 0
			if err := arm.tr.RangeQuery(geometry.Rect{Min: p, Max: p}, func(geometry.Point, uint64) bool {
				count++
				return true
			}); err != nil || count != 1 {
				t.Fatalf("%s: one-point window visited %d items, %v", arm.name, count, err)
			}
		}
		runtime.ReadMemStats(&after)
		// 32 bytes: the visitor closure and a share of the arena the
		// point is cut from; the pinned view is pooled. Copying the page
		// the point lies on costs about 1370.
		if got := (after.TotalAlloc - before.TotalAlloc) / queries; got > 64 {
			t.Errorf("%s: a one-item window allocates %d bytes, budget 64", arm.name, got)
		}
	}
}

// TestReadViewAllocs pins the pin a traversal read takes on a live tree
// as free: readView lends a pooled view, and the pin list and the sweep
// it skips allocate nothing. On a paged tree whose cache holds every
// page, a one-item window's Count, and its RangeQuery with a visitor
// made outside the measured call, allocate nothing at all (the arena
// the visited point is cut from is shared by hundreds of calls), and a
// Nearest allocates exactly what the same search makes on a snapshot's
// view, which takes no pin. A Snapshot is one allocation: it holds its
// view and the view's node store.
func TestReadViewAllocs(t *testing.T) {
	skipUnderRace(t)
	tr, _, _, pts := buildPagedFileTree(t, 4000)
	reads := tr.Metrics().Cache.DataReads + tr.Metrics().Cache.IndexReads
	count := 0
	visit := func(geometry.Point, uint64) bool { count++; return true }
	for _, p := range pts[:100] {
		rect := geometry.Rect{Min: p, Max: p}
		if allocs := testing.AllocsPerRun(20, func() {
			if n, err := tr.Count(rect); err != nil || n == 0 {
				t.Fatalf("Count(%v) = %d, %v", rect, n, err)
			}
		}); allocs != 0 {
			t.Fatalf("Count of a one-item window allocates %.1f allocs/op, want 0", allocs)
		}
		count = 0
		if allocs := testing.AllocsPerRun(20, func() {
			if err := tr.RangeQuery(rect, visit); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("RangeQuery of a one-item window allocates %.1f allocs/op, want 0", allocs)
		}
		if count == 0 {
			t.Fatalf("RangeQuery(%v) visited nothing", rect)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { tr.Snapshot().Release() }); allocs != 1 {
		t.Fatalf("Snapshot allocates %.1f allocs/op, want 1", allocs)
	}
	s := tr.Snapshot()
	defer s.Release()
	for _, p := range pts[:100] {
		nearest := func(nearest func(geometry.Point, int) ([]Neighbor, error)) float64 {
			return testing.AllocsPerRun(20, func() {
				if nb, err := nearest(p, 4); err != nil || len(nb) != 4 {
					t.Fatalf("Nearest(%v) = %v, %v", p, nb, err)
				}
			})
		}
		if live, view := nearest(tr.Nearest), nearest(s.v.nearest); live != view {
			t.Fatalf("Nearest allocates %.1f allocs/op on the live tree and %.1f on a snapshot's view: the pin is not free", live, view)
		}
	}
	if r := tr.Metrics().Cache.DataReads + tr.Metrics().Cache.IndexReads; r != reads {
		t.Fatalf("the reads fetched %d pages from the store: the cache did not hold the tree", r-reads)
	}
}

func BenchmarkLookup(b *testing.B) {
	tr, pts := buildAllocTree(b, 4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Lookup(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	tr, _ := buildAllocTree(b, 4000)
	// A quarter-space window: large enough to walk many nodes, small
	// enough to show per-entry pruning cost.
	rect := geometry.UniverseRect(2)
	rect.Max[0] /= 2
	rect.Max[1] /= 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := tr.RangeQuery(rect, func(geometry.Point, uint64) bool { n++; return true })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestWriterBuiltTreeHeap: a tree its writers built, with the MemStore
// it is built over, holds no more than 1.3 times the heap the same store
// holds reopened with every point looked up, so that every node is
// decoded. The points, which both arms share, are outside both counts.
// The ratio is not 1: writers lay a data page's rows out at capacity and
// an index node's columns at capacity plus one, while a decode lays them
// out at the node's size. Without the store, the nodes alone, it is
// about 1.5 (2.8 when writers kept entries and items beside the columns;
// EXPERIMENTS.md, "Columns are the node").
func TestWriterBuiltTreeHeap(t *testing.T) {
	skipUnderRace(t)
	pts, err := workload.Generate(workload.Clustered, 2, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	st := storage.NewMemStore()
	tr, err := Open(st, nil, Options{Dims: 2, CacheNodes: 1 << 20})
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
	written := liveHeap() - base
	runtime.KeepAlive(tr)
	re, err := Open(st, nil, Options{CacheNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if got, err := re.Lookup(p); err != nil || len(got) == 0 {
			t.Fatalf("Lookup(%v) = %v, %v", p, got, err)
		}
	}
	read := liveHeap() - base
	runtime.KeepAlive(re)
	runtime.KeepAlive(pts)
	if ratio := float64(written) / float64(read); ratio > 1.3 {
		t.Fatalf("the written tree holds %d bytes, %.2f times the %d bytes it holds reopened; want at most 1.3", written, ratio, read)
	}
}
