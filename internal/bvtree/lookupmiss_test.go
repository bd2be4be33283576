package bvtree

// A Lookup's data-page miss (pagedNodes.borrowData): a
// first miss is scanned in a pooled scratch page and admits nothing, a
// page that missed recently is decoded afresh and admitted, and either
// way the Lookup answers as a Lookup of the cached page does.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// reopenedFileTree inserts pts (payload i for pts[i]) into a FileStore
// tree of shape's DataCapacity and Fanout (zero: the defaults), flushes
// it, and reopens the store with a decoded cache of cache nodes. It
// returns the reopened tree, its store and the store's path.
func reopenedFileTree(t *testing.T, pts []geometry.Point, shape Options, cache int) (*Tree, *storage.FileStore, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.db")
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(st, nil, Options{Dims: 2, DataCapacity: shape.DataCapacity, Fanout: shape.Fanout})
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
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = storage.OpenFileStore(path, storage.FileStoreOptions{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if tr, err = Open(st, nil, Options{CacheNodes: cache}); err != nil {
		t.Fatal(err)
	}
	return tr, st, path
}

// dataPageIDs lists the data pages of tr in depth-first order, reading
// its index nodes without admitting them.
func dataPageIDs(t *testing.T, tr *Tree) []page.ID {
	t.Helper()
	if tr.rootLevel == 0 {
		return []page.ID{tr.root}
	}
	var data []page.ID
	for todo := []page.ID{tr.root}; len(todo) > 0; {
		id := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		n, err := tr.paged.peekIndex(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range n.ReadEntries() {
			if e.Level == 0 {
				data = append(data, e.Child)
			} else {
				todo = append(todo, e.Child)
			}
		}
	}
	return data
}

// descendTo runs the descent of a Lookup of p, which brings the index
// nodes on its path into the cache, and returns the data page it ends
// at, which it does not fetch.
func descendTo(t *testing.T, tr *Tree, p geometry.Point) page.ID {
	t.Helper()
	a, err := tr.addr(p)
	if err != nil {
		t.Fatal(err)
	}
	tr.mu.RLock()
	d, err := tr.descendPoint(a)
	tr.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	defer putDescent(d)
	return d.dataID
}

// missBothWays scans data page id for each of the points, first as a
// Lookup's first miss does, in scratch, then as its second, which
// decodes the page afresh and admits it: the payloads of every point
// must be the same multiset on both paths, and the page must be cached
// after the second miss alone. pn's record of misses must not hold id.
func missBothWays(t *testing.T, tr *Tree, pn *pagedNodes, id page.ID, pts []geometry.Point) {
	t.Helper()
	dp, sc, err := pn.borrowData(id, true)
	if err != nil {
		t.Fatalf("page %d, first miss: %v", id, err)
	}
	if sc == nil || isCached(pn, id) {
		t.Fatalf("page %d: the first miss was not scanned in scratch (cached: %v)", id, isCached(pn, id))
	}
	scratch := make([][]uint64, len(pts))
	for i, p := range pts {
		scratch[i] = tr.payloadsAt(dp, p)
	}
	pn.release(sc)
	dp, sc, err = pn.borrowData(id, true)
	if err != nil {
		t.Fatalf("page %d, second miss: %v", id, err)
	}
	if sc != nil || !isCached(pn, id) {
		t.Fatalf("page %d: the second miss did not admit the page", id)
	}
	for i, p := range pts {
		got := tr.payloadsAt(dp, p)
		slices.Sort(got)
		slices.Sort(scratch[i])
		if !slices.Equal(got, scratch[i]) {
			t.Fatalf("page %d, point %v: %v in scratch, %v decoded and admitted", id, p, scratch[i], got)
		}
	}
}

// TestLookupMissDifferential: over every data page of a reopened
// FileStore tree, at the default shape and at P16-F8, a page scanned in
// scratch answers every stored point and an absent point inside the
// page's region as the admitted page does; so does the page of 1000
// copies of one point, a chain of slots the store hands out as a copy.
// Lookups of every point on the reopened tree, whose small cache sends
// them down both paths, return each point's payloads. One flipped byte
// in a page's slot is the same page.ErrCorrupt, naming the page, on
// both paths.
func TestLookupMissDifferential(t *testing.T) {
	pts, err := workload.Generate(workload.Clustered, 2, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]uint64][]uint64{}
	for i, p := range pts {
		k := [2]uint64{p[0], p[1]}
		want[k] = append(want[k], uint64(i))
	}
	for _, arm := range []struct {
		name  string
		shape Options
	}{{"default", Options{}}, {"P16-F8", Options{DataCapacity: 16, Fanout: 8}}} {
		t.Run(arm.name, func(t *testing.T) {
			tr, st, path := reopenedFileTree(t, pts, arm.shape, 64)
			data := dataPageIDs(t, tr)
			// A cache that never trims holds every admitted page, and its
			// record of misses forgets none.
			pn := newPagedNodes(st, 2, 1<<20)
			for _, id := range data {
				home, err := pn.readData(id)
				if err != nil {
					t.Fatal(err)
				}
				var probe []geometry.Point
				stored := map[[2]uint64]bool{}
				for i := 0; i < home.Len(); i++ {
					p := home.Item(i).Point
					probe = append(probe, p)
					stored[[2]uint64{p[0], p[1]}] = true
				}
				// Flipping the lowest bit of a coordinate flips the last
				// bit of the address, which a data page's region never
				// reaches: the point lies in the region and is absent.
				for _, p := range probe {
					q := geometry.Point{p[0] ^ 1, p[1]}
					if !stored[[2]uint64{q[0], q[1]}] {
						probe = append(probe, q)
						break
					}
				}
				missBothWays(t, tr, pn, id, probe)
			}
			for _, p := range pts {
				got, err := tr.Lookup(p)
				if err != nil {
					t.Fatal(err)
				}
				slices.Sort(got)
				if w := want[[2]uint64{p[0], p[1]}]; !slices.Equal(got, w) {
					t.Fatalf("Lookup(%v) = %v, want %v", p, got, w)
				}
			}
			cs := tr.Metrics().Cache
			t.Logf("%d data pages; lookups of %d points read %d data pages", len(data), len(pts), cs.DataReads)

			// Corrupt one data page in its slot, a byte inside the page.
			id := data[len(data)/2]
			blob, err := st.ReadNode(id)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			off := int64(id)*int64(st.SlotPayload()+12) + 12 // a slot is a 12-byte header, then its payload
			onDisk := make([]byte, len(blob))
			if _, err := f.ReadAt(onDisk, off); err != nil || !bytes.Equal(onDisk, blob) {
				t.Fatalf("page %d is not at offset %d of the file (%v)", id, off, err)
			}
			if _, err := f.WriteAt([]byte{blob[len(blob)/2] ^ 0x10}, off+int64(len(blob)/2)); err != nil {
				t.Fatal(err)
			}
			corrupt := newPagedNodes(st, 2, 1<<20)
			_, _, first := corrupt.borrowData(id, true)
			_, _, second := corrupt.borrowData(id, true)
			name := fmt.Sprintf("data page %d:", id)
			for _, err := range []error{first, second} {
				if !errors.Is(err, page.ErrCorrupt) || !strings.Contains(err.Error(), name) {
					t.Fatalf("corrupt page %d: %v, want page.ErrCorrupt naming the page", id, err)
				}
			}
			if first.Error() != second.Error() || isCached(corrupt, id) {
				t.Fatalf("corrupt page %d: %q in scratch, %q decoded to admit (cached: %v)", id, first, second, isCached(corrupt, id))
			}
		})
	}

	t.Run("chained", func(t *testing.T) {
		const copies = 1000
		dup := make([]geometry.Point, copies)
		for i := range dup {
			dup[i] = geometry.Point{42, 42}
		}
		tr, st, _ := reopenedFileTree(t, dup, Options{}, 64)
		data := dataPageIDs(t, tr)
		if len(data) != 1 {
			t.Fatalf("%d copies of one point fill %d data pages, want 1", copies, len(data))
		}
		before := st.Stats()
		missBothWays(t, tr, newPagedNodes(st, 2, 1<<20), data[0], []geometry.Point{{42, 42}, {43, 42}})
		if d := st.Stats().Sub(before); d.SlotReads <= d.NodeReads {
			t.Fatalf("%d slot reads for %d node reads: the page is not a chain", d.SlotReads, d.NodeReads)
		}
		if got, err := tr.Lookup(dup[0]); err != nil || len(got) != copies {
			t.Fatalf("Lookup of the duplicated point: %d of %d payloads, %v", len(got), copies, err)
		}
	})
	t.Run("pinned", func(t *testing.T) {
		pinnedSources(t, pts[:3000])
	})
}

// pinnedSources borrows data pages through a Snapshot's view from each
// of its three sources — scratch for a page no cache holds, the cached
// page, and the version chain's pre-image of a page a writer changed
// after the pin — and checks that each answers every point of the page
// at the pin as a private decode of it does.
func pinnedSources(t *testing.T, pts []geometry.Point) {
	tr, _, _ := reopenedFileTree(t, pts, Options{DataCapacity: 16, Fanout: 8}, 1<<20)
	data := dataPageIDs(t, tr)
	fullest := data[0]
	pinned := map[page.ID]*page.DataPage{}
	for _, id := range data {
		p, err := tr.paged.readData(id)
		if err != nil {
			t.Fatal(err)
		}
		if pinned[id] = p; p.Len() > pinned[fullest].Len() {
			fullest = id
		}
	}
	scratched, cached := data[0], data[1]
	if fullest == scratched || fullest == cached {
		scratched, cached = data[len(data)-1], data[len(data)-2]
	}
	snap := tr.Snapshot()
	defer snap.Release()
	if _, err := tr.paged.Data(cached); err != nil {
		t.Fatal(err)
	}
	gone := pinned[fullest].Item(0)
	if ok, err := tr.Delete(gone.Point, gone.Payload); err != nil || !ok {
		t.Fatalf("delete %v from page %d: %v, %v", gone, fullest, ok, err)
	}
	for _, src := range []struct {
		name    string
		id      page.ID
		scratch bool
	}{{"scratch", scratched, true}, {"cache", cached, false}, {"chain", fullest, false}} {
		dp, sc, err := snap.v.st.borrowData(src.id, false)
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		if (sc != nil) != src.scratch || isCached(tr.paged, src.id) == src.scratch {
			t.Fatalf("%s: page %d lent from scratch %v, cached %v", src.name, src.id, sc != nil, isCached(tr.paged, src.id))
		}
		want := pinned[src.id]
		if dp.Len() != want.Len() || !dp.Region.Equal(want.Region) {
			t.Fatalf("%s: page %d lent with %d items in region %v, pinned %d in %v", src.name, src.id, dp.Len(), dp.Region, want.Len(), want.Region)
		}
		for i := 0; i < want.Len(); i++ {
			p := want.Item(i).Point
			got, w := tr.payloadsAt(dp, p), tr.payloadsAt(want, p)
			slices.Sort(got)
			slices.Sort(w)
			if !slices.Equal(got, w) {
				t.Fatalf("%s: page %d, point %v: %v lent, %v at the pin", src.name, src.id, p, got, w)
			}
		}
		tr.paged.release(sc)
	}
	if got, err := snap.Lookup(gone.Point); err != nil || !slices.Contains(got, gone.Payload) {
		t.Fatalf("the snapshot's Lookup of the deleted %v = %v, %v", gone, got, err)
	}
}

// TestReadersAdmitByOneRule: a data page enters the cache on a Lookup's
// second recent miss, on a live tree and through a Snapshot alike, and
// on no other read. On a reopened tree whose cache holds its index, a
// whole-tree Scan and a RangeQuery admit no data page and record no
// miss, and a Lookup's first miss, then a Scan of every page, then its
// second miss admits the page: the scan did not push the first miss out
// of its shard's record.
func TestReadersAdmitByOneRule(t *testing.T) {
	tr, _, pts, _ := residencyTree(t, 20000, Options{DataCapacity: 16, Fanout: 8})
	dataCached := func() int64 { cs := tr.Metrics().Cache; return cs.Nodes - cs.IndexNodes }
	recorded := func() (n int) {
		for i := range tr.paged.shards {
			n += len(tr.paged.shards[i].missed.ids)
		}
		return n
	}
	snap := tr.Snapshot()
	defer snap.Release()
	quarter := geometry.UniverseRect(2)
	quarter.Max[0] /= 2
	quarter.Max[1] /= 2
	for _, r := range []struct {
		name   string
		scan   func(Visitor) error
		rangeQ func(geometry.Rect, Visitor) error
		lookup func(geometry.Point) ([]uint64, error)
		p      int
	}{{"live", tr.Scan, tr.RangeQuery, tr.Lookup, len(pts) / 3}, {"snapshot", snap.Scan, snap.RangeQuery, snap.Lookup, 2 * len(pts) / 3}} {
		scan := func() {
			n := 0
			if err := r.scan(func(geometry.Point, uint64) bool { n++; return true }); err != nil || n != len(pts) {
				t.Fatalf("%s: Scan visited %d of %d items: %v", r.name, n, len(pts), err)
			}
		}
		cached, misses := dataCached(), recorded()
		scan()
		scan()
		if err := r.rangeQ(quarter, func(geometry.Point, uint64) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if dataCached() != cached || recorded() != misses {
			t.Fatalf("%s: two Scans and a RangeQuery admitted %d data pages and recorded %d misses", r.name, dataCached()-cached, recorded()-misses)
		}
		p := pts[r.p]
		id := descendTo(t, tr, p)
		for i, wantCached := range []bool{false, true} {
			if i > 0 {
				scan()
			}
			got, err := r.lookup(p)
			if err != nil || !slices.Contains(got, uint64(r.p)) {
				t.Fatalf("%s: lookup %d: %v, %v", r.name, i+1, got, err)
			}
			if isCached(tr.paged, id) != wantCached {
				t.Fatalf("%s: after lookup %d page %d cached %v, want %v", r.name, i+1, id, !wantCached, wantCached)
			}
		}
		if dataCached() != cached+1 {
			t.Fatalf("%s: %d data pages admitted, want the one the Lookups admitted", r.name, dataCached()-cached)
		}
	}
}

// TestLookupAdmitsOnSecondMiss: with the index resident, the first cold
// Lookup of a data page makes one slot read and leaves the page
// uncached, the second makes one read and admits the page, and the
// third makes none.
func TestLookupAdmitsOnSecondMiss(t *testing.T) {
	tr, st, pts, _ := residencyTree(t, 20000, Options{DataCapacity: 16, Fanout: 8})
	p := pts[len(pts)/3]
	id := descendTo(t, tr, p)
	for i, want := range []struct {
		reads  uint64
		cached bool
	}{{1, false}, {1, true}, {0, true}} {
		before := st.Stats().SlotReads
		got, err := tr.Lookup(p)
		if err != nil || !slices.Contains(got, uint64(len(pts)/3)) {
			t.Fatalf("lookup %d: %v, %v", i+1, got, err)
		}
		reads := st.Stats().SlotReads - before
		if reads != want.reads || isCached(tr.paged, id) != want.cached {
			t.Fatalf("lookup %d: %d slot reads, page cached %v; want %d, %v", i+1, reads, isCached(tr.paged, id), want.reads, want.cached)
		}
	}
}

// TestConcurrentColdLookup: four readers look up points of a reopened
// tree whose cache holds 8 nodes, so nearly every Lookup misses its data
// page and scans it in scratch or admits it, beside a writer that
// inserts into and deletes from the same pages, writing them back and
// evicting them. Every Lookup of a point the writer never touches must
// find its payload.
func TestConcurrentColdLookup(t *testing.T) {
	pts, err := workload.Generate(workload.Clustered, 2, 3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, _ := reopenedFileTree(t, pts, Options{DataCapacity: 16, Fanout: 8}, 8)
	// The writer owns the even points, the readers look up the odd ones
	// (len(pts) is even, so a reader's stride of 8 keeps it on them).
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for round := 0; round < 3; round++ {
			for i := 0; i < len(pts); i += 2 {
				if ok, err := tr.Delete(pts[i], uint64(i)); err != nil || !ok {
					errs <- fmt.Errorf("writer: delete %d = %v, %v", i, ok, err)
					return
				}
				if err := tr.Insert(pts[i], uint64(i)); err != nil {
					errs <- fmt.Errorf("writer: insert %d: %v", i, err)
					return
				}
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 1 + 2*r; !stop.Load(); i = (i + 8) % len(pts) {
				got, err := tr.Lookup(pts[i])
				if err != nil || !slices.Contains(got, uint64(i)) {
					errs <- fmt.Errorf("reader %d: Lookup(%v) = %v, %v; want payload %d", r, pts[i], got, err, i)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	if tr.Metrics().Cache.DataReads == 0 {
		t.Fatal("no data page was read from the store: the lookups were not cold")
	}
}

// TestMissRingMatchesReference: a page is seen exactly when it is among
// the last limit pages recorded, by a list kept as a plain slice, over
// seeded random IDs drawn from a range small enough to repeat often and
// spread over several set sizes, limits of 1 and of more than the first
// set holds included.
func TestMissRingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, limit := range []int{1, 3, 8, 37, 300} {
		var r missRing
		var ref []page.ID
		for i := 0; i < 20000; i++ {
			id := page.ID(1 + rng.Intn(3*limit+5)*cacheShards)
			want := slices.Contains(ref, id)
			if got := r.seen(id, limit); got != want {
				t.Fatalf("limit %d, step %d: seen(%d) = %v, want %v", limit, i, id, got, want)
			}
			if !want {
				if ref = append(ref, id); len(ref) > limit {
					ref = ref[1:]
				}
			}
			if len(r.ids) != len(ref) || 2*len(r.ids) > len(r.set) {
				t.Fatalf("limit %d, step %d: %d pages in a set of %d slots, want %d", limit, i, len(r.ids), len(r.set), len(ref))
			}
		}
	}
}
