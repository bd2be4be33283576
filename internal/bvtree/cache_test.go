package bvtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/region"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// isCached reports whether page id is in the decoded cache, without
// touching its clock bit.
func isCached(pn *pagedNodes, id page.ID) bool {
	sh := pn.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.nodes[id]
	return ok
}

// hookStore runs hook once, on the first ReadNode of page id after it is
// armed, between reading the blob and returning it.
type hookStore struct {
	storage.Store
	armed atomic.Uint64
	hook  func()
}

func (s *hookStore) ReadNode(id page.ID) ([]byte, error) {
	blob, err := s.Store.ReadNode(id)
	if s.armed.CompareAndSwap(uint64(id), 0) {
		s.hook()
	}
	return blob, err
}

// TestViewAdmissionNeverCachesStale drives the race the write sequence
// closes. A pinned RangeQuery misses index node X and reads its blob; on
// another goroutine, before that read returns, writers change X, Flush
// writes it back and a trim evicts it. The view then holds an old blob
// of X, which it may answer from (its pin predates the inserts) but must
// not admit to the shared cache: a live descent through the stale copy
// would miss the inserted points, and the next save of X would lose them.
func TestViewAdmissionNeverCachesStale(t *testing.T) {
	hs := &hookStore{Store: storage.NewMemStore()}
	tr, err := Open(hs, nil, Options{Dims: 2, DataCapacity: 4, Fanout: 4, CacheNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 400; i++ {
		if err := tr.Insert(randPoint(rng, 2), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d: the test needs a level-1 node below the root", tr.Height())
	}
	root, err := tr.paged.Index(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	x := page.Nil
	for _, e := range root.ReadEntries() {
		if e.Level == 1 {
			x = e.Child
			break
		}
	}
	if x == page.Nil {
		t.Fatal("root has no level-1 child")
	}
	// Empty the cache, so that the view's walk misses X.
	tr.paged.cap = 1
	if err := tr.paged.trim(true); err != nil {
		t.Fatal(err)
	}
	tr.paged.cap = 1 << 20
	if isCached(tr.paged, x) {
		t.Fatal("X still cached after emptying the cache")
	}
	old, err := hs.Store.ReadNode(x)
	if err != nil {
		t.Fatal(err)
	}

	var inserted []geometry.Point
	hs.hook = func() {
		done := make(chan error, 1)
		go func() {
			done <- func() error {
				tr.paged.cap = 1 // every writer's trim writes back and evicts
				defer func() { tr.paged.cap = 1 << 20 }()
				for i := 0; i < 2000; i++ {
					p := randPoint(rng, 2)
					a, err := tr.addr(p)
					if err != nil {
						return err
					}
					tr.mu.RLock()
					d, err := tr.descendPoint(a)
					via := err == nil && d.dataSrcID == x
					putDescent(d)
					tr.mu.RUnlock()
					if err != nil {
						return err
					}
					if !via {
						continue
					}
					if err := tr.Insert(p, uint64(1000+i)); err != nil {
						return err
					}
					inserted = append(inserted, p)
					if err := tr.Flush(); err != nil {
						return err
					}
					now, err := hs.Store.ReadNode(x)
					if err != nil {
						return err
					}
					if !bytes.Equal(now, old) {
						if isCached(tr.paged, x) {
							return fmt.Errorf("X still cached after the writer's trim")
						}
						return nil
					}
				}
				return fmt.Errorf("no insert changed X")
			}()
		}()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	hs.armed.Store(uint64(x))

	snap := tr.Snapshot()
	n, err := snap.Count(UniverseRectFor(tr))
	if err != nil {
		t.Fatal(err)
	}
	if hs.armed.Load() != 0 {
		t.Fatal("the view's walk never read X")
	}
	if t.Failed() {
		t.FailNow()
	}
	if n != 400 {
		t.Fatalf("view counted %d items, want the 400 of its pin", n)
	}
	snap.Release()

	for _, p := range inserted {
		if ok, err := tr.Contains(p); err != nil || !ok {
			t.Fatalf("Lookup of inserted %v after Release = %v, %v", p, ok, err)
		}
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckSnapshots(); err != nil {
		t.Fatal(err)
	}
}

// recordStore logs every store operation, in order.
type recordStore struct {
	storage.Store
	ops []string
}

func (s *recordStore) Alloc() (page.ID, error) {
	id, err := s.Store.Alloc()
	s.ops = append(s.ops, fmt.Sprint("alloc ", id))
	return id, err
}

func (s *recordStore) ReadNode(id page.ID) ([]byte, error) {
	s.ops = append(s.ops, fmt.Sprint("read ", id))
	return s.Store.ReadNode(id)
}

func (s *recordStore) WriteNode(id page.ID, blob []byte) error {
	s.ops = append(s.ops, fmt.Sprint("write ", id))
	return s.Store.WriteNode(id, blob)
}

func (s *recordStore) Free(id page.ID) error {
	s.ops = append(s.ops, fmt.Sprint("free ", id))
	return s.Store.Free(id)
}

func (s *recordStore) Sync() error {
	s.ops = append(s.ops, "sync")
	return s.Store.Sync()
}

// TestCacheDeterministic: eviction breaks ties by page ID, never by map
// order, and whether a Lookup admits the data page it missed depends only
// on the order of the shard's earlier misses (its ring), so one program —
// inserts, deletes, lookups that scan a first miss in scratch and admit
// a second, and range walks that admit index nodes — makes the same
// store operations in the same order on every run. At 8 nodes most cache
// shards hold one node and remember one miss; the 64-node run puts
// several in a shard, where map order would show.
func TestCacheDeterministic(t *testing.T) {
	run := func(cache int) []string {
		rs := &recordStore{Store: storage.NewMemStore()}
		tr, err := Open(rs, nil, Options{Dims: 2, DataCapacity: 4, Fanout: 4, CacheNodes: cache})
		if err != nil {
			t.Fatal(err)
		}
		pts, err := workload.Generate(workload.Clustered, 2, 600, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if err := tr.Insert(p, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ {
			if ok, err := tr.Delete(pts[i], uint64(i)); err != nil || !ok {
				t.Fatalf("delete %d = %v, %v", i, ok, err)
			}
		}
		for _, p := range pts[200:300] {
			if ok, err := tr.Contains(p); err != nil || !ok {
				t.Fatalf("lookup %v = %v, %v", p, ok, err)
			}
		}
		for _, r := range workload.QueryRects(2, 20, 0.1, 6) {
			if _, err := tr.Count(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return rs.ops
	}
	for _, cache := range []int{8, 64} {
		a, b := run(cache), run(cache)
		if len(a) < 1000 {
			t.Fatalf("cache %d: the program made only %d store operations", cache, len(a))
		}
		if !slices.Equal(a, b) {
			i := 0
			for i < min(len(a), len(b)) && a[i] == b[i] {
				i++
			}
			t.Fatalf("cache %d: two runs diverge at store operation %d of %d/%d", cache, i, len(a), len(b))
		}
	}
}

// residencyTree builds n clustered points into a FileStore tree of
// shape's DataCapacity and Fanout (zero: the defaults), flushes it and
// reopens it cold with a cache that holds the whole index with room to
// spare. It returns the reopened tree, its store, the points and the
// number of index nodes.
func residencyTree(t *testing.T, n int, shape Options) (*Tree, *storage.FileStore, []geometry.Point, int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.db")
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(st, nil, Options{Dims: 2, DataCapacity: shape.DataCapacity, Fanout: shape.Fanout, CacheNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(workload.Clustered, 2, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := tr.CollectStats()
	if err != nil {
		t.Fatal(err)
	}
	index := 0
	for _, ls := range ts.IndexLevels {
		index += ls.Nodes
	}
	if tr.Height() < 3 || ts.DataPages < 4*index {
		t.Fatalf("height %d, %d data pages, %d index nodes: want a deeper, wider tree", tr.Height(), ts.DataPages, index)
	}
	if got := tr.Metrics().Cache.TreeIndexNodes; got != int64(index) {
		t.Fatalf("Metrics reports %d index nodes in the tree, CollectStats %d", got, index)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	re, err := Open(st2, nil, Options{CacheNodes: 2*index + 16})
	if err != nil {
		t.Fatal(err)
	}
	return re, st2, pts, index
}

// TestColdLookupReadsOnePage: once a tree's index fits its cache, data
// pages are what trim evicts, so after one pass over the tree every
// Lookup whose data page is not cached makes exactly one store read, and
// every other Lookup none. It holds for a small shape and for the
// default one, whose data pages are sized to fill a slot.
func TestColdLookupReadsOnePage(t *testing.T) {
	for _, arm := range []struct {
		name  string
		shape Options
	}{{"P16-F8", Options{DataCapacity: 16, Fanout: 8}}, {"default", Options{}}} {
		t.Run(arm.name, func(t *testing.T) {
			tr, st, pts, index := residencyTree(t, 20000, arm.shape)
			for _, p := range pts {
				if _, err := tr.Lookup(p); err != nil {
					t.Fatal(err)
				}
			}
			cs := tr.Metrics().Cache
			if cs.IndexNodes != int64(index) || cs.TreeIndexNodes != int64(index) {
				t.Fatalf("after warm-up the cache holds %d of %d index nodes (Metrics says the tree has %d)", cs.IndexNodes, index, cs.TreeIndexNodes)
			}
			cold := 0
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < 2000; i++ {
				p := pts[rng.Intn(len(pts))]
				a, err := tr.addr(p)
				if err != nil {
					t.Fatal(err)
				}
				tr.mu.RLock()
				d, err := tr.descendPoint(a)
				if err != nil {
					t.Fatal(err)
				}
				want := uint64(0)
				if !isCached(tr.paged, d.dataID) {
					want = 1
				}
				putDescent(d)
				tr.mu.RUnlock()
				before := st.Stats().SlotReads
				if _, err := tr.Lookup(p); err != nil {
					t.Fatal(err)
				}
				if got := st.Stats().SlotReads - before; got != want {
					t.Fatalf("lookup %d made %d store reads, want %d", i, got, want)
				}
				cold += int(want)
			}
			if cold < 1000 {
				t.Fatalf("only %d of 2000 lookups were cold", cold)
			}
			if got := tr.Metrics().Cache.IndexReads; got != uint64(index) {
				t.Fatalf("%d index reads in all, want each of the %d index nodes once", got, index)
			}
		})
	}
}

// TestRangeWarmsIndex: a pinned range walk admits the index nodes it
// decodes, so repeating a cold RangeQuery reads only data pages, which a
// walk never admits.
func TestRangeWarmsIndex(t *testing.T) {
	tr, st, _, _ := residencyTree(t, 20000, Options{DataCapacity: 16, Fanout: 8})
	rect := workload.QueryRects(2, 1, 0.2, 8)[0]
	run := func() (index, data, reads uint64, items int) {
		c0, s0 := tr.Metrics().Cache, st.Stats().NodeReads
		err := tr.RangeQuery(rect, func(geometry.Point, uint64) bool { items++; return true })
		if err != nil {
			t.Fatal(err)
		}
		s1, c1 := st.Stats().NodeReads, tr.Metrics().Cache
		return c1.IndexReads - c0.IndexReads, c1.DataReads - c0.DataReads, s1 - s0, items
	}
	index, data, reads, items := run()
	if index == 0 || data == 0 || items == 0 || reads != index+data {
		t.Fatalf("cold walk: %d index reads + %d data reads, %d store reads, %d items", index, data, reads, items)
	}
	index2, data2, reads2, items2 := run()
	if index2 != 0 || data2 != data || reads2 != data || items2 != items {
		t.Fatalf("repeated walk: %d index reads + %d data reads, %d store reads, %d items; want 0 + %d, %d, %d",
			index2, data2, reads2, items2, data, data, items)
	}
}

// TestWriterKeepsIndexResident: a node written back keeps its eviction
// class. A tree built by writers is flushed with a cache of twice its
// index plus 16 nodes, so the flush writes back every index node and the
// lookups' trims then evict most data pages: every index node must stay
// cached through it, and no lookup may read one from the store.
func TestWriterKeepsIndexResident(t *testing.T) {
	tr, err := Open(storage.NewMemStore(), nil, Options{Dims: 2, DataCapacity: 16, Fanout: 8, CacheNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(workload.Clustered, 2, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	index := int(tr.Metrics().Cache.TreeIndexNodes)
	tr.paged.cap = 2*index + 16
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	before := tr.Metrics().Cache.IndexReads
	for _, p := range pts {
		if _, err := tr.Lookup(p); err != nil {
			t.Fatal(err)
		}
	}
	cs := tr.Metrics().Cache
	if cs.IndexNodes != int64(index) || cs.IndexReads != before {
		t.Fatalf("after %d lookups the cache holds %d of %d index nodes, and %d index nodes were read from the store",
			len(pts), cs.IndexNodes, index, cs.IndexReads-before)
	}
	if cs.Nodes > int64(tr.paged.cap) {
		t.Fatalf("the cache holds %d nodes, capacity %d", cs.Nodes, tr.paged.cap)
	}
}

// trimReference is trim's victim selection as a sort states it: past
// capacity, count the clean nodes per class (a writer's trim writes every
// dirty node back first, so all of them), evict every node of the classes
// below the cut and, of the cut class, the first take by ascending page
// ID after sorting the class.
func trimReference(nodes []entry, capacity int, exclusive bool, clock uint32) map[page.ID]bool {
	victims := map[page.ID]bool{}
	if len(nodes) <= capacity {
		return victims
	}
	var counts [2 * evictLevels]int
	for _, e := range nodes {
		if exclusive || !e.dirty {
			counts[e.class(clock)]++
		}
	}
	excess := len(nodes) - (capacity - capacity/8)
	cut, take := len(counts), 0
	for c, n := range counts {
		if excess <= n {
			cut, take = c, excess
			break
		}
		excess -= n
	}
	var edge []page.ID
	for _, e := range nodes {
		if !exclusive && e.dirty {
			continue
		}
		switch c := e.class(clock); {
		case c < cut:
			victims[e.id] = true
		case c == cut:
			edge = append(edge, e.id)
		}
	}
	slices.Sort(edge)
	for _, id := range edge[:min(take, len(edge))] {
		victims[id] = true
	}
	return victims
}

// cacheEntries returns the entry of every cached page, checking that
// each shard's map and entries describe the same pages — a page's entry
// at the position its map value names, with the same stamp, and every
// other position a listed hole — and that size counts them.
func cacheEntries(t *testing.T, pn *pagedNodes) []entry {
	t.Helper()
	var all []entry
	for i := range pn.shards {
		sh := &pn.shards[i]
		for id, c := range sh.nodes {
			e := sh.entries[c.pos]
			if e.id != id || !e.live || e.stamp != c.stamp || pn.shard(id) != sh {
				t.Fatalf("shard %d: page %d maps to the entry of page %d (live %v, stamp %d against %d)", i, id, e.id, e.live, e.stamp, c.stamp)
			}
			all = append(all, e)
		}
		live := 0
		for _, e := range sh.entries {
			if e.live {
				live++
			}
		}
		for _, pos := range sh.holes {
			if sh.entries[pos].live {
				t.Fatalf("shard %d: hole %d holds page %d", i, pos, sh.entries[pos].id)
			}
		}
		if live != len(sh.nodes) || live+len(sh.holes) != len(sh.entries) {
			t.Fatalf("shard %d: %d pages, %d live entries and %d holes in %d", i, len(sh.nodes), live, len(sh.holes), len(sh.entries))
		}
	}
	if int64(len(all)) != pn.size.Load() {
		t.Fatalf("the cache holds %d nodes, its size says %d", len(all), pn.size.Load())
	}
	return all
}

// TestTrimMatchesSortedReference: trim selects its victims without
// sorting the cache, and evicts exactly the set trimReference sorts for,
// on seeded random caches of nodes at levels 0 to 4, dirty or clean,
// stamped in the current generation or earlier ones, under and over
// capacities 1, 8 and 128, for writers and readers.
func TestTrimMatchesSortedReference(t *testing.T) {
	for _, capacity := range []int{1, 8, 128} {
		for _, exclusive := range []bool{false, true} {
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				st := storage.NewMemStore()
				pn := newPagedNodes(st, 2, capacity)
				clock := uint32(1000 + rng.Intn(1000))
				pn.clock.Store(clock)
				n := 1 + rng.Intn(2*capacity+24)
				ids := make([]page.ID, 3*n)
				for i := range ids {
					id, err := st.Alloc()
					if err != nil {
						t.Fatal(err)
					}
					ids[i] = id
				}
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				for _, id := range ids[:n] {
					level := rng.Intn(5)
					var v interface{} = page.NewDataPage(region.BitString{}, 2)
					if level > 0 {
						v = page.NewIndexNode(level, region.BitString{}, 2)
					}
					stamp := clock - uint32(rng.Intn(3))
					if rng.Intn(8) == 0 {
						stamp = uint32(rng.Intn(1000)) // generations ago
					}
					pn.shard(id).put(id, v, rng.Intn(4) == 0, stamp)
					pn.size.Add(1)
				}
				before := cacheEntries(t, pn)
				want := trimReference(before, capacity, exclusive, clock)
				if err := pn.trim(exclusive); err != nil {
					t.Fatal(err)
				}
				after := cacheEntries(t, pn)
				kept := map[page.ID]bool{}
				for _, e := range after {
					kept[e.id] = true
					if exclusive && e.dirty && len(before) > capacity {
						t.Fatalf("cap %d seed %d: a writer's trim left page %d dirty", capacity, seed, e.id)
					}
				}
				got := map[page.ID]bool{}
				for _, e := range before {
					if !kept[e.id] {
						got[e.id] = true
					}
				}
				if len(got) != len(want) {
					t.Fatalf("cap %d exclusive %v seed %d: %d nodes: trim evicted %d, the reference %d", capacity, exclusive, seed, n, len(got), len(want))
				}
				for id := range want {
					if !got[id] {
						t.Fatalf("cap %d exclusive %v seed %d: the reference evicts page %d, trim kept it", capacity, exclusive, seed, id)
					}
				}
				if ran := len(before) > capacity; ran != (pn.clock.Load() == clock+1) {
					t.Fatalf("cap %d exclusive %v seed %d: clock %d after a trim of %d nodes from %d", capacity, exclusive, seed, pn.clock.Load(), n, clock)
				}
			}
		}
	}
}

// TestLowest: lowest keeps exactly the k lowest IDs of its input, with
// their positions, for every k and input order.
func TestLowest(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 0; n < 40; n++ {
		for k := 0; k <= n+1; k++ {
			for _, order := range []string{"shuffled", "ascending", "descending"} {
				refs := make([]entryRef, n)
				for i := range refs {
					refs[i].id = page.ID(3*i + 1)
				}
				switch order {
				case "shuffled":
					rng.Shuffle(n, func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
				case "descending":
					slices.Reverse(refs)
				}
				for i := range refs {
					refs[i].pos = int32(i)
				}
				var kept []page.ID
				for _, r := range lowest(nil, refs, k) {
					if refs[r.pos] != r {
						t.Fatalf("%s n=%d k=%d: kept page %d at the position of %d", order, n, k, r.id, refs[r.pos].id)
					}
					kept = append(kept, r.id)
				}
				slices.Sort(kept)
				if len(kept) != min(k, n) {
					t.Fatalf("%s n=%d k=%d: kept %d IDs", order, n, k, len(kept))
				}
				for i, id := range kept {
					if id != page.ID(3*i+1) {
						t.Fatalf("%s n=%d k=%d: kept %v", order, n, k, kept)
					}
				}
			}
		}
	}
}
