package bvtree

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// This file covers the pages a tree reads from its store: decoded into
// columns, edited in place by the writer that takes them, and copied out
// by every reader that hands their points or keys on.

// TestDecodeEveryPageOfATree decodes every stored page of a 4000-point
// tree into columns and re-encodes it: the result must be the stored
// blob, and so must a page built again by appending the entries or items
// read out of the columns one by one.
func TestDecodeEveryPageOfATree(t *testing.T) {
	tr, st, _, _ := buildPagedFileTree(t, 4000)
	const dims = 2
	type pending struct {
		id    page.ID
		level int
	}
	items, index, data := 0, 0, 0
	for todo := []pending{{tr.root, tr.rootLevel}}; len(todo) > 0; {
		p := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		blob, err := st.ReadNode(p.id)
		if err != nil {
			t.Fatal(err)
		}
		if p.level == 0 {
			dp, gotDims, err := page.DecodeDataCols(blob, nil)
			if err != nil {
				t.Fatalf("page %d: %v", p.id, err)
			}
			if gotDims != dims || dp.DCols().Dims() != dims || dp.Items != nil {
				t.Fatalf("page %d: %d dims, %d rows, %d items built by the column decoder", p.id, gotDims, dp.DCols().Dims(), len(dp.Items))
			}
			if !bytes.Equal(page.EncodeData(dp, dims), blob) {
				t.Fatalf("page %d: the decoded columns encode differently", p.id)
			}
			again := page.NewDataPage(dp.Region, dims)
			for i := 0; i < dp.Len(); i++ {
				it := dp.Item(i)
				again.Insert(it.Point, it.Payload)
			}
			if !bytes.Equal(page.EncodeData(again, dims), blob) {
				t.Fatalf("page %d: the items read from the columns do not encode to the stored page", p.id)
			}
			items += dp.Len()
			data++
			continue
		}
		n, err := page.DecodeIndexCols(blob, dims)
		if err != nil {
			t.Fatalf("page %d: %v", p.id, err)
		}
		if n.Level != p.level {
			t.Fatalf("page %d: level %d, want %d", p.id, n.Level, p.level)
		}
		if err := n.CheckCols(dims); err != nil {
			t.Fatalf("page %d: %v", p.id, err)
		}
		if !bytes.Equal(page.EncodeIndex(n), blob) {
			t.Fatalf("page %d: the decoded columns encode differently", p.id)
		}
		again := page.NewIndexNode(n.Level, n.Region, dims)
		for _, e := range n.ReadEntries() {
			again.Append(e)
		}
		if err := again.CheckCols(dims); err != nil {
			t.Fatalf("page %d rebuilt: %v", p.id, err)
		}
		if !bytes.Equal(page.EncodeIndex(again), blob) {
			t.Fatalf("page %d: the entries read from the columns do not encode to the stored page", p.id)
		}
		ref, err := page.DecodeIndex(blob)
		if err != nil || !slices.EqualFunc(ref.ReadEntries(), n.ReadEntries(), func(a, b page.Entry) bool {
			return a.Level == b.Level && a.Child == b.Child && a.Key.Equal(b.Key)
		}) {
			t.Fatalf("page %d: DecodeIndex (%v) disagrees with DecodeIndexCols", p.id, err)
		}
		for _, e := range n.ReadEntries() {
			todo = append(todo, pending{e.Child, e.Level})
		}
		index++
	}
	if items != tr.Len() || index < 64 || data < 64 {
		t.Fatalf("walked %d index and %d data pages holding %d items; the tree has %d", index, data, items, tr.Len())
	}
}

// TestDecodedNodesMeetWriters runs readers over the cold-decoded pages of
// a file-backed tree with an 8-node cache while a writer inserts into and
// deletes from the same pages (readersMeetWriter): the live tree's
// lookups fill the cache with decoded pages the writer then takes.
func TestDecodedNodesMeetWriters(t *testing.T) {
	const n = 1500
	pts, err := workload.Generate(workload.Clustered, 2, n, 35)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tree.db")
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(st, nil, Options{Dims: 2, DataCapacity: 16, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	live := make([]liveItem, 0, n)
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		live = append(live, liveItem{p, uint64(i)})
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
	defer st.Close()
	if tr, err = Open(st, nil, Options{CacheNodes: 8}); err != nil {
		t.Fatal(err)
	}
	readersMeetWriter(t, tr, live, 300, 2)
}

// TestColumnEditsBesideReaders is readersMeetWriter on a tree only
// writers have built, every node of it cached, with pages of four points
// and nodes of four entries: two writes in three are inserts, so the
// writer's in-place column edits split data pages and index nodes while
// pinned views read the versions it captured.
func TestColumnEditsBesideReaders(t *testing.T) {
	const n = 600
	pts, err := workload.Generate(workload.Clustered, 2, n, 36)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Options{Dims: 2, DataCapacity: 4, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	live := make([]liveItem, 0, n)
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		live = append(live, liveItem{p, uint64(i)})
	}
	data, index := tr.stats.DataSplits.Load(), tr.stats.IndexSplits.Load()
	readersMeetWriter(t, tr, live, 600, 3)
	if tr.stats.DataSplits.Load() == data || tr.stats.IndexSplits.Load() == index {
		t.Fatalf("the writer split %d data pages and %d index nodes beside the readers; want both",
			tr.stats.DataSplits.Load()-data, tr.stats.IndexSplits.Load()-index)
	}
}

// liveItem is one item of readersMeetWriter's oracle.
type liveItem struct {
	p   geometry.Point
	pay uint64
}

// readersMeetWriter runs three readers over tr, which holds exactly live,
// while a writer makes writes operations on it — a delete of a stored
// item every deleteEvery-th, otherwise an insert beside a stored point,
// on its page. Pinned views look up, range-visit (the visitor keeps every
// point it is handed) and search nearest neighbours, and the live tree
// looks up. Every answer must equal a linear scan of the state the reader
// saw, the points a visitor kept must still hold their values after later
// queries, and epoch reclamation must be clean at the end.
func readersMeetWriter(t *testing.T, tr *Tree, live []liveItem, writes, deleteEvery int) {
	t.Helper()
	const readers = 3
	n := len(live)
	type item = liveItem
	var mu sync.Mutex // orders the writer's ops with the oracle and with pins
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		rng := rand.New(rand.NewSource(1))
		next := uint64(n)
		for op := 0; op < writes; op++ {
			mu.Lock()
			j := rng.Intn(len(live))
			if op%deleteEvery == 0 {
				it := live[j]
				if removed, err := tr.Delete(it.p, it.pay); err != nil || !removed {
					mu.Unlock()
					t.Errorf("delete %v: removed %v, %v", it.p, removed, err)
					return
				}
				live = append(live[:j:j], live[j+1:]...)
			} else {
				// A neighbour of a stored point lands on its page.
				p := geometry.Point{live[j].p[0] ^ 1, live[j].p[1]}
				if err := tr.Insert(p, next); err != nil {
					mu.Unlock()
					t.Errorf("insert %v: %v", p, err)
					return
				}
				live = append(live, item{p, next})
				next++
			}
			mu.Unlock()
		}
	}()

	payloadsAt := func(state []item, p geometry.Point) []uint64 {
		var out []uint64
		for _, it := range state {
			if it.p.Equal(p) {
				out = append(out, it.pay)
			}
		}
		slices.Sort(out)
		return out
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40 || !done.Load(); i++ {
				mu.Lock()
				state := live // the writer never edits a backing array it has published
				q := state[rng.Intn(len(state))].p
				got, err := tr.Lookup(q)
				slices.Sort(got)
				if want := payloadsAt(state, q); err != nil || !slices.Equal(got, want) {
					t.Errorf("live Lookup(%v) = %v, %v; want %v", q, got, err, want)
				}
				snap := tr.Snapshot()
				mu.Unlock()

				got, err = snap.Lookup(q)
				slices.Sort(got)
				if want := payloadsAt(state, q); err != nil || !slices.Equal(got, want) {
					t.Errorf("pinned Lookup(%v) = %v, %v; want %v", q, got, err, want)
				}

				// A window holding q's 20 nearest stored points, by the
				// Chebyshev distance; the visitor keeps the points it gets.
				cheb := make([]uint64, len(state))
				for i, it := range state {
					for d := range q {
						cheb[i] = max(cheb[i], max(it.p[d], q[d])-min(it.p[d], q[d]))
					}
				}
				slices.Sort(cheb)
				rad := cheb[min(20, len(cheb)-1)]
				rect := geometry.Rect{Min: make(geometry.Point, 2), Max: make(geometry.Point, 2)}
				for d := range q {
					rect.Min[d], rect.Max[d] = q[d]-min(q[d], rad), q[d]+min(math.MaxUint64-q[d], rad)
				}
				var kept []item
				if err := snap.RangeQuery(rect, func(p geometry.Point, pay uint64) bool {
					kept = append(kept, item{p, pay})
					return true
				}); err != nil {
					t.Error(err)
				}
				nb, err := snap.Nearest(q, 5)
				if err != nil {
					t.Error(err)
				}
				// A second walk over the same pages reuses whatever scratch
				// the first one could have left its points in.
				if _, err := snap.Count(rect); err != nil {
					t.Error(err)
				}
				snap.Release()

				var want []item
				for _, it := range state {
					if rect.Contains(it.p) {
						want = append(want, it)
					}
				}
				byPay := func(a, b item) int { return int(a.pay) - int(b.pay) }
				slices.SortFunc(kept, byPay)
				slices.SortFunc(want, byPay)
				if !slices.EqualFunc(kept, want, func(a, b item) bool { return a.pay == b.pay && a.p.Equal(b.p) }) {
					t.Errorf("RangeQuery around %v kept %d items, a scan finds %d (or their points changed)", q, len(kept), len(want))
				}
				dists := make([]float64, len(state))
				for i, it := range state {
					dists[i] = pointDist(q, it.p)
				}
				sort.Float64s(dists)
				if len(nb) != min(5, len(dists)) {
					t.Errorf("Nearest(%v) returned %d neighbours", q, len(nb))
				}
				for i, x := range nb {
					if x.Dist != dists[i] || pointDist(q, x.Point) != x.Dist || !slices.Contains(payloadsAt(state, x.Point), x.Payload) {
						t.Errorf("Nearest(%v)[%d] = %v, the scan's distance is %v", q, i, x, dists[i])
					}
				}
			}
		}(int64(r + 2))
	}
	wg.Wait()
	if err := tr.CheckSnapshots(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	if got, err := tr.Count(geometry.UniverseRect(2)); err != nil || got != len(live) {
		t.Fatalf("Count = %d, %v; the writer left %d items", got, err, len(live))
	}
}

// BenchmarkDecodePublished is the decode half of BenchmarkColdLookup
// (bench_test.go at the root): it reads every page of the same 100k-point
// clustered tree, in the same default shape (a FileStore's 4 KiB slots,
// so P comes from the slot), the way a cache miss does (readIndex,
// readData), and reports ns, B and allocations per page, by kind. The
// file is in the OS page cache after the build, so a read is one pread
// into a lent slot buffer and the rest of the time is the decode into a
// published node.
// page.decode_*_ns of the benchmark harness times DecodeIndex, which
// builds no brick bounds, and DecodeData, which also reads out Items, so
// this is where the miss path's own decode shows.
func BenchmarkDecodePublished(b *testing.B) {
	pts, err := workload.Generate(workload.Clustered, 2, 100_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	st, err := storage.OpenFileStore(filepath.Join(b.TempDir(), "tree.db"), storage.FileStoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	tr, err := Open(st, nil, Options{Dims: 2, CacheNodes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	ops := make([]BatchOp, 0, 4096)
	for lo := 0; lo < len(pts); lo += cap(ops) {
		ops = ops[:0]
		for i := lo; i < lo+cap(ops) && i < len(pts); i++ {
			ops = append(ops, BatchOp{Point: pts[i], Payload: uint64(i)})
		}
		if err := tr.ApplyBatch(ops); err != nil {
			b.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		b.Fatal(err)
	}
	pn := newPagedNodes(st, 2, 16)
	var index, data []page.ID
	for todo := []page.ID{tr.root}; len(todo) > 0; {
		id := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		n, err := pn.readIndex(id)
		if err != nil {
			b.Fatal(err)
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
	for _, kind := range []struct {
		name string
		ids  []page.ID
		read func(page.ID) error
	}{
		{"index", index, func(id page.ID) error { _, err := pn.readIndex(id); return err }},
		{"data", data, func(id page.ID) error { _, err := pn.readData(id); return err }},
	} {
		b.Run(kind.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := kind.read(kind.ids[i%len(kind.ids)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(kind.ids)), "pages")
		})
	}
}
