package bvtree

// Differential and stress coverage for the range-traversal core
// (walk.go): one walker, run on the caller's goroutine. Every backend's
// results are compared against a linear scan of the inserted points — the
// walker serves RangeQuery and Count alike, so neither is a reference for
// the other. The TestParallelRange* names predate the single drive; they
// are part of the `make verify` race smoke together with TestConcurrent*,
// so the visitor single-threading claim below is checked by the race
// detector, not just by assertion: the visitors mutate plain ints.

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"bvtree/internal/fault"
	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// rangeBackends builds one tree per backend flavour, loads it with pts
// (payload = index), and hands each to fn.
func rangeBackends(t *testing.T, pts []geometry.Point, opt Options, fn func(t *testing.T, tr *Tree)) {
	t.Helper()
	load := func(t *testing.T, tr *Tree) *Tree {
		t.Helper()
		for i, p := range pts {
			if err := tr.Insert(p, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	t.Run("mem", func(t *testing.T) {
		tr, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		fn(t, load(t, tr))
	})
	t.Run("paged-mem", func(t *testing.T) {
		tr, err := Open(storage.NewMemStore(), nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		fn(t, load(t, tr))
	})
	t.Run("paged-file", func(t *testing.T) {
		st, err := storage.OpenFileStore(filepath.Join(t.TempDir(), "p.bv"), storage.FileStoreOptions{SlotSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		popt := opt
		popt.CacheNodes = 64 // small: most range reads miss the cache
		tr, err := Open(st, nil, popt)
		if err != nil {
			t.Fatal(err)
		}
		fn(t, load(t, tr))
	})
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		st, err := storage.OpenFileStore(filepath.Join(dir, "d.bv"), storage.FileStoreOptions{SlotSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		d, err := openLogged(st, filepath.Join(dir, "d.wal"), opt)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		fn(t, load(t, d))
	})
}

// collectRange collects the payloads of rect's hits, sorted. Payloads
// are unique per point here, so the multiset of payloads identifies the
// result multiset exactly.
func collectRange(t *testing.T, tr *Tree, rect geometry.Rect) []uint64 {
	t.Helper()
	var got []uint64
	if err := tr.RangeQuery(rect, func(_ geometry.Point, payload uint64) bool {
		got = append(got, payload)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	return got
}

func randRect(rng *rand.Rand, dims int) geometry.Rect {
	r := geometry.UniverseRect(dims)
	for d := 0; d < dims; d++ {
		a, b := rng.Uint64(), rng.Uint64()
		if a > b {
			a, b = b, a
		}
		switch rng.Intn(4) {
		case 0: // large window: exercises containment + fan-out
			r.Min[d], r.Max[d] = a/8, ^uint64(0)-(^uint64(0)-b)/8
		case 1: // point-like: exercises the guard-set descent
			r.Min[d], r.Max[d] = a, a
		default:
			r.Min[d], r.Max[d] = a, b
		}
		if r.Min[d] > r.Max[d] {
			r.Min[d], r.Max[d] = r.Max[d], r.Min[d]
		}
	}
	return r
}

// blobItems is the size of the mid-sized window class: the 4097 items of
// BenchmarkRangeDrive's smaller windows.
const blobItems = 4097

// withBlob appends blobItems points packed into one 2^32-wide square, far
// from the diagonal clusteredPoint draws around, and returns the extended
// set with that square: a window that is wide in subtrees and next to
// nothing in volume. Each test checks against its own oracle how many
// points the window holds.
func withBlob(rng *rand.Rand, pts []geometry.Point) ([]geometry.Point, geometry.Rect) {
	const side = 1 << 32
	blob := geometry.Rect{Min: geometry.Point{1 << 62, 3 << 62}, Max: geometry.Point{1<<62 + side - 1, 3<<62 + side - 1}}
	for i := 0; i < blobItems; i++ {
		pts = append(pts, geometry.Point{blob.Min[0] + rng.Uint64()%side, blob.Min[1] + rng.Uint64()%side})
	}
	return pts, blob
}

// TestParallelRangeDifferential: on every backend, for a pile of random
// rectangles and for the blob window, the walk returns exactly the
// multiset of the linear-scan oracle — checked against rangeScalar too on
// the blob window — and a Scan delivers every payload once.
func TestParallelRangeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := make([]geometry.Point, 4000)
	for i := range pts {
		if i%3 == 0 {
			pts[i] = clusteredPoint(rng, 2)
		} else {
			pts[i] = randPoint(rng, 2)
		}
	}
	pts, blob := withBlob(rng, pts)
	n := len(pts)
	linearScan := func(rect geometry.Rect) (oracle []uint64) {
		for i, p := range pts {
			if rect.Contains(p) {
				oracle = append(oracle, uint64(i)) // in payload order
			}
		}
		return oracle
	}
	opt := Options{Dims: 2, DataCapacity: 8, Fanout: 8}
	rangeBackends(t, pts, opt, func(t *testing.T, tr *Tree) {
		for trial := 0; trial < 25; trial++ {
			rect := randRect(rng, 2)
			oracle := linearScan(rect)
			if got := collectRange(t, tr, rect); fmt.Sprint(got) != fmt.Sprint(oracle) {
				t.Fatalf("trial %d: walk diverged from oracle: %d vs %d hits", trial, len(got), len(oracle))
			}
		}
		oracle := linearScan(blob)
		var ref []uint64
		for _, it := range referenceItems(t, tr, blob) {
			ref = append(ref, it.Payload)
		}
		slices.Sort(ref)
		if len(oracle) != blobItems || fmt.Sprint(ref) != fmt.Sprint(oracle) {
			t.Fatalf("blob window: %d points by linear scan, %d by rangeScalar, want %d", len(oracle), len(ref), blobItems)
		}
		if got := collectRange(t, tr, blob); fmt.Sprint(got) != fmt.Sprint(oracle) {
			t.Fatalf("blob window: %d hits, oracle %d", len(got), len(oracle))
		}
		// Scan must deliver everything once.
		full := collectRange(t, tr, geometry.UniverseRect(2))
		if len(full) != n {
			t.Fatalf("universe scan visited %d of %d", len(full), n)
		}
		for i, p := range full {
			if p != uint64(i) {
				t.Fatalf("universe scan payload %d at position %d", p, i)
			}
		}
	})
}

// TestParallelRangeEarlyStop: a visitor returning false stops the query
// with a nil error and no further visits, in the middle of a page (on
// paged-file, of a blob-decoded one), on a Scan and on the blob window.
func TestParallelRangeEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := make([]geometry.Point, 6000)
	for i := range pts {
		pts[i] = randPoint(rng, 2)
	}
	pts, blob := withBlob(rng, pts)
	rangeBackends(t, pts, Options{Dims: 2, DataCapacity: 8, Fanout: 8}, func(t *testing.T, tr *Tree) {
		for name, rect := range map[string]geometry.Rect{"scan": geometry.UniverseRect(2), "blob": blob} {
			for _, limit := range []int{1, 10, 500} {
				visits := 0
				stopped := false
				err := tr.RangeQuery(rect, func(geometry.Point, uint64) bool {
					if stopped {
						t.Fatal("visit after the visitor returned false")
					}
					visits++
					if visits >= limit {
						stopped = true
						return false
					}
					return true
				})
				if err != nil {
					t.Fatalf("%s limit %d: early stop returned %v", name, limit, err)
				}
				if visits != limit {
					t.Fatalf("%s limit %d: visited %d", name, limit, visits)
				}
			}
		}
	})
}

// TestParallelRangeErrorCancels: a read error in the middle of a scan
// surfaces to the caller, for visit and count alike, instead of a hang, a
// panic or a silently short answer. Each run reopens the tree cold over a
// fault store that trips a few dozen reads in, on a Scan and on the blob
// window alike.
func TestParallelRangeErrorCancels(t *testing.T) {
	inner := storage.NewMemStore()
	tr, err := Open(inner, nil, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(73))
	pts := make([]geometry.Point, 4000)
	for i := range pts {
		pts[i] = randPoint(rng, 2)
	}
	pts, blob := withBlob(rng, pts)
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, rect := range map[string]geometry.Rect{"scan": geometry.UniverseRect(2), "blob": blob} {
		for _, counting := range []bool{false, true} {
			fs := fault.NewStore(inner, 40)
			cold, err := Open(fs, nil, Options{CacheNodes: 16})
			if err != nil {
				t.Fatal(err)
			}
			visits := 0
			if counting {
				_, err = cold.Count(rect)
			} else {
				err = cold.RangeQuery(rect, func(geometry.Point, uint64) bool { visits++; return true })
			}
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("%s counting %v: query over tripped store returned %v", name, counting, err)
			}
			if !counting && visits == 0 {
				t.Fatalf("%s: the store tripped before the walker delivered anything: not a mid-scan fault", name)
			}
		}
	}
}

// TestParallelRangeCountMatches: Count's count-only walk agrees with a
// linear scan of the points on random workloads and rectangles and on
// the blob window — RangeQuery shares the walker with Count, so it is no
// oracle for it.
func TestParallelRangeCountMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	pts := make([]geometry.Point, 5000)
	for i := range pts {
		pts[i] = clusteredPoint(rng, 2)
	}
	pts, blob := withBlob(rng, pts)
	rangeBackends(t, pts, Options{Dims: 2, DataCapacity: 8, Fanout: 8}, func(t *testing.T, tr *Tree) {
		want := 0
		for _, p := range pts {
			if blob.Contains(p) {
				want++
			}
		}
		got, err := tr.Count(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || want != blobItems {
			t.Fatalf("blob window: Count %d, linear scan %d, appended %d", got, want, blobItems)
		}
		for trial := 0; trial < 30; trial++ {
			rect := randRect(rng, 2)
			want := 0
			for _, p := range pts {
				if rect.Contains(p) {
					want++
				}
			}
			got, err := tr.Count(rect)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d: Count %d, linear scan %d", trial, got, want)
			}
		}
		if c, err := tr.Count(geometry.UniverseRect(2)); err != nil || c != len(pts) {
			t.Fatalf("universe count %d err %v", c, err)
		}
	})
}

// TestRangeRunsInline: every range, count, scan and partial-match
// traversal runs on the caller's goroutine, however many CPUs the host
// has and whatever the caller asks for — a tree built with default
// Options, one built with RangeWorkers 4, a reopened one, and a Snapshot
// of each, and RangeQueryWorkers at eight workers on the blob window: no
// goroutine beyond those running before the call, neither while the
// visitor runs nor afterwards.
func TestRangeRunsInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	pts, err := workload.Generate(workload.Clustered, 2, 8000, 78)
	if err != nil {
		t.Fatal(err)
	}
	pts, blob := withBlob(rand.New(rand.NewSource(78)), pts)
	xs := make([]uint64, len(pts))
	for i, p := range pts {
		xs[i] = p[0]
	}
	slices.Sort(xs)
	universe, half := geometry.UniverseRect(2), geometry.UniverseRect(2)
	half.Max[0] = xs[len(xs)/2-1]
	inHalf, onColumn, inBlob := 0, 0, 0 // by linear scan
	for _, p := range pts {
		if p[0] <= half.Max[0] {
			inHalf++
		}
		if p[0] == pts[0][0] {
			onColumn++
		}
		if blob.Contains(p) {
			inBlob++
		}
	}
	load := func(tr *Tree) *Tree {
		t.Helper()
		for i, p := range pts {
			if err := tr.Insert(p, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	check := func(name string, v *Tree) {
		t.Helper()
		// Each run reports how many items its visitor must have seen.
		runs := map[string]func(Visitor) (int, error){
			"Scan":         func(visit Visitor) (int, error) { return len(pts), v.Scan(visit) },
			"half window":  func(visit Visitor) (int, error) { return inHalf, v.RangeQuery(half, visit) },
			"PartialMatch": func(visit Visitor) (int, error) { return onColumn, v.PartialMatch(pts[0], []bool{true, false}, visit) },
			"blob at 8 workers": func(visit Visitor) (int, error) {
				return inBlob, v.RangeQueryWorkers(blob, visit, 8)
			},
			"Count": func(Visitor) (int, error) {
				n, err := v.Count(universe)
				if n != len(pts) {
					t.Errorf("%s: Count of everything = %d, want %d", name, n, len(pts))
				}
				return 0, err
			},
		}
		for query, run := range runs {
			before := runtime.NumGoroutine()
			items, during := 0, before
			want, err := run(func(geometry.Point, uint64) bool {
				items++
				during = max(during, runtime.NumGoroutine())
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if items != want {
				t.Fatalf("%s, %s: %d items, want %d", name, query, items, want)
			}
			if after := runtime.NumGoroutine(); during != before || after != before {
				t.Errorf("%s, %s: %d goroutines before the call, %d during, %d after", name, query, before, during, after)
			}
		}
	}
	checkWithSnapshot := func(name string, tr *Tree) {
		t.Helper()
		check(name, tr)
		snap, err := tr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Release()
		check(name+" snapshot", snap.v)
	}

	mem, err := New(Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkWithSnapshot("in-memory", load(mem))
	asked, err := New(Options{Dims: 2, RangeWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkWithSnapshot("in-memory, RangeWorkers 4", load(asked))

	st := storage.NewMemStore()
	paged, err := Open(st, nil, Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkWithSnapshot("paged", load(paged))
	reopened, err := Open(st, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkWithSnapshot("reopened paged", reopened)

	dir := t.TempDir()
	fopt := storage.FileStoreOptions{}
	fst, err := storage.OpenFileStore(filepath.Join(dir, "d.bv"), fopt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := openLogged(fst, filepath.Join(dir, "d.wal"), Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([]uint64, len(pts))
	for i := range payloads {
		payloads[i] = uint64(i)
	}
	if err := d.BulkLoad(pts, payloads); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}
	if fst, err = storage.OpenFileStore(filepath.Join(dir, "d.bv"), fopt); err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	if d, err = openLogged(fst, filepath.Join(dir, "d.wal"), Options{}); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	checkWithSnapshot("reopened durable", d)
}

// TestParallelRangeCountersAgree: the traversal counters mean one thing.
// A mixed set of windows (universe, half-space, point-like, empty) over a
// reopened — hence cold — paged tree must move RangeFullPages,
// RangeEmptyPages and NodeAccesses, and the data pages read from the
// store (cache.data_reads), by the same amounts whether it is visited or
// counted.
func TestParallelRangeCountersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	pts := make([]geometry.Point, 6000)
	for i := range pts {
		pts[i] = clusteredPoint(rng, 2)
	}
	st := storage.NewMemStore()
	tr, err := Open(st, nil, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
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
	half := geometry.UniverseRect(2)
	half.Max[0] = 1 << 63
	windows := []geometry.Rect{geometry.UniverseRect(2), half}
	for i := 0; i < 20; i++ {
		windows = append(windows, geometry.Rect{Min: pts[i*37], Max: pts[i*37]})
		// One coordinate off a stored point: a window the page holding
		// that point meets, which holds nothing unless a neighbour sits
		// exactly there.
		q := pts[i*37].Clone()
		q[0]++
		windows = append(windows, geometry.Rect{Min: q, Max: q})
	}
	type delta struct{ full, dataReads, empty, nodes uint64 }
	var visited delta
	for _, counting := range []bool{false, true} {
		cold, err := Open(st, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		reads := cold.Metrics().Cache.DataReads
		for _, rect := range windows {
			if counting {
				_, err = cold.Count(rect)
			} else {
				err = cold.RangeQuery(rect, func(geometry.Point, uint64) bool { return true })
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		s := cold.Stats()
		got := delta{s.RangeFullPages, cold.Metrics().Cache.DataReads - reads, s.RangeEmptyPages, s.NodeAccesses}
		if got.full == 0 || got.dataReads == 0 || got.empty == 0 {
			t.Fatalf("counting %v: %+v — the universe scan found no full page, no data page was read from the store, or no window met an empty page", counting, got)
		}
		if !counting {
			visited = got
		} else if got != visited {
			t.Fatalf("counting moved the counters by %+v, visiting by %+v", got, visited)
		}
	}
}

// TestParallelRangeRejectsMalformedRect: a rectangle whose Min or Max
// does not have the tree's dimensionality is an error — not a panic — at
// every entry; an inverted one (Min > Max in some dimension) holds
// nothing and says so without error or a node fetched.
func TestParallelRangeRejectsMalformedRect(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(randPoint(rng, 2), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	visit := func(geometry.Point, uint64) bool { t.Fatal("visited an item of a malformed rect"); return false }
	calls := map[string]func(geometry.Rect) error{
		"RangeQuery":          func(r geometry.Rect) error { return tr.RangeQuery(r, visit) },
		"Count":               func(r geometry.Rect) error { _, err := tr.Count(r); return err },
		"Snapshot.RangeQuery": func(r geometry.Rect) error { return snap.RangeQuery(r, visit) },
		"Snapshot.Count":      func(r geometry.Rect) error { _, err := snap.Count(r); return err },
	}
	// Unsigned, Max-Min of the inverted dimension wraps to nearly the
	// whole axis: a volume estimate would call this window huge.
	max := ^uint64(0)
	inverted := geometry.Rect{Min: geometry.Point{max, 0}, Max: geometry.Point{0, max}}
	for name, call := range calls {
		for _, r := range []geometry.Rect{
			{Min: geometry.Point{1, 2}, Max: geometry.Point{3}},
			{Min: geometry.Point{1}, Max: geometry.Point{3, 4}},
			{Min: geometry.Point{1, 2, 3}, Max: geometry.Point{4, 5, 6}},
			{},
		} {
			if err := call(r); !errors.Is(err, errRectDims) {
				t.Fatalf("%s(%v) returned %v, want errRectDims", name, r, err)
			}
		}
		nodes := tr.Stats().NodeAccesses
		if err := call(inverted); err != nil {
			t.Fatalf("%s on an inverted rect returned %v", name, err)
		}
		if got := tr.Stats().NodeAccesses; got != nodes {
			t.Fatalf("%s on an inverted rect fetched %d nodes", name, got-nodes)
		}
	}
	if n, err := tr.Count(inverted); n != 0 || err != nil {
		t.Fatalf("Count of an inverted rect = %d, %v", n, err)
	}
	snap.Release()
}

// TestConcurrentRangeQueries joins concurrent range queries and counts
// with concurrent inserts and deletes; the TestConcurrent* prefix puts it
// under the race detector in `make verify`. Writers churn the second half of the points, so readers
// assert only over the stable first half.
func TestConcurrentRangeQueries(t *testing.T) {
	st, err := storage.OpenFileStore(filepath.Join(t.TempDir(), "cr.bv"), storage.FileStoreOptions{SlotSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr, err := Open(st, nil, Options{Dims: 2, DataCapacity: 8, Fanout: 8, CacheNodes: 48})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(75))
	const stable = 2000
	pts := make([]geometry.Point, stable)
	for i := range pts {
		pts[i] = randPoint(rng, 2)
		if err := tr.Insert(pts[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	// Writers: churn points with payloads ≥ stable.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(80 + w)))
			for i := 0; i < 400 && !stop.Load(); i++ {
				p := randPoint(wrng, 2)
				payload := uint64(stable + w*1000 + i)
				if err := tr.Insert(p, payload); err != nil {
					errs <- err
					return
				}
				if i%2 == 0 {
					if _, err := tr.Delete(p, payload); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	// Readers: full scans and counts; stable points must always be
	// present exactly once.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 30 && !stop.Load(); i++ {
				seen := make(map[uint64]int)
				err := tr.RangeQuery(geometry.UniverseRect(2), func(_ geometry.Point, payload uint64) bool {
					seen[payload]++ // plain map write: delivery must be single-threaded
					return true
				})
				if err != nil {
					errs <- err
					return
				}
				for s := 0; s < stable; s++ {
					if seen[uint64(s)] != 1 {
						errs <- fmt.Errorf("reader %d: stable payload %d seen %d times", r, s, seen[uint64(s)])
						return
					}
				}
				if n, err := tr.Count(geometry.UniverseRect(2)); err != nil || n < stable {
					errs <- fmt.Errorf("reader %d: universe count %d err %v", r, n, err)
					return
				}
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case err := <-errs:
		stop.Store(true)
		<-done
		t.Fatal(err)
	case <-done:
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
}
