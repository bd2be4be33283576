package bvtree

// Differential and stress coverage for the range-traversal core
// (parallel.go): one walker, run inline (workers=1), through the spin-up
// expansion, and on the engine's pool. Every backend's results at every
// worker count are compared against a linear scan of the inserted points
// — the walker is the same code at workers=1, so it is no reference for
// itself. TestParallelRange* is part of the `make verify` race smoke
// together with TestConcurrent*, so the visitor single-threading claim
// below is checked by the race detector, not just by assertion: the
// visitors mutate plain ints.

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
		tr, err := NewPaged(storage.NewMemStore(), opt)
		if err != nil {
			t.Fatal(err)
		}
		fn(t, load(t, tr))
	})
	t.Run("paged-file", func(t *testing.T) {
		st, err := storage.CreateFileStore(filepath.Join(t.TempDir(), "p.bv"), storage.FileStoreOptions{SlotSize: 512, PoolSlots: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		popt := opt
		popt.CacheNodes = 64 // small: most engine reads go through blobs
		tr, err := NewPaged(st, popt)
		if err != nil {
			t.Fatal(err)
		}
		fn(t, load(t, tr))
	})
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		st, err := storage.CreateFileStore(filepath.Join(dir, "d.bv"), storage.FileStoreOptions{SlotSize: 512, PinDirty: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		d, err := NewDurable(st, filepath.Join(dir, "d.wal"), opt)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		fn(t, load(t, d.Tree))
	})
}

// resultSet collects (payload) hits into a sortable signature. Payloads
// are unique per point here, so the multiset of payloads identifies the
// result multiset exactly.
func collectRange(t *testing.T, tr *Tree, rect geometry.Rect, workers int) []uint64 {
	t.Helper()
	var got []uint64
	if err := tr.RangeQueryWorkers(rect, func(_ geometry.Point, payload uint64) bool {
		got = append(got, payload)
		return true
	}, workers); err != nil {
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
		case 1: // point-like: exercises the funnel's serial tail
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

// blobItems is the size of the mid-sized window class: large enough that
// its frontier reaches spinUpFanout at any worker count used here, small
// enough that the pool's start-up is most of its cost.
const blobItems = 4097

// withBlob appends blobItems points packed into one 2^32-wide square, far
// from the diagonal clusteredPoint draws around, and returns the extended
// set with that square: a window that is wide in subtrees and next to
// nothing in volume, which an estimate of the second must not keep from a
// caller who asked for workers. Each test checks against its own oracle
// that the window holds exactly the appended points.
func withBlob(rng *rand.Rand, pts []geometry.Point) ([]geometry.Point, geometry.Rect) {
	const side = 1 << 32
	blob := geometry.Rect{Min: geometry.Point{1 << 62, 3 << 62}, Max: geometry.Point{1<<62 + side - 1, 3<<62 + side - 1}}
	for i := 0; i < blobItems; i++ {
		pts = append(pts, geometry.Point{blob.Min[0] + rng.Uint64()%side, blob.Min[1] + rng.Uint64()%side})
	}
	return pts, blob
}

// TestParallelRangeDifferential: on every backend, for a pile of random
// rectangles and for the blob window, the engine at several worker counts
// returns exactly the multiset of the linear-scan oracle and of the
// serial walk — for RangeQuery, Scan and PartialMatch alike — and the
// blob window, checked against rangeScalar too, does reach the pool.
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
			serial := collectRange(t, tr, rect, 1)
			if fmt.Sprint(serial) != fmt.Sprint(oracle) {
				t.Fatalf("trial %d: serial walk diverged from oracle: %d vs %d hits", trial, len(serial), len(oracle))
			}
			for _, workers := range []int{2, 4, 8} {
				par := collectRange(t, tr, rect, workers)
				if fmt.Sprint(par) != fmt.Sprint(oracle) {
					t.Fatalf("trial %d workers %d: engine diverged: %d vs %d hits", trial, workers, len(par), len(oracle))
				}
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
		for _, workers := range []int{1, 2, 8} {
			tasks := tr.Stats().RangeTasks
			if got := collectRange(t, tr, blob, workers); fmt.Sprint(got) != fmt.Sprint(oracle) {
				t.Fatalf("blob window at workers %d: %d hits, oracle %d", workers, len(got), len(oracle))
			}
			if ran := tr.Stats().RangeTasks - tasks; (ran > 0) != (workers > 1) {
				t.Fatalf("blob window at workers %d ran %d engine tasks", workers, ran)
			}
		}
		// Scan must deliver everything once, via the engine too.
		full := collectRange(t, tr, geometry.UniverseRect(2), 4)
		if len(full) != n {
			t.Fatalf("parallel universe scan visited %d of %d", len(full), n)
		}
		for i, p := range full {
			if p != uint64(i) {
				t.Fatalf("universe scan payload %d at position %d", p, i)
			}
		}
	})
}

// TestParallelRangeEarlyStop: a visitor returning false stops the query
// with a nil error and no further visits — inline in the middle of a
// page (on paged-file, of a blob-decoded one), and with the pool
// saturated with in-flight batches, on a Scan and on the blob window.
func TestParallelRangeEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := make([]geometry.Point, 6000)
	for i := range pts {
		pts[i] = randPoint(rng, 2)
	}
	pts, blob := withBlob(rng, pts)
	rangeBackends(t, pts, Options{Dims: 2, DataCapacity: 8, Fanout: 8}, func(t *testing.T, tr *Tree) {
		for name, rect := range map[string]geometry.Rect{"scan": geometry.UniverseRect(2), "blob": blob} {
			for _, workers := range []int{1, 2, 8} {
				tasks := tr.Stats().RangeTasks
				for _, limit := range []int{1, 10, 500} {
					visits := 0
					stopped := false
					err := tr.RangeQueryWorkers(rect, func(geometry.Point, uint64) bool {
						if stopped {
							t.Fatal("visit after the visitor returned false")
						}
						visits++
						if visits >= limit {
							stopped = true
							return false
						}
						return true
					}, workers)
					if err != nil {
						t.Fatalf("%s workers %d limit %d: early stop returned %v", name, workers, limit, err)
					}
					if visits != limit {
						t.Fatalf("%s workers %d limit %d: visited %d", name, workers, limit, visits)
					}
				}
				if ran := tr.Stats().RangeTasks - tasks; (ran > 0) != (workers > 1) {
					t.Fatalf("%s at workers %d: the three stopped queries ran %d engine tasks", name, workers, ran)
				}
			}
		}
	})
}

// TestParallelRangeErrorCancels: a read error in the middle of a scan
// surfaces to the caller, for visit and count alike — from the inline
// walker, and from the engine, which joins all workers and returns
// instead of hanging or panicking. Each run reopens the tree cold over a
// fault store that trips a few dozen reads in, once the pool — on a Scan
// and on the blob window alike — has taken over.
func TestParallelRangeErrorCancels(t *testing.T) {
	inner := storage.NewMemStore()
	tr, err := NewPaged(inner, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
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
		for _, workers := range []int{1, 2, 8} {
			for _, counting := range []bool{false, true} {
				fs := fault.NewStore(inner, 40)
				cold, err := OpenPaged(fs, 16)
				if err != nil {
					t.Fatal(err)
				}
				visits := 0
				if counting {
					_, err = cold.CountWorkers(rect, workers)
				} else {
					err = cold.RangeQueryWorkers(rect, func(geometry.Point, uint64) bool { visits++; return true }, workers)
				}
				if !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("%s workers %d counting %v: query over tripped store returned %v", name, workers, counting, err)
				}
				if workers == 1 && !counting && visits == 0 {
					t.Fatal("the store tripped before the inline walker delivered anything: not a mid-scan fault")
				}
				if ran := cold.Stats().RangeTasks; (ran > 0) != (workers > 1) {
					t.Fatalf("%s at workers %d counting %v: %d engine tasks before the fault", name, workers, counting, ran)
				}
			}
		}
	}
}

// TestParallelRangeCountMatches: Count's count-only sink (inline and
// engine) agrees with a linear scan of the points on random workloads
// and rectangles — RangeQuery shares the walker with Count, so it is no
// oracle for it — and counts the blob window on the pool.
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
		for _, workers := range []int{2, 8} {
			tasks := tr.Stats().RangeTasks
			got, err := tr.CountWorkers(blob, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || want != blobItems {
				t.Fatalf("blob window at workers %d: Count %d, linear scan %d, appended %d", workers, got, want, blobItems)
			}
			if tr.Stats().RangeTasks == tasks {
				t.Fatalf("blob window at workers %d was counted without the pool", workers)
			}
		}
		for trial := 0; trial < 30; trial++ {
			rect := randRect(rng, 2)
			want := 0
			for _, p := range pts {
				if rect.Contains(p) {
					want++
				}
			}
			for _, workers := range []int{1, 4} {
				got, err := tr.CountWorkers(rect, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d workers %d: Count %d, linear scan %d", trial, workers, got, want)
				}
			}
		}
		if c, err := tr.Count(geometry.UniverseRect(2)); err != nil || c != len(pts) {
			t.Fatalf("universe count %d err %v", c, err)
		}
	})
}

// TestParallelRangeOneItemWindowSkipsEngine: since the guard-set pruning
// made a point-like window's frontier one subtree wide, a one-item
// window asked for at two workers runs the spin-up expansion, never
// reaches spinUpFanout and so never builds an engine, and costs what the
// same point's Lookup costs.
func TestParallelRangeOneItemWindowSkipsEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	pts := make([]geometry.Point, 6000)
	for i := range pts {
		pts[i] = clusteredPoint(rng, 2)
	}
	rangeBackends(t, pts, Options{Dims: 2, DataCapacity: 8, Fanout: 8}, func(t *testing.T, tr *Tree) {
		tasks := tr.Stats().RangeTasks
		for i := 0; i < len(pts); i += 29 {
			p := pts[i]
			rect := geometry.Rect{Min: p, Max: p}
			nodes, _, err := tr.SearchCost(p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tr.Lookup(p)
			if err != nil {
				t.Fatal(err)
			}
			runs := map[string]func() (int, error){
				"RangeQueryWorkers": func() (n int, err error) {
					return n, tr.RangeQueryWorkers(rect, func(geometry.Point, uint64) bool { n++; return true }, 2)
				},
				"CountWorkers": func() (int, error) { return tr.CountWorkers(rect, 2) },
			}
			for name, run := range runs {
				tr.ResetAccessCount()
				got, err := run()
				if err != nil {
					t.Fatal(err)
				}
				if got != len(want) {
					t.Fatalf("%s at %v: %d items, Lookup returns %d", name, p, got, len(want))
				}
				if n := int(tr.ResetAccessCount()); n != nodes {
					t.Fatalf("%s at %v touched %d nodes, Lookup touches %d", name, p, n, nodes)
				}
			}
		}
		if got := tr.Stats().RangeTasks; got != tasks {
			t.Fatalf("one-item windows at two workers ran %d engine tasks", got-tasks)
		}
	})
}

// TestRangeDefaultRunsInline: a tree nobody configured — built with
// default Options, or reopened, which takes none — runs every range,
// count, scan and partial-match traversal on the caller's goroutine
// however many CPUs the host has, and so does a Snapshot of it: no engine
// task, and no goroutine beyond those running before the call, neither
// while the visitor runs nor afterwards.
func TestRangeDefaultRunsInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	pts, err := workload.Generate(workload.Clustered, 2, 8000, 78)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]uint64, len(pts))
	for i, p := range pts {
		xs[i] = p[0]
	}
	slices.Sort(xs)
	universe, half := geometry.UniverseRect(2), geometry.UniverseRect(2)
	half.Max[0] = xs[len(xs)/2-1]
	inHalf, onColumn := 0, 0 // by linear scan
	for _, p := range pts {
		if p[0] <= half.Max[0] {
			inHalf++
		}
		if p[0] == pts[0][0] {
			onColumn++
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
			"Count": func(Visitor) (int, error) {
				n, err := v.Count(universe)
				if n != len(pts) {
					t.Errorf("%s: Count of everything = %d, want %d", name, n, len(pts))
				}
				return 0, err
			},
		}
		for query, run := range runs {
			tasks, before := v.Stats().RangeTasks, runtime.NumGoroutine()
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
			if ran := v.Stats().RangeTasks - tasks; ran != 0 {
				t.Errorf("%s, %s: %d engine tasks on a tree with default options", name, query, ran)
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

	st := storage.NewMemStore()
	paged, err := NewPaged(st, Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkWithSnapshot("paged", load(paged))
	reopened, err := OpenPaged(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkWithSnapshot("reopened paged", reopened)

	dir := t.TempDir()
	fopt := storage.FileStoreOptions{PinDirty: true}
	fst, err := storage.CreateFileStore(filepath.Join(dir, "d.bv"), fopt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(fst, filepath.Join(dir, "d.wal"), Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([]uint64, len(pts))
	for i := range payloads {
		payloads[i] = uint64(i)
	}
	if err := d.InsertBatch(pts, payloads); err != nil {
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
	if d, err = OpenDurable(fst, filepath.Join(dir, "d.wal"), 0); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	checkWithSnapshot("reopened durable", d.Tree)
}

// TestParallelRangeCountersAgree: the traversal counters mean one thing.
// A mixed set of windows (universe, half-space, point-like) over a
// reopened — hence cold, blob-served — paged tree must move
// RangeFullPages, RangeBatchPages and NodeAccesses by the same amounts
// whether it is visited or counted, inline or at two workers.
func TestParallelRangeCountersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	pts := make([]geometry.Point, 6000)
	for i := range pts {
		pts[i] = clusteredPoint(rng, 2)
	}
	st := storage.NewMemStore()
	tr, err := NewPaged(st, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
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
	}
	type delta struct{ full, batch, nodes uint64 }
	var first delta
	for _, workers := range []int{1, 2} {
		for _, counting := range []bool{false, true} {
			cold, err := OpenPaged(st, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, rect := range windows {
				if counting {
					_, err = cold.CountWorkers(rect, workers)
				} else {
					err = cold.RangeQueryWorkers(rect, func(geometry.Point, uint64) bool { return true }, workers)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			s := cold.Stats()
			got := delta{s.RangeFullPages, s.RangeBatchPages, s.NodeAccesses}
			if got.full == 0 || got.batch == 0 {
				t.Fatalf("workers %d counting %v: %+v — the universe scan found no full page, or nothing was batch-read", workers, counting, got)
			}
			if workers == 2 && s.RangeTasks == 0 {
				t.Fatal("the engine never engaged at two workers")
			}
			if first == (delta{}) {
				first = got
			} else if got != first {
				t.Fatalf("workers %d counting %v moved the counters by %+v, workers 1 visiting by %+v", workers, counting, got, first)
			}
		}
	}
}

// TestParallelRangeRejectsMalformedRect: a rectangle whose Min or Max
// does not have the tree's dimensionality is an error — not a panic — at
// every entry; an inverted one (Min > Max in some dimension) holds
// nothing, says so without error and never engages the pool.
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
		"RangeQueryWorkers/8": func(r geometry.Rect) error { return tr.RangeQueryWorkers(r, visit, 8) },
		"Count":               func(r geometry.Rect) error { _, err := tr.Count(r); return err },
		"CountWorkers/8":      func(r geometry.Rect) error { _, err := tr.CountWorkers(r, 8); return err },
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
		tasks := tr.Stats().RangeTasks
		if err := call(inverted); err != nil {
			t.Fatalf("%s on an inverted rect returned %v", name, err)
		}
		if got := tr.Stats().RangeTasks; got != tasks {
			t.Fatalf("%s on an inverted rect ran %d engine tasks", name, got-tasks)
		}
	}
	if n, err := tr.Count(inverted); n != 0 || err != nil {
		t.Fatalf("Count of an inverted rect = %d, %v", n, err)
	}
	snap.Release()
}

// TestConcurrentRangeQueries joins parallel range queries (the engine's
// worker pool inside each reader) with concurrent inserts and deletes;
// the TestConcurrent* prefix puts it under the race detector in `make
// verify`. Writers churn the second half of the points, so readers
// assert only over the stable first half.
func TestConcurrentRangeQueries(t *testing.T) {
	st, err := storage.CreateFileStore(filepath.Join(t.TempDir(), "cr.bv"), storage.FileStoreOptions{SlotSize: 512, PoolSlots: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr, err := NewPaged(st, Options{Dims: 2, DataCapacity: 8, Fanout: 8, CacheNodes: 48, RangeWorkers: 4})
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
	// Readers: full scans and windows through the engine; stable points
	// must always be present exactly once.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 30 && !stop.Load(); i++ {
				seen := make(map[uint64]int)
				err := tr.RangeQueryWorkers(geometry.UniverseRect(2), func(_ geometry.Point, payload uint64) bool {
					seen[payload]++ // plain map write: delivery must be single-threaded
					return true
				}, 4)
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
				if n, err := tr.CountWorkers(geometry.UniverseRect(2), 4); err != nil || n < stable {
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
