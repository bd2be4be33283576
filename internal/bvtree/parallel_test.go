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
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"bvtree/internal/fault"
	"bvtree/internal/geometry"
	"bvtree/internal/storage"
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

// TestParallelRangeDifferential: on every backend, for a pile of random
// rectangles, the engine at several worker counts returns exactly the
// multiset of the linear-scan oracle and of the serial walk — for
// RangeQuery, Scan and PartialMatch alike.
func TestParallelRangeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n = 4000
	pts := make([]geometry.Point, n)
	for i := range pts {
		if i%3 == 0 {
			pts[i] = clusteredPoint(rng, 2)
		} else {
			pts[i] = randPoint(rng, 2)
		}
	}
	opt := Options{Dims: 2, DataCapacity: 8, Fanout: 8}
	rangeBackends(t, pts, opt, func(t *testing.T, tr *Tree) {
		for trial := 0; trial < 25; trial++ {
			rect := randRect(rng, 2)
			var oracle []uint64
			for i, p := range pts {
				if rect.Contains(p) {
					oracle = append(oracle, uint64(i))
				}
			}
			sort.Slice(oracle, func(i, j int) bool { return oracle[i] < oracle[j] })
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
		if tr.paged != nil {
			if s := tr.Stats(); s.RangeTasks == 0 {
				t.Fatal("engine never engaged on a branching workload")
			}
		}
	})
}

// TestParallelRangeEarlyStop: a visitor returning false stops the query
// with a nil error and no further visits — inline in the middle of a
// page (on paged-file, of a blob-decoded one), and with the pool
// saturated with in-flight batches.
func TestParallelRangeEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := make([]geometry.Point, 6000)
	for i := range pts {
		pts[i] = randPoint(rng, 2)
	}
	rangeBackends(t, pts, Options{Dims: 2, DataCapacity: 8, Fanout: 8}, func(t *testing.T, tr *Tree) {
		for _, workers := range []int{1, 2, 8} {
			for _, limit := range []int{1, 10, 500} {
				visits := 0
				stopped := false
				err := tr.RangeQueryWorkers(geometry.UniverseRect(2), func(geometry.Point, uint64) bool {
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
					t.Fatalf("workers %d limit %d: early stop returned %v", workers, limit, err)
				}
				if visits != limit {
					t.Fatalf("workers %d limit %d: visited %d", workers, limit, visits)
				}
			}
		}
	})
}

// TestParallelRangeErrorCancels: a read error in the middle of a scan
// surfaces to the caller, for visit and count alike — from the inline
// walker, and from the engine, which joins all workers and returns
// instead of hanging or panicking. Each run reopens the tree cold over a
// fault store that trips a few dozen reads in.
func TestParallelRangeErrorCancels(t *testing.T) {
	inner := storage.NewMemStore()
	tr, err := NewPaged(inner, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(73))
	for i := 0; i < 4000; i++ {
		if err := tr.Insert(randPoint(rng, 2), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, counting := range []bool{false, true} {
			fs := fault.NewStore(inner, 40)
			cold, err := OpenPaged(fs, 16)
			if err != nil {
				t.Fatal(err)
			}
			visits := 0
			if counting {
				_, err = cold.CountWorkers(geometry.UniverseRect(2), workers)
			} else {
				err = cold.RangeQueryWorkers(geometry.UniverseRect(2), func(geometry.Point, uint64) bool { visits++; return true }, workers)
			}
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("workers %d counting %v: query over tripped store returned %v", workers, counting, err)
			}
			if workers == 1 && !counting && visits == 0 {
				t.Fatal("the store tripped before the inline walker delivered anything: not a mid-scan fault")
			}
		}
	}
}

// TestParallelRangeCountMatches: Count's count-only sink (inline and
// engine) agrees with a linear scan of the points on random workloads
// and rectangles — RangeQuery shares the walker with Count, so it is no
// oracle for it.
func TestParallelRangeCountMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	pts := make([]geometry.Point, 5000)
	for i := range pts {
		pts[i] = clusteredPoint(rng, 2)
	}
	rangeBackends(t, pts, Options{Dims: 2, DataCapacity: 8, Fanout: 8}, func(t *testing.T, tr *Tree) {
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
// window asked for at two workers must never build an engine, and must
// cost what the same point's Lookup costs — through the public calls
// (which engineWorthwhile keeps off the expansion path altogether) and
// through walkRange's spin-up expansion entered directly, so the claim
// does not rest on that gate.
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
			v, release := tr.readView()
			runs := map[string]func() (int, error){
				"RangeQueryWorkers": func() (n int, err error) {
					return n, tr.RangeQueryWorkers(rect, func(geometry.Point, uint64) bool { n++; return true }, 2)
				},
				"CountWorkers": func() (int, error) { return tr.CountWorkers(rect, 2) },
				"walkRange": func() (n int, err error) {
					_, err = v.walkRange(rect, func(geometry.Point, uint64) bool { n++; return true }, 2, spinUpFanout(2))
					return n, err
				},
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
			release()
		}
		if got := tr.Stats().RangeTasks; got != tasks {
			t.Fatalf("one-item windows at two workers ran %d engine tasks", got-tasks)
		}
	})
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
// every entry, with and without a write-buffer overlay; an inverted one
// (Min > Max in some dimension) holds nothing, says so without error and
// never engages the pool.
func TestParallelRangeRejectsMalformedRect(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, bufferOps := range []int{0, 64} {
		tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8, BufferOps: bufferOps})
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
					t.Fatalf("bufferOps %d: %s(%v) returned %v, want errRectDims", bufferOps, name, r, err)
				}
			}
			tasks := tr.Stats().RangeTasks
			if err := call(inverted); err != nil {
				t.Fatalf("bufferOps %d: %s on an inverted rect returned %v", bufferOps, name, err)
			}
			if got := tr.Stats().RangeTasks; got != tasks {
				t.Fatalf("bufferOps %d: %s on an inverted rect ran %d engine tasks", bufferOps, name, got-tasks)
			}
		}
		if n, err := tr.Count(inverted); n != 0 || err != nil {
			t.Fatalf("Count of an inverted rect = %d, %v", n, err)
		}
		snap.Release()
	}
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
