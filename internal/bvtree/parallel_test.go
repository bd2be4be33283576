package bvtree

// Differential and stress coverage for the parallel range-query engine.
// The serial walk (workers=1) is the reference implementation; every
// backend's engine results are compared against it and against a linear
// scan of the inserted points. TestParallelRange* is part of the `make
// verify` race smoke together with TestConcurrent*, so the visitor
// single-threading claim below is checked by the race detector, not just
// by assertion: the visitors mutate plain ints.

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
// with a nil error and no further visits, even with the pool saturated
// with in-flight batches.
func TestParallelRangeEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := make([]geometry.Point, 6000)
	for i := range pts {
		pts[i] = randPoint(rng, 2)
	}
	rangeBackends(t, pts, Options{Dims: 2, DataCapacity: 8, Fanout: 8}, func(t *testing.T, tr *Tree) {
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
			}, 8)
			if err != nil {
				t.Fatalf("limit %d: early stop returned %v", limit, err)
			}
			if visits != limit {
				t.Fatalf("limit %d: visited %d", limit, visits)
			}
		}
	})
}

// TestParallelRangeErrorCancels: the first read error surfaces to the
// caller and cancels the query — the engine joins all workers and
// returns instead of hanging or panicking.
func TestParallelRangeErrorCancels(t *testing.T) {
	inner := storage.NewMemStore()
	fs := fault.NewStore(inner, 0)
	tr, err := NewPaged(fs, Options{Dims: 2, DataCapacity: 8, Fanout: 8, CacheNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(73))
	for i := 0; i < 4000; i++ {
		if err := tr.Insert(randPoint(rng, 2), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Drop the decoded cache so the query must hit the (armed) store.
	tr.endOp()
	for i := range tr.paged.shards {
		sh := &tr.paged.shards[i]
		sh.mu.Lock()
		for id := range sh.nodes {
			delete(sh.nodes, id)
			tr.paged.size.Add(-1)
		}
		sh.mu.Unlock()
	}
	fs.Arm()
	err = tr.RangeQueryWorkers(geometry.UniverseRect(2), func(geometry.Point, uint64) bool { return true }, 8)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("parallel query over tripped store returned %v", err)
	}
	if _, err := tr.CountWorkers(geometry.UniverseRect(2), 8); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("parallel count over tripped store returned %v", err)
	}
}

// TestParallelRangeCountMatches: Count's count-only traversal (serial
// and engine) agrees with counting through RangeQuery on random
// workloads and rectangles — the satellite acceptance test for the count
// fast path.
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
			if err := tr.RangeQueryWorkers(rect, func(geometry.Point, uint64) bool { want++; return true }, 1); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				got, err := tr.CountWorkers(rect, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d workers %d: Count %d, RangeQuery %d", trial, workers, got, want)
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
// through parallelRange's breadth-first expansion entered directly, so
// the claim does not rest on that gate.
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
				"parallelRange": func() (n int, err error) {
					return n, v.parallelRange(rect, func(geometry.Point, uint64) bool { n++; return true }, 2)
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
