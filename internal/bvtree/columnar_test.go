package bvtree

// Differential battery for the columnar node layout: a tree running the
// batched column predicates must be observably identical — encoded
// pages and query answers both — to one forced onto the pre-columnar
// scalar scans (Options.ScalarNodeScan), across backends and workload
// shapes. The TestColumnarConcurrent smoke runs under the race detector
// in `make verify`.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// qtree is the query surface shared by *Tree and *DurableTree.
type qtree interface {
	Insert(geometry.Point, uint64) error
	Delete(geometry.Point, uint64) (bool, error)
	Lookup(geometry.Point) ([]uint64, error)
	Len() int
	Scan(Visitor) error
	RangeQuery(geometry.Rect, Visitor) error
	RangeQueryWorkers(geometry.Rect, Visitor, int) error
	Count(geometry.Rect) (int, error)
	CountWorkers(geometry.Rect, int) (int, error)
	Nearest(geometry.Point, int) ([]Neighbor, error)
	Validate(bool) error
}

// columnarPair builds two identically-configured trees on the named
// backend, one columnar and one with ScalarNodeScan set. The stores are
// returned when the backend has them (for byte-identity sweeps).
func columnarPair(t *testing.T, backend string, dims int) (cols, scalar qtree, colStore, sclStore *storage.MemStore) {
	t.Helper()
	base := Options{Dims: dims, DataCapacity: 8, Fanout: 8, CacheNodes: 32}
	scalarOpt := base
	scalarOpt.ScalarNodeScan = true
	switch backend {
	case "mem":
		a, err := New(base)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(scalarOpt)
		if err != nil {
			t.Fatal(err)
		}
		return a, b, nil, nil
	case "paged":
		colStore, sclStore = storage.NewMemStore(), storage.NewMemStore()
		a, err := NewPaged(colStore, base)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewPaged(sclStore, scalarOpt)
		if err != nil {
			t.Fatal(err)
		}
		return a, b, colStore, sclStore
	case "durable":
		colStore, sclStore = storage.NewMemStore(), storage.NewMemStore()
		dir := t.TempDir()
		a, err := NewDurable(colStore, filepath.Join(dir, "c.wal"), base)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		b, err := NewDurable(sclStore, filepath.Join(dir, "s.wal"), scalarOpt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return a, b, colStore, sclStore
	}
	t.Fatalf("unknown backend %q", backend)
	return nil, nil, nil, nil
}

// collect drains a query into a canonically-sorted multiset.
func collect(t *testing.T, run func(Visitor) error) []string {
	t.Helper()
	var out []string
	if err := run(func(p geometry.Point, payload uint64) bool {
		out = append(out, fmt.Sprintf("%v/%d", p, payload))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

func equalMultiset(t *testing.T, what string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: columnar returned %d items, scalar %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: result %d differs: %s vs %s", what, i, a[i], b[i])
		}
	}
}

// columnarWorkload returns the insert stream for one named shape.
func columnarWorkload(t *testing.T, kind string, dims, n int) []geometry.Point {
	t.Helper()
	switch kind {
	case "burst":
		bursts, err := workload.Bursts(workload.Nested, dims, n, 48, 11)
		if err != nil {
			t.Fatal(err)
		}
		var pts []geometry.Point
		for _, b := range bursts {
			pts = append(pts, b...)
		}
		return pts
	default:
		pts, err := workload.Generate(workload.Kind(kind), dims, n, 23)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
}

// TestColumnarDifferential drives identical insert/delete streams
// through a columnar and a scalar-scan tree on every backend and checks
// that every read answer is multiset-identical. (Byte-identity of the
// stores is checked separately on insert-only builds — see
// TestColumnarEncodedPageIdentity — because delete-triggered guard
// maintenance makes page layout sensitive to cache-eviction order, a
// nondeterminism the seed tree already has; query answers are
// order-independent and compared here for the full mixed workload.)
func TestColumnarDifferential(t *testing.T) {
	const dims, n = 2, 2500
	for _, backend := range []string{"mem", "paged", "durable"} {
		for _, kind := range []string{"uniform", "clustered", "burst"} {
			t.Run(backend+"/"+kind, func(t *testing.T) {
				pts := columnarWorkload(t, kind, dims, n)
				cols, scalar, _, _ := columnarPair(t, backend, dims)

				rng := rand.New(rand.NewSource(77))
				for i, p := range pts {
					for _, tr := range []qtree{cols, scalar} {
						if err := tr.Insert(p, uint64(i)); err != nil {
							t.Fatal(err)
						}
					}
					// Interleaved deletes keep removal paths (mirror
					// staleness + rebuild) in the differential too.
					if i%7 == 3 {
						j := rng.Intn(i + 1)
						for _, tr := range []qtree{cols, scalar} {
							if _, err := tr.Delete(pts[j], uint64(j)); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				if cols.Len() != scalar.Len() {
					t.Fatalf("Len: columnar %d, scalar %d", cols.Len(), scalar.Len())
				}
				if err := cols.Validate(true); err != nil {
					t.Fatalf("columnar invariants: %v", err)
				}
				if err := scalar.Validate(true); err != nil {
					t.Fatalf("scalar invariants: %v", err)
				}

				equalMultiset(t, "Scan", collect(t, cols.Scan), collect(t, scalar.Scan))
				for qi, rect := range workload.QueryRects(dims, 12, 0.1, 31) {
					rect := rect
					a := collect(t, func(v Visitor) error { return cols.RangeQuery(rect, v) })
					b := collect(t, func(v Visitor) error { return scalar.RangeQuery(rect, v) })
					equalMultiset(t, fmt.Sprintf("RangeQuery %d", qi), a, b)
					c := collect(t, func(v Visitor) error { return cols.RangeQueryWorkers(rect, v, 4) })
					equalMultiset(t, fmt.Sprintf("RangeQueryWorkers %d", qi), a, c)
					cnt, err := cols.Count(rect)
					if err != nil {
						t.Fatal(err)
					}
					if cnt != len(a) {
						t.Fatalf("Count %d: %d, RangeQuery returned %d", qi, cnt, len(a))
					}
					wcnt, err := scalar.CountWorkers(rect, 4)
					if err != nil {
						t.Fatal(err)
					}
					if wcnt != len(a) {
						t.Fatalf("scalar CountWorkers %d: %d, want %d", qi, wcnt, len(a))
					}
				}
				for qi := 0; qi < 40; qi++ {
					q := pts[rng.Intn(len(pts))]
					la, err := cols.Lookup(q)
					if err != nil {
						t.Fatal(err)
					}
					lb, err := scalar.Lookup(q)
					if err != nil {
						t.Fatal(err)
					}
					sort.Slice(la, func(i, j int) bool { return la[i] < la[j] })
					sort.Slice(lb, func(i, j int) bool { return lb[i] < lb[j] })
					if len(la) != len(lb) {
						t.Fatalf("Lookup %d: %d vs %d payloads", qi, len(la), len(lb))
					}
					for i := range la {
						if la[i] != lb[i] {
							t.Fatalf("Lookup %d payload %d: %d vs %d", qi, i, la[i], lb[i])
						}
					}
				}
				for qi := 0; qi < 10; qi++ {
					q := pts[rng.Intn(len(pts))]
					a, err := cols.Nearest(q, 10)
					if err != nil {
						t.Fatal(err)
					}
					b, err := scalar.Nearest(q, 10)
					if err != nil {
						t.Fatal(err)
					}
					if len(a) != len(b) {
						t.Fatalf("Nearest %d: %d vs %d results", qi, len(a), len(b))
					}
					for i := range a {
						if a[i].Dist != b[i].Dist {
							t.Fatalf("Nearest %d result %d: dist %v vs %v", qi, i, a[i].Dist, b[i].Dist)
						}
					}
				}

			})
		}
	}
}

// TestColumnarEncodedPageIdentity builds a columnar and a scalar-scan
// tree from the same insert-only stream (a deterministic build) on the
// paged backend and requires every stored page to be byte-identical:
// the columnar mirror must be invisible in the wire format.
// Burst (deeply nested) builds are excluded: they trip the same
// eviction-order sensitivity in guard maintenance that deletes do — the
// seed tree produces differing page layouts for two identical burst
// builds — so only the query-level differential covers them.
func TestColumnarEncodedPageIdentity(t *testing.T) {
	const dims, n = 2, 2500
	for _, kind := range []string{"uniform", "clustered"} {
		t.Run(kind, func(t *testing.T) {
			pts := columnarWorkload(t, kind, dims, n)
			cols, scalar, colStore, sclStore := columnarPair(t, "paged", dims)
			for i, p := range pts {
				if err := cols.Insert(p, uint64(i)); err != nil {
					t.Fatal(err)
				}
				if err := scalar.Insert(p, uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			compareStores(t, colStore, sclStore)
		})
	}
}

// compareStores sweeps every page ID either store has allocated and
// requires identical bytes (or identical absence): the columnar mirror
// must be invisible in the wire format.
func compareStores(t *testing.T, a, b *storage.MemStore) {
	t.Helper()
	hi := a.Stats().Allocs
	if n := b.Stats().Allocs; n > hi {
		hi = n
	}
	for id := page.ID(1); id <= page.ID(hi); id++ {
		ba, errA := a.ReadNode(id)
		bb, errB := b.ReadNode(id)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("page %d: allocated in one store only (%v vs %v)", id, errA, errB)
		}
		if errA != nil {
			continue
		}
		if len(ba) != len(bb) {
			t.Fatalf("page %d: %d bytes vs %d", id, len(ba), len(bb))
		}
		for i := range ba {
			if ba[i] != bb[i] {
				t.Fatalf("page %d differs at byte %d", id, i)
			}
		}
	}
}

// TestColumnarConcurrent is the race-detector smoke for the columnar
// read path: concurrent lookups, range queries and nearest searches
// against a paged tree while a writer keeps appending (exercising the
// mirror rebuilds under the tree locks).
func TestColumnarConcurrent(t *testing.T) {
	const dims, n = 2, 1200
	pts, err := workload.Generate(workload.Uniform, dims, 2*n, 51)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewPaged(storage.NewMemStore(), Options{Dims: dims, DataCapacity: 8, Fanout: 8, CacheNodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Insert(pts[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := n; i < 2*n; i++ {
			if err := tr.Insert(pts[i], uint64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rects := workload.QueryRects(dims, 8, 0.1, uint64(g+1))
			for r := 0; r < 20; r++ {
				if _, err := tr.Lookup(pts[(g*37+r)%n]); err != nil {
					t.Error(err)
					return
				}
				rect := rects[r%len(rects)]
				if err := tr.RangeQueryWorkers(rect, func(geometry.Point, uint64) bool { return true }, 2); err != nil {
					t.Error(err)
					return
				}
				if _, err := tr.Nearest(pts[(g*53+r)%n], 5); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Validate(false); err != nil {
		t.Fatal(err)
	}
}

// TestReadsStayOnBatchedPath pins that a read tests every node it
// fetches through that node's columnar mirror: over a program of
// lookups and one-item windows, Stats().BatchTests moves exactly as
// NodeAccesses does — the identity bvtree.batch_tests_per_op =
// bvtree.nodes_per_op of the benchmark's point-hot workload. A node
// published without its mirror sends its readers to the scalar
// fallbacks (scanDescendNode, qualifyNode, lookupLocked, scanPages),
// which fetch without a batched test and break the identity.
func TestReadsStayOnBatchedPath(t *testing.T) {
	const dims = 2
	pts, err := workload.Generate(workload.Clustered, dims, 900, 71)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Dims: dims, DataCapacity: 8, Fanout: 8}
	type reader interface {
		Lookup(geometry.Point) ([]uint64, error)
		RangeQuery(geometry.Rect, Visitor) error
	}
	load := func(t *testing.T, tr *Tree, err error, pts []geometry.Point) *Tree {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if err := tr.Insert(p, p[0]); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	cases := []struct {
		name  string
		build func(t *testing.T) (tr *Tree, r reader, stored []geometry.Point)
	}{
		{"mem", func(t *testing.T) (*Tree, reader, []geometry.Point) {
			tr, err := New(opt)
			tr = load(t, tr, err, pts)
			return tr, tr, pts
		}},
		{"paged", func(t *testing.T) (*Tree, reader, []geometry.Point) {
			tr, err := NewPaged(storage.NewMemStore(), opt)
			tr = load(t, tr, err, pts)
			return tr, tr, pts
		}},
		{"buffered-before-first-flush", func(t *testing.T) (*Tree, reader, []geometry.Point) {
			bopt := opt
			bopt.BufferOps = 64
			tr, err := New(bopt)
			tr = load(t, tr, err, pts[:40])
			if st := tr.Stats(); st.BufferFlushes != 0 || st.BufferedOps != 40 {
				t.Fatalf("want 40 buffered ops and no flush, have %d and %d", st.BufferedOps, st.BufferFlushes)
			}
			return tr, tr, pts[:40]
		}},
		{"pinned-snapshot-under-writer", func(t *testing.T) (*Tree, reader, []geometry.Point) {
			tr, err := NewPaged(storage.NewMemStore(), opt)
			tr = load(t, tr, err, pts[:600])
			snap, err := tr.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(snap.Release)
			// The writer supersedes pages under the pin: the snapshot's
			// reads below resolve their pre-images from the version chains.
			load(t, tr, nil, pts[600:])
			for _, p := range pts[:200] {
				if ok, err := tr.Delete(p, p[0]); err != nil || !ok {
					t.Fatalf("delete %v: %v %v", p, ok, err)
				}
			}
			return tr, snap, pts[:600]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, r, stored := tc.build(t)
			before := tr.Stats()
			for _, p := range stored {
				got, err := r.Lookup(p)
				if err != nil || len(got) == 0 {
					t.Fatalf("Lookup(%v) = %v, %v", p, got, err)
				}
				seen := 0
				err = r.RangeQuery(geometry.Rect{Min: p, Max: p}, func(geometry.Point, uint64) bool {
					seen++
					return true
				})
				if err != nil || seen == 0 {
					t.Fatalf("window on %v visited %d items, err %v", p, seen, err)
				}
			}
			after := tr.Stats()
			nodes, tests := after.NodeAccesses-before.NodeAccesses, after.BatchTests-before.BatchTests
			if nodes == 0 || tests != nodes {
				t.Fatalf("%d nodes fetched, %d tested through their columns", nodes, tests)
			}
		})
	}
}
