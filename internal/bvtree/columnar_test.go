package bvtree

// Differential battery for the columnar read path: every answer the
// batched column predicates give must equal what the scalar reference
// (reference_test.go: entry by entry, item by item, on the same tree)
// and linear scans of its output give, across backends and workload
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
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// columnarTree builds an empty tree on the named backend.
func columnarTree(t *testing.T, backend string, dims int) *Tree {
	t.Helper()
	opt := Options{Dims: dims, DataCapacity: 8, Fanout: 8, CacheNodes: 32}
	var tr *Tree
	var err error
	switch backend {
	case "mem":
		tr, err = New(opt)
	case "paged":
		tr, err = Open(storage.NewMemStore(), nil, opt)
	case "durable":
		tr, err = openLogged(storage.NewMemStore(), filepath.Join(t.TempDir(), "c.wal"), opt)
		if err == nil {
			t.Cleanup(func() { tr.Close() })
		}
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	if err != nil {
		t.Fatal(err)
	}
	return tr
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
		t.Fatalf("%s: columnar returned %d items, reference %d", what, len(a), len(b))
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
		return burstStream(t, dims, n, 11)
	default:
		pts, err := workload.Generate(workload.Kind(kind), dims, n, 23)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
}

// TestColumnarDifferential drives an insert/delete stream through a tree
// on every backend and checks every read answer against the scalar
// reference walk of the same tree: range queries and counts as
// multisets, and Lookup and Nearest against linear scans of the
// reference's full scan.
func TestColumnarDifferential(t *testing.T) {
	const dims, n = 2, 2500
	for _, backend := range []string{"mem", "paged", "durable"} {
		for _, kind := range []string{"uniform", "clustered", "burst"} {
			t.Run(backend+"/"+kind, func(t *testing.T) {
				pts := columnarWorkload(t, kind, dims, n)
				cols := columnarTree(t, backend, dims)

				rng := rand.New(rand.NewSource(77))
				for i, p := range pts {
					if err := cols.Insert(p, uint64(i)); err != nil {
						t.Fatal(err)
					}
					// Interleaved deletes keep removal paths (mirror
					// staleness + rebuild) in the differential too.
					if i%7 == 3 {
						j := rng.Intn(i + 1)
						if _, err := cols.Delete(pts[j], uint64(j)); err != nil {
							t.Fatal(err)
						}
					}
				}
				all := referenceItems(t, cols, geometry.UniverseRect(dims))
				if cols.Len() != len(all) {
					t.Fatalf("Len: %d, reference scan holds %d", cols.Len(), len(all))
				}
				if err := cols.Validate(true); err != nil {
					t.Fatalf("invariants: %v", err)
				}

				equalMultiset(t, "Scan", collect(t, cols.Scan), referenceRange(t, cols, geometry.UniverseRect(dims)))
				for qi, rect := range workload.QueryRects(dims, 12, 0.1, 31) {
					rect := rect
					a := collect(t, func(v Visitor) error { return cols.RangeQuery(rect, v) })
					equalMultiset(t, fmt.Sprintf("RangeQuery %d", qi), a, referenceRange(t, cols, rect))
					cnt, err := cols.Count(rect)
					if err != nil {
						t.Fatal(err)
					}
					if cnt != len(a) {
						t.Fatalf("Count %d: %d, RangeQuery returned %d", qi, cnt, len(a))
					}
				}
				for qi := 0; qi < 40; qi++ {
					q := pts[rng.Intn(len(pts))]
					la, err := cols.Lookup(q)
					if err != nil {
						t.Fatal(err)
					}
					var lb []uint64
					for _, it := range all {
						if it.Point.Equal(q) {
							lb = append(lb, it.Payload)
						}
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
					b := make([]float64, len(all))
					for i, it := range all {
						b[i] = pointDist(q, it.Point)
					}
					sort.Float64s(b)
					if len(a) != min(10, len(b)) {
						t.Fatalf("Nearest %d: %d results of %d items", qi, len(a), len(b))
					}
					for i := range a {
						if a[i].Dist != b[i] {
							t.Fatalf("Nearest %d result %d: dist %v vs %v", qi, i, a[i].Dist, b[i])
						}
					}
				}
			})
		}
	}
}

// TestColumnarConcurrent is the race-detector smoke for the columnar
// read path: concurrent lookups, range queries and nearest searches
// against a paged tree while a writer keeps appending (exercising the
// in-place column edits under the tree locks).
func TestColumnarConcurrent(t *testing.T) {
	const dims, n = 2, 1200
	pts, err := workload.Generate(workload.Uniform, dims, 2*n, 51)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(storage.NewMemStore(), nil, Options{Dims: dims, DataCapacity: 8, Fanout: 8, CacheNodes: 64})
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
				if err := tr.RangeQuery(rect, func(geometry.Point, uint64) bool { return true }); err != nil {
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
// fetches through that node's columns: over a program of
// lookups, one-item windows and nearest-neighbour searches,
// Stats().BatchTests moves exactly as NodeAccesses does — the identity
// bvtree.batch_tests_per_op = bvtree.nodes_per_op of the benchmark's
// point-hot workload. A range walk's cold data page is decoded into its
// columns and tested there like any other, so the cold case runs the
// same program.
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
		Nearest(geometry.Point, int) ([]Neighbor, error)
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
	// pinnedUnderWriter loads 600 points into a paged tree, pins it, and
	// lets a writer supersede pages under the pin: the snapshot's reads
	// resolve their pre-images from the version chains.
	pinnedUnderWriter := func(t *testing.T, opt Options) (*Tree, reader, []geometry.Point) {
		tr, err := Open(storage.NewMemStore(), nil, opt)
		tr = load(t, tr, err, pts[:600])
		snap, err := tr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(snap.Release)
		load(t, tr, nil, pts[600:])
		for _, p := range pts[:200] {
			if ok, err := tr.Delete(p, p[0]); err != nil || !ok {
				t.Fatalf("delete %v: %v %v", p, ok, err)
			}
		}
		return tr, snap, pts[:600]
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
			tr, err := Open(storage.NewMemStore(), nil, opt)
			tr = load(t, tr, err, pts)
			return tr, tr, pts
		}},
		{"pinned-snapshot-under-writer", func(t *testing.T) (*Tree, reader, []geometry.Point) {
			return pinnedUnderWriter(t, opt)
		}},
		// A decoded cache far smaller than the tree: the view's fetches
		// miss it and decode pages privately, through the same
		// decode-and-sync helper as the owner's.
		{"pinned-cold-snapshot-under-writer", func(t *testing.T) (*Tree, reader, []geometry.Point) {
			copt := opt
			copt.CacheNodes = 8
			tr, r, stored := pinnedUnderWriter(t, copt)
			if st, err := tr.CollectStats(); err != nil || st.DataPages < 10*copt.CacheNodes {
				t.Fatalf("tree has %+v data pages (err %v), want many more than the %d nodes cached", st, err, copt.CacheNodes)
			}
			return tr, r, stored
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
				if nb, err := r.Nearest(p, 3); err != nil || len(nb) == 0 || nb[0].Dist != 0 {
					t.Fatalf("Nearest(%v) = %v, %v", p, nb, err)
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
