package shard

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/wal"
	"bvtree/internal/workload"
)

// backends enumerates the engine constructions the differential battery
// sweeps: pure in-memory trees, paged trees over an in-memory store,
// and durable trees (own WAL + own file-backed pager per shard).
var backends = []string{"mem", "paged", "durable"}

// newEngines builds one engine per shard range of the plan, plus a
// cleanup. The durable backend gives every shard its own store file and
// WAL, exactly as cmd/bvserver lays them out.
func newEngines(t testing.TB, backend string, plan Plan) []Engine {
	t.Helper()
	opt := bvtree.Options{Dims: plan.Dims, DataCapacity: 8, Fanout: 8}
	engines := make([]Engine, plan.Shards())
	for i := range engines {
		switch backend {
		case "mem":
			tr, err := bvtree.New(opt)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			engines[i] = tr
		case "paged":
			tr, err := bvtree.Open(storage.NewMemStore(), nil, opt)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			engines[i] = tr
		case "durable":
			dir := t.TempDir()
			st, err := storage.OpenFileStore(filepath.Join(dir, fmt.Sprintf("shard-%d.db", i)),
				storage.FileStoreOptions{})
			if err != nil {
				t.Fatalf("OpenFileStore: %v", err)
			}
			l, err := wal.Open(filepath.Join(dir, fmt.Sprintf("shard-%d.wal", i)))
			if err != nil {
				t.Fatalf("wal.Open: %v", err)
			}
			d, err := bvtree.Open(st, l, opt)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			t.Cleanup(func() { d.Close(); st.Close() })
			engines[i] = d
		default:
			t.Fatalf("unknown backend %q", backend)
		}
	}
	return engines
}

// newReference builds the single in-memory tree the router is diffed
// against.
func newReference(t *testing.T, dims int) *bvtree.Tree {
	t.Helper()
	tr, err := bvtree.New(bvtree.Options{Dims: dims, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr
}

// collect runs a traversal into a canonical sorted item list.
func collect(t *testing.T, run func(visit bvtree.Visitor) error) []string {
	t.Helper()
	var out []string
	if err := run(func(p geometry.Point, payload uint64) bool {
		out = append(out, fmt.Sprintf("%v/%d", p, payload))
		return true
	}); err != nil {
		t.Fatalf("traversal: %v", err)
	}
	sort.Strings(out)
	return out
}

func sameItems(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: item %d = %s, want %s", what, i, got[i], want[i])
		}
	}
}

// sameNeighbors compares nearest-neighbour results with single-tree
// semantics: the distance sequence must match exactly, and within each
// group of equal distances the (point, payload) multisets must match —
// a single tree's internal heap order within a tie is unspecified, so
// the router cannot (and need not) reproduce it.
func sameNeighbors(t *testing.T, what string, got, want []bvtree.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, want %d", what, len(got), len(want))
	}
	key := func(n bvtree.Neighbor) string { return fmt.Sprintf("%v/%d/%g", n.Point, n.Payload, n.Dist) }
	a := make([]string, len(got))
	b := make([]string, len(want))
	for i := range got {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("%s: neighbor %d dist %g, want %g", what, i, got[i].Dist, want[i].Dist)
		}
		a[i], b[i] = key(got[i]), key(want[i])
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: neighbor multiset mismatch at %d: %s vs %s", what, i, a[i], b[i])
		}
	}
}

// TestShardDifferential proves the acceptance criterion: cross-shard
// RangeQuery / Count / Nearest (plus Lookup, PartialMatch, Scan, Len,
// Delete) over N shards returns exactly what a single tree over the
// same data returns, across shard counts and backends.
func TestShardDifferential(t *testing.T) {
	const n = 2500
	for _, backend := range backends {
		for _, shards := range []int{2, 4, 7} {
			t.Run(fmt.Sprintf("%s/%d-shards", backend, shards), func(t *testing.T) {
				const dims = 2
				pts, err := workload.Generate(workload.Clustered, dims, n, 7)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := PlanShards(pts[:800], dims, shards, 0)
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewRouter(plan, newEngines(t, backend, plan))
				if err != nil {
					t.Fatal(err)
				}
				ref := newReference(t, dims)
				for i, p := range pts {
					if err := r.Insert(p, uint64(i)); err != nil {
						t.Fatalf("router insert %d: %v", i, err)
					}
					if err := ref.Insert(p, uint64(i)); err != nil {
						t.Fatalf("ref insert %d: %v", i, err)
					}
				}
				// Interleave deletes so the diff also covers the delete path.
				for i := 0; i < n; i += 3 {
					got, err := r.Delete(pts[i], uint64(i))
					if err != nil {
						t.Fatalf("router delete %d: %v", i, err)
					}
					want, err := ref.Delete(pts[i], uint64(i))
					if err != nil {
						t.Fatalf("ref delete %d: %v", i, err)
					}
					if got != want {
						t.Fatalf("delete %d: found=%v, want %v", i, got, want)
					}
				}
				diffAll(t, r, ref, pts)
			})
		}
	}
}

// diffAll runs the full operation diff between a router and a
// reference tree holding identical data.
func diffAll(t *testing.T, r *Router, ref *bvtree.Tree, pts []geometry.Point) {
	t.Helper()
	dims := ref.Options().Dims
	if got, want := r.Len(), ref.Len(); got != want {
		t.Fatalf("Len: %d, want %d", got, want)
	}

	// Lookups: stored points and definitely-absent points.
	for i := 0; i < len(pts); i += 97 {
		got, err := r.Lookup(pts[i])
		if err != nil {
			t.Fatalf("router lookup: %v", err)
		}
		want, err := ref.Lookup(pts[i])
		if err != nil {
			t.Fatalf("ref lookup: %v", err)
		}
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if len(got) != len(want) {
			t.Fatalf("lookup %v: %v, want %v", pts[i], got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("lookup %v: %v, want %v", pts[i], got, want)
			}
		}
	}

	// Range and Count across window sizes, including whole-domain.
	for qi, frac := range []float64{0.001, 0.02, 0.1, 0.5, 1.0} {
		for _, rect := range workload.QueryRects(dims, 6, frac, uint64(1000+qi)) {
			rect := rect
			got := collect(t, func(v bvtree.Visitor) error { return r.RangeQuery(rect, v) })
			want := collect(t, func(v bvtree.Visitor) error { return ref.RangeQuery(rect, v) })
			sameItems(t, fmt.Sprintf("range %v", rect), got, want)

			gc, err := r.Count(rect)
			if err != nil {
				t.Fatalf("router count: %v", err)
			}
			wc, err := ref.Count(rect)
			if err != nil {
				t.Fatalf("ref count: %v", err)
			}
			if gc != wc {
				t.Fatalf("count %v: %d, want %d", rect, gc, wc)
			}
			if gc != len(got) {
				t.Fatalf("count %v: %d but range returned %d items", rect, gc, len(got))
			}
		}
	}

	// Nearest at stored and random points, several k.
	queries, err := workload.Generate(workload.Uniform, dims, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	queries = append(queries, pts[1], pts[len(pts)/2])
	for _, q := range queries {
		for _, k := range []int{1, 5, 17} {
			got, err := r.Nearest(q, k)
			if err != nil {
				t.Fatalf("router nearest: %v", err)
			}
			want, err := ref.Nearest(q, k)
			if err != nil {
				t.Fatalf("ref nearest: %v", err)
			}
			sameNeighbors(t, fmt.Sprintf("nearest %v k=%d", q, k), got, want)
		}
	}

	// Partial match: every way of specifying 1 of dims attributes, keyed
	// at stored coordinate values so matches exist.
	for _, spec := range workload.PartialMatchSpecs(dims, 1) {
		spec := spec
		values := pts[5].Clone()
		got := collect(t, func(v bvtree.Visitor) error { return r.PartialMatch(values, spec, v) })
		want := collect(t, func(v bvtree.Visitor) error { return ref.PartialMatch(values, spec, v) })
		sameItems(t, fmt.Sprintf("partial-match %v", spec), got, want)
	}

	// Full scan.
	got := collect(t, func(v bvtree.Visitor) error { return r.Scan(v) })
	want := collect(t, func(v bvtree.Visitor) error { return ref.Scan(v) })
	sameItems(t, "scan", got, want)
}

// TestShardSingleShardDurable proves the degenerate configuration:
// a 1-shard router over a durable tree behaves identically to using the
// same kind of tree bare — every operation delegates to the one engine.
func TestShardSingleShardDurable(t *testing.T) {
	const dims, n = 2, 1200
	dir := t.TempDir()
	newDurable := func(name string) *bvtree.Tree {
		st, err := storage.OpenFileStore(filepath.Join(dir, name+".db"),
			storage.FileStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		l, err := wal.Open(filepath.Join(dir, name+".wal"))
		if err != nil {
			t.Fatal(err)
		}
		d, err := bvtree.Open(st, l, bvtree.Options{Dims: dims, DataCapacity: 8, Fanout: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close(); st.Close() })
		return d
	}
	routed := newDurable("routed")
	bare := newDurable("bare")

	plan, err := PlanUniform(dims, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Splits) != 0 {
		t.Fatalf("single-shard plan has %d splits", len(plan.Splits))
	}
	r, err := NewRouter(plan, []Engine{routed})
	if err != nil {
		t.Fatal(err)
	}

	pts, err := workload.Generate(workload.Skewed, dims, n, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := r.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := bare.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 5 {
		if _, err := r.Delete(pts[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := bare.Delete(pts[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	diffAll(t, r, bare, pts)
}
