package shard

import (
	"fmt"
	"path/filepath"
	"testing"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// BenchmarkRouterFanout times the router's cross-shard queries: 4 shards
// holding 100k clustered 2-D points, planned from the first 4096 points
// as the server-mixed workload plans its shards. The mem arms query
// in-memory trees; the cold arms query file-backed trees reopened with a
// 16-node decoded cache each, so most pages are read and decoded. Every
// arm calls public Router methods only. Run it at -cpu 1,2 with -count
// 10 and compare with benchstat.
func BenchmarkRouterFanout(b *testing.B) {
	const dims, n, shards = 2, 100_000, 4
	pts, err := workload.Generate(workload.Clustered, dims, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := PlanShards(pts[:4096], dims, shards, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Windows of 1.5 % of the domain's area (side ≈ 0.122), each centred
	// on a stored point, so that they hold data.
	const half = ^uint64(0) / 1000 * 61
	windows := make([]geometry.Rect, 64)
	for j := range windows {
		c := pts[(j*1543)%n]
		w := geometry.Rect{Min: make(geometry.Point, dims), Max: make(geometry.Point, dims)}
		for d := range c {
			w.Min[d] = c[d] - min(c[d], half)
			w.Max[d] = c[d] + min(^c[d], half)
		}
		windows[j] = w
	}
	universe := geometry.UniverseRect(dims)
	fixX := []bool{true, false}
	for _, backend := range []string{"mem", "cold"} {
		r := fanoutRouter(b, backend, plan, pts)
		items := 0
		visit := func(geometry.Point, uint64) bool { items++; return true }
		for _, arm := range []struct {
			name  string
			query func(i int) error
		}{
			{"range-universe", func(int) error { return r.RangeQuery(universe, visit) }},
			{"range-window", func(i int) error { return r.RangeQuery(windows[i%len(windows)], visit) }},
			{"partial-match", func(i int) error { return r.PartialMatch(pts[(i*7919)%n], fixX, visit) }},
			{"count-universe", func(int) error {
				c, err := r.Count(universe)
				items += c
				return err
			}},
			{"nearest-10", func(i int) error {
				nb, err := r.Nearest(pts[(i*7919)%n], 10)
				items += len(nb)
				return err
			}},
		} {
			b.Run(backend+"/"+arm.name, func(b *testing.B) {
				items = 0
				for i := 0; i < b.N; i++ {
					if err := arm.query(i); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(items)/float64(b.N), "items/op")
			})
		}
	}
}

// fanoutRouter loads pts into a router over plan. A cold router's shards
// are file-backed trees, flushed, closed and reopened with a 16-node
// decoded cache each.
func fanoutRouter(b *testing.B, backend string, plan Plan, pts []geometry.Point) *Router {
	opt := bvtree.Options{Dims: plan.Dims}
	engines := make([]Engine, plan.Shards())
	var paths []string
	var stores []*storage.FileStore
	for i := range engines {
		switch backend {
		case "mem":
			tr, err := bvtree.New(opt)
			if err != nil {
				b.Fatal(err)
			}
			engines[i] = tr
		case "cold":
			path := filepath.Join(b.TempDir(), fmt.Sprintf("shard-%d.db", i))
			st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			tr, err := bvtree.Open(st, nil, opt)
			if err != nil {
				b.Fatal(err)
			}
			engines[i] = tr
			paths, stores = append(paths, path), append(stores, st)
		}
	}
	r, err := NewRouter(plan, engines)
	if err != nil {
		b.Fatal(err)
	}
	for i, p := range pts {
		if err := r.Insert(p, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if backend == "mem" {
		return r
	}
	for i, path := range paths {
		tr := engines[i].(*bvtree.Tree)
		if err := tr.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := stores[i].Close(); err != nil {
			b.Fatal(err)
		}
		st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		if engines[i], err = bvtree.Open(st, nil, bvtree.Options{CacheNodes: 16}); err != nil {
			b.Fatal(err)
		}
	}
	r, err = NewRouter(plan, engines)
	if err != nil {
		b.Fatal(err)
	}
	return r
}
