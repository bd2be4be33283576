// Command bvload bulk-loads a synthetic workload into a file-backed
// BV-tree and optionally replays a query workload against it, reporting
// logical node accesses and physical slot I/O, the slot reads split into
// index nodes and data pages, and the index's residency in the decoded
// cache beside the paper's eq (9) prediction of its size. It
// demonstrates the persistence path end to end: create, load, flush,
// reopen, query. It refuses a -store path that exists.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

func main() {
	var (
		path    = flag.String("store", "bvtree.db", "store file path")
		dims    = flag.Int("dims", 2, "dimensionality")
		n       = flag.Int("n", 100000, "points to load")
		seed    = flag.Uint64("seed", 1, "workload seed")
		dist    = flag.String("dist", "clustered", "distribution")
		p       = flag.Int("p", 0, "data page capacity P (0: the tree's default, sized to the slot)")
		f       = flag.Int("f", 0, "index fan-out F (0: the tree's default)")
		queries = flag.Int("queries", 1000, "range queries to replay after reopening")
		side    = flag.Float64("side", 0.01, "query side length as a domain fraction")
		cache   = flag.Int("cache", 256, "decoded-node cache of the reopened tree, in nodes")
	)
	flag.Parse()

	pts, err := workload.Generate(workload.Kind(*dist), *dims, *n, *seed)
	if err != nil {
		fail(err)
	}

	// A store at the path would be reopened, and the points loaded into
	// the tree it holds.
	if _, err := os.Stat(*path); err == nil {
		fail(fmt.Errorf("%s exists: bvload writes a new store, so give -store a path that does not exist", *path))
	}
	st, err := storage.OpenFileStore(*path, storage.FileStoreOptions{})
	if err != nil {
		fail(err)
	}
	tr, err := bvtree.Open(st, nil, bvtree.Options{Dims: *dims, DataCapacity: *p, Fanout: *f})
	if err != nil {
		fail(err)
	}
	start := time.Now()
	for i, pt := range pts {
		if err := tr.Insert(pt, uint64(i)); err != nil {
			fail(fmt.Errorf("insert %d: %w", i, err))
		}
	}
	loadDur := time.Since(start)
	if err := tr.Flush(); err != nil {
		fail(err)
	}
	ls := st.Stats()
	fmt.Printf("loaded %d points in %v (%.0f/s); height=%d\n",
		*n, loadDur.Round(time.Millisecond), float64(*n)/loadDur.Seconds(), tr.Height())
	fmt.Printf("physical I/O: %d slot reads, %d slot writes\n", ls.SlotReads, ls.SlotWrites)
	ts, err := tr.CollectStats()
	if err != nil {
		fail(err)
	}
	if err := st.Close(); err != nil {
		fail(err)
	}

	// Reopen cold and replay queries.
	st2, err := storage.OpenFileStore(*path, storage.FileStoreOptions{})
	if err != nil {
		fail(err)
	}
	defer st2.Close()
	re, err := bvtree.Open(st2, nil, bvtree.Options{CacheNodes: *cache})
	if err != nil {
		fail(err)
	}
	rects := workload.QueryRects(*dims, *queries, *side, *seed+1)
	c0 := re.Metrics().Cache
	base := st2.Stats()
	re.ResetAccessCount()
	results := 0
	start = time.Now()
	for _, r := range rects {
		err := re.RangeQuery(r, func(geometry.Point, uint64) bool {
			results++
			return true
		})
		if err != nil {
			fail(err)
		}
	}
	qDur := time.Since(start)
	qs := st2.Stats().Sub(base)
	c1 := re.Metrics().Cache
	q := float64(*queries)
	// An index node is one slot, read alone; data pages take the rest of
	// the slot reads.
	index := float64(c1.IndexReads - c0.IndexReads)
	fmt.Printf("replayed %d range queries (side %.1f%%) in %v: %d results\n",
		*queries, *side*100, qDur.Round(time.Millisecond), results)
	fmt.Printf("per query: %.1f logical node accesses, %.2f physical slot reads = %.2f index + %.2f data (cache %d nodes)\n",
		float64(re.Stats().NodeAccesses)/q, float64(qs.SlotReads)/q,
		index/q, (float64(qs.SlotReads)-index)/q, *cache)
	fanout := re.Options().Fanout
	fmt.Printf("index: %d nodes, %d cached; eq (9) predicts td/F = %d data pages / %d = %.0f\n",
		c1.TreeIndexNodes, c1.IndexNodes, ts.DataPages, fanout, float64(ts.DataPages)/float64(fanout))
	fmt.Printf("store kept at %s\n", *path)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bvload:", err)
	os.Exit(1)
}
