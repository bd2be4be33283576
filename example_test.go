package bvtree_test

import (
	"fmt"
	"os"
	"path/filepath"

	"bvtree"
)

// ExampleNew builds an in-memory 2-D tree and runs the three core
// queries: exact match, range, and nearest neighbour.
func ExampleNew() {
	tr, err := bvtree.New(bvtree.Options{Dims: 2})
	if err != nil {
		panic(err)
	}
	for i := uint64(0); i < 100; i++ {
		// Coordinates are uint64 over the full domain; spread the points
		// on a diagonal band for a deterministic little data set.
		if err := tr.Insert(bvtree.Point{i << 56, (i * 3) << 54}, i); err != nil {
			panic(err)
		}
	}

	ids, _ := tr.Lookup(bvtree.Point{7 << 56, 21 << 54})
	fmt.Println("exact match:", ids)

	rect, _ := bvtree.NewRect(bvtree.Point{0, 0}, bvtree.Point{10 << 56, ^uint64(0)})
	n := 0
	tr.RangeQuery(rect, func(bvtree.Point, uint64) bool { n++; return true })
	fmt.Println("points with x <= 10:", n)

	nn, _ := tr.Nearest(bvtree.Point{7 << 56, 21 << 54}, 3)
	fmt.Println("3 nearest payloads:", nn[0].Payload, nn[1].Payload, nn[2].Payload)
	// Output:
	// exact match: [7]
	// points with x <= 10: 11
	// 3 nearest payloads: 7 6 8
}

// ExampleTree_Metrics turns the opt-in histograms on and reads the
// snapshot back. The counts are exact; the latency quantiles (not
// printed here — they depend on the machine) live in the same snapshot.
func ExampleTree_Metrics() {
	tr, err := bvtree.New(bvtree.Options{Dims: 2})
	if err != nil {
		panic(err)
	}
	tr.EnableMetrics()
	for i := uint64(0); i < 500; i++ {
		if err := tr.Insert(bvtree.Point{i << 48, i << 48}, i); err != nil {
			panic(err)
		}
	}
	for i := uint64(0); i < 200; i++ {
		if _, err := tr.Lookup(bvtree.Point{i << 48, i << 48}); err != nil {
			panic(err)
		}
	}

	s := tr.Metrics() // a bvtree.MetricsSnapshot; marshals to JSON as-is
	fmt.Println("metrics enabled:", s.Tree.MetricsEnabled)
	fmt.Println("inserts recorded:", s.Tree.InsertNs.Count)
	fmt.Println("lookups recorded:", s.Tree.LookupNs.Count)
	fmt.Println("lookup p99 > 0:", s.Tree.LookupNs.P99 > 0)
	fmt.Println("splits seen:", s.Tree.Counters.DataSplits > 0)
	// Output:
	// metrics enabled: true
	// inserts recorded: 500
	// lookups recorded: 200
	// lookup p99 > 0: true
	// splits seen: true
}

// ExampleOpen shows the one way to start and to reopen a tree, and crash
// recovery: a durable tree is abandoned without Close or Flush (the
// "crash"), and opening the same store and log again replays every
// acknowledged operation.
func ExampleOpen() {
	dir, err := os.MkdirTemp("", "bvtree-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	db, walPath := filepath.Join(dir, "points.db"), filepath.Join(dir, "points.wal")

	// OpenFileStore creates the absent store, and Open starts a new tree
	// in it. The store file changes only at checkpoints; between them,
	// durability comes from the log alone.
	st, err := bvtree.OpenFileStore(db, bvtree.FileStoreOptions{})
	if err != nil {
		panic(err)
	}
	l, err := bvtree.OpenWAL(walPath)
	if err != nil {
		panic(err)
	}
	d, err := bvtree.Open(st, l, bvtree.Options{Dims: 2})
	if err != nil {
		panic(err)
	}
	for i := uint64(0); i < 10; i++ {
		if err := d.Insert(bvtree.Point{i, i}, i); err != nil {
			panic(err)
		}
	}
	// Crash: no Flush, no Close — the store file never saw these
	// inserts, only the fsynced log did.

	// A store that holds a tree reopens it, at the shape it was made
	// with, and the log replays onto it.
	st2, err := bvtree.OpenFileStore(db, bvtree.FileStoreOptions{})
	if err != nil {
		panic(err)
	}
	l2, err := bvtree.OpenWAL(walPath)
	if err != nil {
		panic(err)
	}
	recovered, err := bvtree.Open(st2, l2, bvtree.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("items after recovery:", recovered.Len())
	ids, _ := recovered.Lookup(bvtree.Point{7, 7})
	fmt.Println("payload at (7,7):", ids)
	if err := recovered.Close(); err != nil {
		panic(err)
	}
	st2.Close()
	// Output:
	// items after recovery: 10
	// payload at (7,7): [7]
}
