// Command bvdump builds a BV-tree from a synthetic workload (or loads a
// persisted store created by bvload) and prints its structure and
// statistics: node occupancies per level, guard populations, and — with
// -tree — the full indented node/entry rendering showing promoted guards.
package main

import (
	"flag"
	"fmt"
	"os"

	"bvtree/internal/bvtree"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

func main() {
	var (
		dims   = flag.Int("dims", 2, "dimensionality")
		n      = flag.Int("n", 10000, "number of points")
		seed   = flag.Uint64("seed", 1, "workload seed")
		dist   = flag.String("dist", "clustered", "distribution: uniform|clustered|skewed|diagonal|nested")
		p      = flag.Int("p", 16, "data page capacity P")
		f      = flag.Int("f", 16, "index fan-out F")
		scaled = flag.Bool("scaled", false, "level-scaled index pages (§7.3)")
		tree   = flag.Bool("tree", false, "print the full tree structure")
		store  = flag.String("store", "", "build into this file-backed store instead of memory")
	)
	flag.Parse()

	opt := bvtree.Options{Dims: *dims, DataCapacity: *p, Fanout: *f, LevelScaledPages: *scaled}
	var (
		tr  *bvtree.Tree
		err error
	)
	if *store != "" {
		st, serr := storage.CreateFileStore(*store, storage.FileStoreOptions{})
		if serr != nil {
			fail(serr)
		}
		defer st.Close()
		tr, err = bvtree.Open(st, nil, opt)
	} else {
		tr, err = bvtree.New(opt)
	}
	if err != nil {
		fail(err)
	}

	pts, err := workload.Generate(workload.Kind(*dist), *dims, *n, *seed)
	if err != nil {
		fail(err)
	}
	for i, pt := range pts {
		if err := tr.Insert(pt, uint64(i)); err != nil {
			fail(fmt.Errorf("insert %d: %w", i, err))
		}
	}
	if err := tr.Validate(false); err != nil {
		fail(fmt.Errorf("validation failed: %w", err))
	}

	st, err := tr.CollectStats()
	if err != nil {
		fail(err)
	}
	fmt.Print(st)
	ops := tr.Stats()
	fmt.Printf("ops: dataSplits=%d indexSplits=%d promotions=%d demotions=%d merges=%d softOverflows=%d\n",
		ops.DataSplits, ops.IndexSplits, ops.Promotions, ops.Demotions, ops.Merges, ops.SoftOverflows)

	if *tree {
		dump, err := tr.Dump()
		if err != nil {
			fail(err)
		}
		fmt.Println(dump)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bvdump:", err)
	os.Exit(1)
}
