// Command bvdump builds a BV-tree in memory from a synthetic workload, or
// with -store opens an existing file-backed store (one bvload wrote, say)
// without changing it, and prints its structure and statistics: node
// occupancies per level, guard populations, and — with -tree — the full
// indented node/entry rendering showing promoted guards. It prints the
// tree's shape too: P, F, and with -store how full the nodes keep the
// store's slots. The workload and shape flags apply only without -store.
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
		p      = flag.Int("p", 0, "data page capacity P (0: the tree's default)")
		f      = flag.Int("f", 0, "index fan-out F (0: the tree's default)")
		scaled = flag.Bool("scaled", false, "level-scaled index pages (§7.3)")
		tree   = flag.Bool("tree", false, "print the full tree structure")
		store  = flag.String("store", "", "open this existing file-backed store instead of building a tree")
	)
	flag.Parse()

	var (
		tr   *bvtree.Tree
		slot int // the store's SlotPayload; 0 in memory
		err  error
	)
	if *store != "" {
		// OpenFileStore would create an absent store; bvdump only reads.
		if _, err := os.Stat(*store); err != nil {
			fail(err)
		}
		st, serr := storage.OpenFileStore(*store, storage.FileStoreOptions{})
		if serr != nil {
			fail(serr)
		}
		defer st.Close()
		slot = st.SlotPayload()
		if tr, err = bvtree.Open(st, nil, bvtree.Options{}); err != nil {
			fail(err)
		}
	} else {
		tr, err = bvtree.New(bvtree.Options{Dims: *dims, DataCapacity: *p, Fanout: *f, LevelScaledPages: *scaled})
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
	}
	if err := tr.Validate(false); err != nil {
		fail(fmt.Errorf("validation failed: %w", err))
	}

	st, err := tr.CollectStats()
	if err != nil {
		fail(err)
	}
	fmt.Print(st)
	shape := tr.Options()
	fmt.Printf("shape: P=%d F=%d", shape.DataCapacity, shape.Fanout)
	nodes := st.DataPages
	for _, ls := range st.IndexLevels {
		nodes += ls.Nodes
	}
	mean := float64(st.NodeBytes) / float64(nodes)
	if slot > 0 {
		fmt.Printf(" slotFill=%.0f%% (mean node %.0f B of a %d B slot payload)\n", 100*mean/float64(slot), mean, slot)
	} else {
		fmt.Printf(" mean node %.0f B (in memory, no slot)\n", mean)
	}
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
