package bvtree

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/region"
)

// BulkLoad inserts points[i] with payload payloads[i] for all i.
//
// On an empty tree it runs a packed bottom-up build: partition addresses
// are computed on all CPUs, the points are sorted in z-order via
// sampling-picked buckets (each bucket sorted on its own goroutine), the
// sorted run is cut into data pages by recursive region splitting, and
// the index is assembled over the finished pages. The build honours
// every structural invariant the incremental path does — the same
// ChooseSplit picks the region boundaries, so pages land between 1/3 and
// full occupancy, and placeEntry posts the level-0 entries with full
// guard handling. Page materialisation and index assembly stay on the
// calling goroutine: the NodeStore contract allows Alloc/Save/Free only
// under the tree's exclusive lock, so the parallelism lives in the
// address and sort passes where the wins are.
//
// On a non-empty tree it degrades to a z-order-sorted batch apply: the
// structure is identical in its guarantees to one built by
// arbitrary-order inserts, and consecutive operations hit the same
// root-to-leaf path, keeping a paged tree's decoded-node cache hot.
//
// On a tree with a log the points are logged as one group-committed
// batch of insert records, and BulkLoad returns once the batch is
// durable. Recovery replays the records one by one: the rebuilt tree
// holds the same items, though not necessarily the same pages, as the
// bulk build.
func (t *Tree) BulkLoad(points []geometry.Point, payloads []uint64) error {
	if len(points) != len(payloads) {
		return fmt.Errorf("bvtree: %d points but %d payloads", len(points), len(payloads))
	}
	if len(points) == 0 {
		return nil
	}
	var bufs []*[]byte
	if t.log != nil {
		bufs = make([]*[]byte, len(points))
		for i := range points {
			bufs[i] = encodeOp(opInsert, points[i], payloads[i])
		}
	}
	return t.commit(func() error { return t.bulkLoadLocked(points, payloads) }, bufs...)
}

// bulkLoadLocked is BulkLoad's body (exclusive lock held).
func (t *Tree) bulkLoadLocked(points []geometry.Point, payloads []uint64) error {
	if t.size == 0 && t.rootLevel == 0 {
		return t.bulkLoadPacked(points, payloads)
	}
	ops := make([]BatchOp, len(points))
	for i := range points {
		ops[i] = BatchOp{Point: points[i], Payload: payloads[i]}
	}
	if err := t.sortBatchZOrder(ops); err != nil {
		return err
	}
	return t.applyBatchLocked(ops)
}

// bulkRec pairs a point's partition address with its input position; the
// position breaks address ties, so duplicates keep their input order.
type bulkRec struct {
	addr region.BitString
	idx  int
}

// bulkLoadPacked is the bottom-up build (exclusive lock held, tree
// empty).
func (t *Tree) bulkLoadPacked(points []geometry.Point, payloads []uint64) error {
	n := len(points)
	workers := runtime.GOMAXPROCS(0)

	// Address pass, chunked across all CPUs: t.addr only touches the
	// immutable interleaver.
	recs := make([]bulkRec, n)
	if workers > 1 && n >= 4096 {
		var wg sync.WaitGroup
		errs := make([]error, workers)
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					a, err := t.addr(points[i])
					if err != nil {
						errs[w] = err
						return
					}
					recs[i] = bulkRec{addr: a, idx: i}
				}
			}(w, lo, hi)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	} else {
		for i := range points {
			a, err := t.addr(points[i])
			if err != nil {
				return err
			}
			recs[i] = bulkRec{addr: a, idx: i}
		}
	}

	recs = t.zSortParallel(recs, workers)

	// Materialise the sorted run: addresses and items in z-order.
	as := make([]region.BitString, n)
	its := make([]page.Item, n)
	for i, r := range recs {
		as[i] = r.addr
		its[i] = page.Item{Point: points[r.idx].Clone(), Payload: payloads[r.idx]}
	}
	entries, err := t.packLeaves(as, its)
	if err != nil {
		return err
	}
	t.size = n
	if len(entries) == 0 {
		return nil
	}

	// Grow the root and post the leaf entries, enclosing regions first
	// (a prefix compares before its extensions), mirroring the order the
	// incremental path would have produced them in.
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Key.Compare(entries[j].Key) < 0
	})
	rootID, rn, err := t.st.AllocIndex(1, region.BitString{})
	if err != nil {
		return err
	}
	rn.Entries = append(rn.Entries, page.Entry{Key: region.BitString{}, Level: 0, Child: t.root})
	if err := t.st.SaveIndex(rootID, rn); err != nil {
		return err
	}
	t.root = rootID
	t.rootLevel = 1
	t.stats.RootGrowths.Inc()
	for _, e := range entries {
		if _, err := t.placeEntry(newOpCtx(), t.root, e); err != nil {
			return err
		}
	}
	return nil
}

// zSortParallel sorts recs by (address, input position). Large inputs are
// cut into disjoint z-order ranges via a sample-built prefix trie and the
// ranges sort concurrently; their concatenation in trie DFS order (0
// before 1) is globally sorted, because the ranges' path prefixes are
// themselves z-ordered.
func (t *Tree) zSortParallel(recs []bulkRec, workers int) []bulkRec {
	less := func(a, b *bulkRec) bool {
		if c := a.addr.Compare(b.addr); c != 0 {
			return c < 0
		}
		return a.idx < b.idx
	}
	n := len(recs)
	if workers <= 1 || n < 4096 {
		sort.Slice(recs, func(i, j int) bool { return less(&recs[i], &recs[j]) })
		return recs
	}

	// Stride-sample the (unsorted) addresses and build the bucket trie
	// over the sorted sample: each leaf targets ~1/(workers*4) of the
	// sample, giving enough buckets to absorb skew without drowning in
	// scheduling overhead.
	sampleN := 1024
	if sampleN > n {
		sampleN = n
	}
	samples := make([]region.BitString, sampleN)
	for i := range samples {
		samples[i] = recs[i*n/sampleN].addr
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].Compare(samples[j]) < 0 })
	maxDepth := t.opt.Dims * t.opt.BitsPerDim
	if maxDepth > 24 {
		maxDepth = 24
	}
	trie, nBuckets := buildBucketTrie(samples, sampleN/(workers*4)+1, maxDepth)

	// Scatter into per-bucket ranges of one backing array.
	counts := make([]int, nBuckets+1)
	buckets := make([]int, n)
	for i := range recs {
		b := trie.bucketOf(recs[i].addr)
		buckets[i] = b
		counts[b+1]++
	}
	for b := 1; b <= nBuckets; b++ {
		counts[b] += counts[b-1]
	}
	offs := append([]int(nil), counts...)
	out := make([]bulkRec, n)
	for i := range recs {
		b := buckets[i]
		out[offs[b]] = recs[i]
		offs[b]++
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for b := 0; b < nBuckets; b++ {
		lo, hi := counts[b], counts[b+1]
		if hi-lo < 2 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(rs []bulkRec) {
			defer wg.Done()
			sort.Slice(rs, func(i, j int) bool { return less(&rs[i], &rs[j]) })
			<-sem
		}(out[lo:hi])
	}
	wg.Wait()
	return out
}

// bucketNode is one node of the sample trie: internal nodes branch on the
// address bit at their depth, leaves name a bucket. Leaves are numbered
// in DFS order with the 0 child first, which is ascending z-order.
type bucketNode struct {
	leaf   bool
	bucket int
	child  [2]*bucketNode
}

func buildBucketTrie(samples []region.BitString, target, maxDepth int) (*bucketNode, int) {
	nBuckets := 0
	var build func(lo, hi, depth int) *bucketNode
	build = func(lo, hi, depth int) *bucketNode {
		if hi-lo <= target || depth >= maxDepth {
			nd := &bucketNode{leaf: true, bucket: nBuckets}
			nBuckets++
			return nd
		}
		mid := lo + sort.Search(hi-lo, func(i int) bool { return samples[lo+i].Bit(depth) == 1 })
		nd := &bucketNode{}
		nd.child[0] = build(lo, mid, depth+1)
		nd.child[1] = build(mid, hi, depth+1)
		return nd
	}
	root := build(0, len(samples), 0)
	return root, nBuckets
}

func (nd *bucketNode) bucketOf(a region.BitString) int {
	d := 0
	for !nd.leaf {
		nd = nd.child[a.Bit(d)]
		d++
	}
	return nd.bucket
}

// packLeaves cuts the z-sorted run (as[i] is its[i]'s address) into data
// pages by recursive region splitting and returns the level-0 entries of
// every page except the outermost, which reuses the tree's existing root
// data page (its region is the universe — the empty bit string).
//
// ChooseSplit picks each boundary exactly as an overflowing page's split
// would, so every emitted page holds between a third and a full
// page of items; sets that admit no split (all-duplicate addresses) are
// emitted oversized, the same soft-overflow escape the incremental path
// uses. Point addresses are all full length, so a split never promotes:
// the inner region's items form one contiguous run of the sorted order
// (a prefix compares before its extensions), located by binary search.
// Emitting materialises a page immediately, which is what lets the outer
// remainder be compacted in place instead of copied — the recursion
// consumes the inner run before the compaction shifts it.
func (t *Tree) packLeaves(as []region.BitString, its []page.Item) ([]page.Entry, error) {
	capN := t.opt.DataCapacity
	var entries []page.Entry
	emit := func(reg region.BitString, run []page.Item) error {
		if reg.Len() == 0 {
			dp, err := t.wData(t.root)
			if err != nil {
				return err
			}
			dp.Items = append(dp.Items[:0], run...)
			return t.st.SaveData(t.root, dp)
		}
		id, dp, err := t.st.AllocData(reg)
		if err != nil {
			return err
		}
		dp.Items = append(dp.Items, run...)
		if err := t.st.SaveData(id, dp); err != nil {
			return err
		}
		entries = append(entries, page.Entry{Key: reg, Level: 0, Child: id})
		return nil
	}
	// The inner side of each split recurses (depth bounded: ChooseSplit
	// keeps both sides ≥ 1/3); the outer side continues the loop.
	var pack func(reg region.BitString, as []region.BitString, its []page.Item) error
	pack = func(reg region.BitString, as []region.BitString, its []page.Item) error {
		for len(as) > capN {
			sc, err := region.ChooseSplit(reg, as)
			if err != nil {
				if errors.Is(err, region.ErrCannotSplit) {
					t.stats.SoftOverflows.Inc()
					break
				}
				return err
			}
			q := sc.Prefix
			lo := sort.Search(len(as), func(i int) bool { return q.Compare(as[i]) <= 0 })
			hi := lo
			for hi < len(as) && q.IsPrefixOf(as[hi]) {
				hi++
			}
			if lo == hi || hi-lo == len(as) {
				t.stats.SoftOverflows.Inc()
				break
			}
			if err := pack(q, as[lo:hi], its[lo:hi]); err != nil {
				return err
			}
			as = append(as[:lo], as[hi:]...)
			its = append(its[:lo], its[hi:]...)
		}
		return emit(reg, its)
	}
	if err := pack(region.BitString{}, as, its); err != nil {
		return nil, err
	}
	return entries, nil
}
