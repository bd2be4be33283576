package bvtree

// Range cost against the paper-side yardstick. Hema & Easwarakumar
// (PAPERS.md) bound range search by O(log n + k); the BV-tree's form of
// that bound is about ⌈k/(2P/3)⌉ + height pages for a window of k items
// at typical occupancy (⌈k/(P/3)⌉ + height at the 1/3 floor). What a walk
// pays beyond it is made of index nodes above the data and of data pages
// whose brick meets the window while none of their points do, which the
// walk counts as RangeEmptyPages.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/obs"
	"bvtree/internal/page"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// countingData counts the data pages a range walk fetches through a
// tree's node store, and the items they hold.
type countingData struct {
	NodeStore
	pages, items uint64
}

func (c *countingData) borrowData(id page.ID, lookup bool) (*page.DataPage, *scratchPage, error) {
	c.pages++
	dp, sc, err := c.NodeStore.borrowData(id, lookup)
	if err == nil {
		c.items += uint64(dp.Len())
	}
	return dp, sc, err
}

// kItemWindows returns count square windows holding exactly k of pts
// each: the k nearest, by Chebyshev distance, of a point drawn from pts.
// It draws from rng as BenchmarkRangeDrive's windowsOf does, so the same
// seed gives the benchmark's windows.
func kItemWindows(pts []geometry.Point, k, count int, rng *rand.Rand) []geometry.Rect {
	dist := make([]uint64, len(pts))
	var out []geometry.Rect
	for len(out) < count {
		c := pts[rng.Intn(len(pts))]
		for i, p := range pts {
			dist[i] = 0
			for d := range p {
				dist[i] = max(dist[i], max(p[d], c[d])-min(p[d], c[d]))
			}
		}
		slices.Sort(dist)
		r := dist[k-1]
		if dist[k] == r {
			continue // a tie on the edge: the square would hold more than k
		}
		w := geometry.UniverseRect(len(c))
		for d := range c {
			if c[d] > r {
				w.Min[d] = c[d] - r
			}
			if c[d] < math.MaxUint64-r {
				w.Max[d] = c[d] + r
			}
		}
		out = append(out, w)
	}
	return out
}

// TestRangeCostAgainstYardstick runs windows of exactly k items over the
// tree and windows of BenchmarkRangeDrive (100k clustered points, default
// page sizes; the 4097-item windows are the benchmark's own). It asserts
// what holds by construction — a one-item window meets no empty page,
// and no window counts more empty pages than data pages fetched — and
// logs nodes_per_item against the yardstick and the empty pages' share
// of the data pages fetched.
func TestRangeCostAgainstYardstick(t *testing.T) {
	pts, err := workload.Generate(workload.Clustered, 2, 100_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(storage.NewMemStore(), nil, Options{Dims: 2, CacheNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]BatchOp, 0, 4096)
	for lo := 0; lo < len(pts); lo += cap(ops) {
		ops = ops[:0]
		for i := lo; i < lo+cap(ops) && i < len(pts); i++ {
			ops = append(ops, BatchOp{Point: pts[i], Payload: uint64(i)})
		}
		if err := tr.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	snap := tr.Snapshot()
	defer snap.Release()
	v := &snap.v
	v.stats = &obs.TreeCounters{}
	fetched := &countingData{NodeStore: v.st}
	v.st = fetched

	rng := rand.New(rand.NewSource(1))
	perItemPage := 2 * float64(v.opt.DataCapacity) / 3
	for _, k := range []int{4097, 1, 64} {
		wins := kItemWindows(pts, k, 16, rng)
		var nodes, empty, pages uint64
		for _, w := range wins {
			before, pagesBefore := v.stats.Snapshot(), fetched.pages
			got := 0
			if err := snap.RangeQuery(w, func(geometry.Point, uint64) bool { got++; return true }); err != nil {
				t.Fatal(err)
			}
			after := v.stats.Snapshot()
			dn, de, dp := after.NodeAccesses-before.NodeAccesses, after.RangeEmptyPages-before.RangeEmptyPages, fetched.pages-pagesBefore
			if got != k {
				t.Fatalf("window %v: %d items, want %d", w, got, k)
			}
			if k == 1 && de != 0 {
				t.Fatalf("one-item window %v fetched %d empty pages", w, de)
			}
			if de > dp {
				t.Fatalf("window %v of %d items: %d empty pages of %d data pages fetched", w, k, de, dp)
			}
			nodes, empty, pages = nodes+dn, empty+de, pages+dp
		}
		n := float64(len(wins))
		t.Logf("k=%d, height %d: %.1f nodes per window against a yardstick of %.0f, nodes_per_item %.4f; %.1f data pages fetched, %.2f empty (%.1f%%)",
			k, v.rootLevel, float64(nodes)/n, math.Ceil(float64(k)/perItemPage)+float64(v.rootLevel),
			float64(nodes)/n/float64(k), float64(pages)/n, float64(empty)/n, 100*float64(empty)/float64(pages))
	}
}
