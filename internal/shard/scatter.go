package shard

import (
	"fmt"
	"sort"
	"sync"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
)

// visitShards is the one delivery path of RangeQuery, PartialMatch and
// Scan. It runs query on each target shard in turn, in ascending
// key-range order, on the calling goroutine, with the caller's visitor:
// a cross-shard query costs the sum of its shard walks plus one visitor
// call per result, as the same query does on a single tree, and the
// delivery order is repeatable for an unchanged state.
//
// visit returning false ends the query with nil, and no later shard is
// called. The first shard error is returned at once: the visitor has
// seen the items that shard delivered before failing, as a single
// tree's walk delivers items before it hits an I/O error, and no later
// shard is called.
func (r *Router) visitShards(targets []int, visit bvtree.Visitor,
	query func(e Engine, visit bvtree.Visitor) error) error {

	if len(targets) == 1 {
		return query(r.engines[targets[0]], visit) // no later shard to stop
	}
	stopped := false
	wrap := func(p geometry.Point, payload uint64) bool {
		if !visit(p, payload) {
			stopped = true
			return false
		}
		return true
	}
	for _, i := range targets {
		if err := query(r.engines[i], wrap); err != nil || stopped {
			return err
		}
	}
	return nil
}

// fanOut runs call(j) for j in [0, n) on goroutines of its own and
// returns the first error in j order once every call has returned. It
// serves Count and Nearest, whose shards each return one value, so no
// item crosses between goroutines.
func fanOut(n int, call func(j int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for j := range n {
		go func() {
			defer wg.Done()
			errs[j] = call(j)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RangeQuery invokes visit for every stored item inside rect across all
// shards. The visitor contract is the single tree's: serial delivery
// from the calling goroutine, returning false stops the query, and a
// shard error is returned. Shards are visited in key order (visitShards).
func (r *Router) RangeQuery(rect geometry.Rect, visit bvtree.Visitor) error {
	targets, err := r.shardsForRect(rect)
	if err != nil {
		return err
	}
	return r.visitShards(targets, visit, func(e Engine, visit bvtree.Visitor) error {
		return e.RangeQuery(rect, visit)
	})
}

// PartialMatch answers a partial-match query — values[i] is fixed where
// specified[i] is true, free otherwise — across all shards, under the
// same delivery contract as RangeQuery.
func (r *Router) PartialMatch(values geometry.Point, specified []bool, visit bvtree.Visitor) error {
	if len(values) != r.plan.Dims || len(specified) != r.plan.Dims {
		return errShapeMismatch(r.plan.Dims)
	}
	rect := geometry.UniverseRect(r.plan.Dims)
	for i := range values {
		if specified[i] {
			rect.Min[i], rect.Max[i] = values[i], values[i]
		}
	}
	targets, err := r.shardsForRect(rect)
	if err != nil {
		return err
	}
	return r.visitShards(targets, visit, func(e Engine, visit bvtree.Visitor) error {
		return e.PartialMatch(values, specified, visit)
	})
}

// Scan visits every stored item, under the same delivery contract as
// RangeQuery: every shard in turn, in Z-key range order.
func (r *Router) Scan(visit bvtree.Visitor) error {
	all := make([]int, len(r.engines))
	for i := range all {
		all[i] = i
	}
	return r.visitShards(all, visit, Engine.Scan)
}

// Count returns the number of items inside rect, summing per-shard
// count-only traversals run in parallel (fanOut). Shard counts are
// independent (shards are disjoint), so the sum is exact. A failing
// shard's error is returned once every shard has answered.
func (r *Router) Count(rect geometry.Rect) (int, error) {
	targets, err := r.shardsForRect(rect)
	if err != nil {
		return 0, err
	}
	if len(targets) == 1 {
		return r.engines[targets[0]].Count(rect)
	}
	counts := make([]int, len(targets))
	if err := fanOut(len(targets), func(j int) (err error) {
		counts[j], err = r.engines[targets[j]].Count(rect)
		return err
	}); err != nil {
		return 0, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, nil
}

// Nearest returns the k stored items closest to p in Euclidean
// distance, nearest first, merging per-shard best-first searches. Every
// shard is consulted — a nearest neighbour can live in any shard range
// regardless of p's own key — and each returns at most k candidates, so
// the merge of the disjoint candidate sets provably contains the global
// k nearest. Cross-shard ties at exactly equal distance are ordered by
// point then payload, which a single tree's internal heap order does
// not guarantee; everything else is bit-identical to the single-tree
// result.
func (r *Router) Nearest(p geometry.Point, k int) ([]bvtree.Neighbor, error) {
	if len(r.engines) == 1 || k <= 0 {
		// One shard is the whole tree; a bad k goes to a real engine so
		// that the error text matches the single tree's.
		return r.engines[0].Nearest(p, k)
	}
	results := make([][]bvtree.Neighbor, len(r.engines))
	if err := fanOut(len(r.engines), func(i int) (err error) {
		results[i], err = r.engines[i].Nearest(p, k)
		return err
	}); err != nil {
		return nil, err
	}
	var merged []bvtree.Neighbor
	for _, res := range results {
		merged = append(merged, res...)
	}
	sort.SliceStable(merged, func(a, b int) bool {
		if merged[a].Dist != merged[b].Dist {
			return merged[a].Dist < merged[b].Dist
		}
		if c := comparePoints(merged[a].Point, merged[b].Point); c != 0 {
			return c < 0
		}
		return merged[a].Payload < merged[b].Payload
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged, nil
}

func comparePoints(a, b geometry.Point) int {
	for d := range a {
		switch {
		case a[d] < b[d]:
			return -1
		case a[d] > b[d]:
			return 1
		}
	}
	return 0
}

func errShapeMismatch(dims int) error {
	return fmt.Errorf("shard: partial-match query shape mismatch (dims %d)", dims)
}
