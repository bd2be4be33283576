package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
)

// gatherBatchSize is how many matches a shard accumulates before handing
// them to the merger: one channel send per batch instead of per item.
// Ownership of the slices transfers with the send.
const gatherBatchSize = 256

// gatherMsg is one message from a shard traversal to the merger: a
// batch of matches, or (done = true) the shard's completion with its
// traversal error.
type gatherMsg struct {
	pts  []geometry.Point
	pays []uint64
	err  error
	done bool
}

// scatter fans one traversal out to the target shards and merges the
// per-shard streams into a single serial visitor delivery with
// single-tree semantics:
//
//   - visit is only ever invoked from the calling goroutine, one item
//     at a time, exactly as the single-tree RangeQuery contract states;
//   - visit returning false stops the whole query: a shared stop flag
//     makes every in-flight shard traversal's visitor return false,
//     which ends that shard's walk as any declining visitor does, and
//     scatter returns nil (early stop is not an error);
//   - the first shard error cancels the remaining shards the same way
//     and is returned; items are delivered only until the error is
//     observed.
//
// Delivery interleaving across shards is unspecified, matching the
// single tree's "traversal order is unspecified" contract; the visible
// result multiset is exactly the union of the disjoint shard results.
func (r *Router) scatter(targets []int, visit bvtree.Visitor,
	run func(e Engine, emit bvtree.Visitor) error) error {

	var stop atomic.Bool
	out := make(chan gatherMsg, len(targets))
	var wg sync.WaitGroup
	for _, idx := range targets {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			var pts []geometry.Point
			var pays []uint64
			emit := func(p geometry.Point, payload uint64) bool {
				if stop.Load() {
					return false
				}
				pts = append(pts, p)
				pays = append(pays, payload)
				if len(pts) >= gatherBatchSize {
					out <- gatherMsg{pts: pts, pays: pays}
					pts, pays = nil, nil
				}
				return true
			}
			err := run(r.engines[idx], emit)
			if err == nil && len(pts) > 0 {
				out <- gatherMsg{pts: pts, pays: pays}
			}
			out <- gatherMsg{done: true, err: err}
		}(idx)
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	var firstErr error
	stopped := false
	for msg := range out { // always drained fully, so producers never block
		if msg.done {
			if msg.err != nil && firstErr == nil {
				firstErr = msg.err
				stop.Store(true)
			}
			continue
		}
		if stopped || firstErr != nil {
			continue
		}
		for i := range msg.pts {
			if !visit(msg.pts[i], msg.pays[i]) {
				stopped = true
				stop.Store(true)
				break
			}
		}
	}
	return firstErr
}

// RangeQuery invokes visit for every stored item inside rect across all
// shards. The visitor contract is the single tree's: serial delivery
// from the calling goroutine, unspecified order, returning false stops
// the query, the first shard error cancels the others and is returned.
func (r *Router) RangeQuery(rect geometry.Rect, visit bvtree.Visitor) error {
	targets, err := r.shardsForRect(rect)
	if err != nil {
		return err
	}
	if len(targets) == 0 {
		return nil
	}
	if len(targets) == 1 {
		return r.engines[targets[0]].RangeQuery(rect, visit)
	}
	return r.scatter(targets, visit, func(e Engine, emit bvtree.Visitor) error {
		return e.RangeQuery(rect, emit)
	})
}

// PartialMatch answers a partial-match query — values[i] is fixed where
// specified[i] is true, free otherwise — across all shards, under the
// same merged-delivery contract as RangeQuery.
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
	if len(targets) == 1 {
		return r.engines[targets[0]].PartialMatch(values, specified, visit)
	}
	return r.scatter(targets, visit, func(e Engine, emit bvtree.Visitor) error {
		return e.PartialMatch(values, specified, emit)
	})
}

// Scan visits every stored item. Shards are scanned one after another
// in Z-key range order from the calling goroutine — a full enumeration
// gains nothing from fan-out that the visitor (the bottleneck) could
// observe, and the serial walk keeps delivery order deterministic per
// shard.
func (r *Router) Scan(visit bvtree.Visitor) error {
	stopped := false
	wrap := func(p geometry.Point, payload uint64) bool {
		if !visit(p, payload) {
			stopped = true
			return false
		}
		return true
	}
	for _, e := range r.engines {
		if err := e.Scan(wrap); err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}

// Count returns the number of items inside rect, summing per-shard
// count-only traversals run in parallel. Shard counts are independent
// (shards are disjoint), so the sum is exact. A failing shard's error
// is returned; counts have no per-item visitor, so a failed scatter
// waits for the stragglers rather than cancelling them.
func (r *Router) Count(rect geometry.Rect) (int, error) {
	targets, err := r.shardsForRect(rect)
	if err != nil {
		return 0, err
	}
	if len(targets) == 0 {
		return 0, nil
	}
	if len(targets) == 1 {
		return r.engines[targets[0]].Count(rect)
	}
	counts := make([]int, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for j, idx := range targets {
		wg.Add(1)
		go func(j, idx int) {
			defer wg.Done()
			counts[j], errs[j] = r.engines[idx].Count(rect)
		}(j, idx)
	}
	wg.Wait()
	total := 0
	for j := range targets {
		if errs[j] != nil {
			return 0, errs[j]
		}
		total += counts[j]
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
	if len(r.engines) == 1 {
		return r.engines[0].Nearest(p, k)
	}
	if k <= 0 {
		// Delegate validation to a real engine so the error text matches
		// the single tree's.
		return r.engines[0].Nearest(p, k)
	}
	results := make([][]bvtree.Neighbor, len(r.engines))
	errs := make([]error, len(r.engines))
	var wg sync.WaitGroup
	for i := range r.engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.engines[i].Nearest(p, k)
		}(i)
	}
	wg.Wait()
	var merged []bvtree.Neighbor
	for i := range r.engines {
		if errs[i] != nil {
			return nil, errs[i]
		}
		merged = append(merged, results[i]...)
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
