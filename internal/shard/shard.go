// Package shard turns N independent BV-trees into one horizontally
// partitioned index: a router assigns every point to exactly one shard
// by its Morton (Z-order) key, so each shard owns a contiguous,
// prefix-aligned slice of the interleaved key space and — when the
// shards are trees opened with a log — its own write-ahead log (which
// group-commits its writers), checkpoint trigger and page store. Writers
// on different shards never share a tree lock or a log fsync, which is
// what multiplies the single-node write path by the shard count.
//
// Shard boundaries are chosen by sampling (PlanShards): sort the Z-keys
// of a workload sample, take the shard-count quantiles, and round each
// down to a prefix boundary, following the sample-based partitioning of
// the MapReduce k-d-tree construction (Brown, arXiv:1512.06389).
// Prefix alignment keeps every shard range an exact union of bricks of
// the regular binary partitioning, so the Z-interval decomposition of a
// query rectangle (zorder.DecomposeRect) maps cleanly onto shards.
//
// Cross-shard reads have single-tree semantics: the router decomposes
// the query into Z-intervals and queries the shards those intervals
// touch. A range, partial-match or scan query visits them one after
// another in key order on the caller's goroutine, handing each the
// caller's visitor, so early stop and the first error end the query
// where they happen; Count and Nearest, which return one value per
// shard, ask their shards in parallel (see scatter.go). The
// differential tests prove the visible results exactly equal a single
// tree holding the same data.
package shard

import (
	"fmt"
	"sort"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
	"bvtree/internal/obs"
	"bvtree/internal/zorder"
)

// Engine is the per-shard index the router routes to. *bvtree.Tree
// satisfies it, with or without a log; tests wrap it to inject
// faults. Implementations must be safe for concurrent use (the server
// runs one goroutine per connection, and Count and Nearest ask their
// shards in parallel). A point or rect argument is valid only for the
// call: the server decodes each request into memory its next request
// reuses, so an engine that keeps one must copy it, as Tree.Insert does.
type Engine interface {
	Insert(p geometry.Point, payload uint64) error
	Delete(p geometry.Point, payload uint64) (bool, error)
	Lookup(p geometry.Point) ([]uint64, error)
	RangeQuery(rect geometry.Rect, visit bvtree.Visitor) error
	PartialMatch(values geometry.Point, specified []bool, visit bvtree.Visitor) error
	Scan(visit bvtree.Visitor) error
	Count(rect geometry.Rect) (int, error)
	Nearest(p geometry.Point, k int) ([]bvtree.Neighbor, error)
	Len() int
}

// MetricsSource is the optional metrics surface of an Engine.
// *bvtree.Tree provides it; the router's ShardMetrics and
// AggregateCounters use it when present.
type MetricsSource interface {
	Metrics() obs.Snapshot
}

// DefaultPrefixBits is the split-point alignment used when a Plan is
// built with prefixBits = 0: boundaries are multiples of 2^(64-16), so
// the shard map is a partition of the 65536 top-level Z-prefixes.
const DefaultPrefixBits = 16

// Plan is a shard map: the dimensionality it was built for and the
// strictly ascending split keys dividing the 64-bit Z-key space into
// len(Splits)+1 contiguous shard ranges. Shard i owns keys in
// [Splits[i-1], Splits[i]) (with 0 and 2^64 as the outer fences).
// Every split is aligned to a PrefixBits boundary, so each shard range
// is a whole number of partition-tree bricks. A Plan is immutable and
// must be persisted alongside the shard stores: reopening with a
// different plan would route points to the wrong shard.
type Plan struct {
	Dims       int      `json:"dims"`
	PrefixBits int      `json:"prefix_bits"`
	Splits     []uint64 `json:"splits"`
}

// Shards returns the number of shard ranges the plan describes.
func (pl Plan) Shards() int { return len(pl.Splits) + 1 }

// Range returns the closed Z-key interval [lo, hi] owned by shard i.
func (pl Plan) Range(i int) (lo, hi uint64) {
	if i > 0 {
		lo = pl.Splits[i-1]
	}
	hi = ^uint64(0)
	if i < len(pl.Splits) {
		hi = pl.Splits[i] - 1
	}
	return lo, hi
}

func (pl Plan) validate() error {
	if pl.Dims < 1 || pl.Dims > geometry.MaxDims {
		return fmt.Errorf("shard: plan dims %d out of range 1..%d", pl.Dims, geometry.MaxDims)
	}
	if pl.PrefixBits < 1 || pl.PrefixBits > 64 {
		return fmt.Errorf("shard: plan prefix bits %d out of range 1..64", pl.PrefixBits)
	}
	step := prefixStep(pl.PrefixBits)
	var prev uint64
	for i, s := range pl.Splits {
		if s == 0 || (i > 0 && s <= prev) {
			return fmt.Errorf("shard: split %d (%#x) not strictly ascending", i, s)
		}
		if s%step != 0 {
			return fmt.Errorf("shard: split %d (%#x) not aligned to %d-bit prefix", i, s, pl.PrefixBits)
		}
		prev = s
	}
	return nil
}

// prefixStep returns the width of one prefixBits-deep brick in Z-key
// space: the smallest legal distance between split points.
func prefixStep(prefixBits int) uint64 {
	if prefixBits >= 64 {
		return 1
	}
	return 1 << uint(64-prefixBits)
}

// PlanShards chooses shard split points from a workload sample, per the
// sample-based partitioning of the MapReduce k-d-tree construction:
// sort the sample's Z-keys, take the quantile key at each shard
// boundary, and round it down to a prefixBits-aligned prefix boundary
// (prefixBits 0 means DefaultPrefixBits). Rounding collisions — heavy
// clustering can put several quantiles inside one brick — are resolved
// by stepping to the next brick, keeping the splits strictly ascending;
// a sample too narrow to separate at all falls back to the uniform
// plan for the remaining boundaries. An empty sample yields
// PlanUniform. The sample is not retained.
func PlanShards(sample []geometry.Point, dims, shards, prefixBits int) (Plan, error) {
	if prefixBits == 0 {
		prefixBits = DefaultPrefixBits
	}
	if err := checkPlanArgs(dims, shards, prefixBits); err != nil {
		return Plan{}, err
	}
	if len(sample) == 0 {
		return PlanUniform(dims, shards, prefixBits)
	}
	il, err := zorder.NewInterleaver(dims, 64)
	if err != nil {
		return Plan{}, err
	}
	keys := make([]uint64, len(sample))
	for i, p := range sample {
		k, err := il.Interleave64(p)
		if err != nil {
			return Plan{}, fmt.Errorf("shard: sample point %d: %w", i, err)
		}
		keys[i] = k
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	step := prefixStep(prefixBits)
	splits := make([]uint64, 0, shards-1)
	var prev uint64 // last accepted split (0 = none yet)
	for i := 1; i < shards; i++ {
		q := keys[i*len(keys)/shards]
		cand := q - q%step // round down to the enclosing brick boundary
		if cand <= prev {
			cand = prev + step // collision: take the next brick instead
			if cand < prev {   // wrapped past 2^64: key space exhausted
				uni, err := PlanUniform(dims, shards, prefixBits)
				if err != nil {
					return Plan{}, err
				}
				for _, u := range uni.Splits {
					if u > prev && len(splits) < shards-1 {
						splits = append(splits, u)
						prev = u
					}
				}
				break
			}
		}
		splits = append(splits, cand)
		prev = cand
	}
	pl := Plan{Dims: dims, PrefixBits: prefixBits, Splits: splits}
	if err := pl.validate(); err != nil {
		return Plan{}, err
	}
	return pl, nil
}

// PlanUniform divides the Z-key space into shards equal prefix-aligned
// ranges, ignoring the data distribution. It is the fallback when no
// sample is available (a fresh server) and the degenerate single-shard
// plan for shards = 1.
func PlanUniform(dims, shards, prefixBits int) (Plan, error) {
	if prefixBits == 0 {
		prefixBits = DefaultPrefixBits
	}
	if err := checkPlanArgs(dims, shards, prefixBits); err != nil {
		return Plan{}, err
	}
	// Spread the shards-1 boundaries over the 2^prefixBits bricks.
	bricks := uint64(1) << uint(prefixBits)
	if prefixBits == 64 {
		bricks = ^uint64(0) // saturate; ample for any legal shard count
	}
	splits := make([]uint64, 0, shards-1)
	for i := 1; i < shards; i++ {
		brick := uint64(i) * (bricks / uint64(shards))
		if r := bricks % uint64(shards); r != 0 {
			// Distribute the remainder so ranges differ by at most one brick.
			brick += uint64(i) * r / uint64(shards)
		}
		splits = append(splits, brick*prefixStep(prefixBits))
	}
	pl := Plan{Dims: dims, PrefixBits: prefixBits, Splits: splits}
	return pl, pl.validate()
}

func checkPlanArgs(dims, shards, prefixBits int) error {
	if dims < 1 || dims > geometry.MaxDims {
		return fmt.Errorf("shard: dims %d out of range 1..%d", dims, geometry.MaxDims)
	}
	if prefixBits < 1 || prefixBits > 64 {
		return fmt.Errorf("shard: prefix bits %d out of range 1..64", prefixBits)
	}
	if shards < 1 {
		return fmt.Errorf("shard: shard count %d below 1", shards)
	}
	if prefixBits < 63 && uint64(shards) > 1<<uint(prefixBits) {
		return fmt.Errorf("shard: %d shards exceed the %d prefix boundaries of %d-bit alignment",
			shards, uint64(1)<<uint(prefixBits), prefixBits)
	}
	return nil
}

// Router maps points and queries onto a fixed set of shard engines
// according to a Plan. All methods are safe for concurrent use provided
// the engines are; the router itself is immutable after construction.
//
// Client-visible semantics are those of a single tree over the union of
// the shards' contents: point operations route to exactly one shard, and
// the cross-shard traversals (scatter.go) deliver results through the
// caller's visitor, shard by shard in key order, with single-tree
// early-stop and error behaviour.
type Router struct {
	plan    Plan
	il      *zorder.Interleaver
	engines []Engine
	lo, hi  []uint64 // per-shard closed key ranges, index-aligned with engines
}

// NewRouter binds engines to the plan's shard ranges: engines[i] owns
// plan.Range(i). The engines must be empty or already partitioned by
// the same plan — the router cannot verify placement and routes purely
// by key.
func NewRouter(plan Plan, engines []Engine) (*Router, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	if len(engines) != plan.Shards() {
		return nil, fmt.Errorf("shard: plan describes %d shards, got %d engines",
			plan.Shards(), len(engines))
	}
	il, err := zorder.NewInterleaver(plan.Dims, 64)
	if err != nil {
		return nil, err
	}
	r := &Router{
		plan:    plan,
		il:      il,
		engines: append([]Engine(nil), engines...),
		lo:      make([]uint64, len(engines)),
		hi:      make([]uint64, len(engines)),
	}
	for i := range engines {
		r.lo[i], r.hi[i] = plan.Range(i)
	}
	return r, nil
}

// Plan returns the shard map the router routes by.
func (r *Router) Plan() Plan { return r.plan }

// Shards returns the number of shards.
func (r *Router) Shards() int { return len(r.engines) }

// Engine returns shard i's engine (for metrics and lifecycle; the
// caller must not mutate it in ways that move points across ranges).
func (r *Router) Engine(i int) Engine { return r.engines[i] }

// ShardFor returns the index of the shard owning p's Z-key.
func (r *Router) ShardFor(p geometry.Point) (int, error) {
	key, err := r.il.Interleave64(p)
	if err != nil {
		return 0, err
	}
	return r.shardForKey(key), nil
}

// shardForKey locates the shard whose [lo, hi] range contains key.
func (r *Router) shardForKey(key uint64) int {
	// First shard whose split exceeds key; splits[i] is shard i+1's lo.
	return sort.Search(len(r.plan.Splits), func(i int) bool { return key < r.plan.Splits[i] })
}

// Insert routes the point to its owning shard.
func (r *Router) Insert(p geometry.Point, payload uint64) error {
	i, err := r.ShardFor(p)
	if err != nil {
		return err
	}
	return r.engines[i].Insert(p, payload)
}

// Delete routes the deletion to the point's owning shard.
func (r *Router) Delete(p geometry.Point, payload uint64) (bool, error) {
	i, err := r.ShardFor(p)
	if err != nil {
		return false, err
	}
	return r.engines[i].Delete(p, payload)
}

// Lookup routes the exact-match search to the point's owning shard.
func (r *Router) Lookup(p geometry.Point) ([]uint64, error) {
	i, err := r.ShardFor(p)
	if err != nil {
		return nil, err
	}
	return r.engines[i].Lookup(p)
}

// Len returns the total number of stored items across all shards.
func (r *Router) Len() int {
	n := 0
	for _, e := range r.engines {
		n += e.Len()
	}
	return n
}

// ShardLens returns every shard's item count, index-aligned with the
// plan's ranges — the balance view operators watch.
func (r *Router) ShardLens() []int {
	out := make([]int, len(r.engines))
	for i, e := range r.engines {
		out[i] = e.Len()
	}
	return out
}

// ShardMetrics returns shard i's observability snapshot, or false when
// the engine does not expose one.
func (r *Router) ShardMetrics(i int) (obs.Snapshot, bool) {
	ms, ok := r.engines[i].(MetricsSource)
	if !ok {
		return obs.Snapshot{}, false
	}
	return ms.Metrics(), true
}

// AggregateCounters sums the structural tree counters across all shards
// that expose metrics — the cluster-wide view of the same counters a
// single tree reports.
func (r *Router) AggregateCounters() obs.TreeCountersSnapshot {
	var agg obs.TreeCountersSnapshot
	for i := range r.engines {
		s, ok := r.ShardMetrics(i)
		if !ok {
			continue
		}
		c := s.Tree.Counters
		agg.NodeAccesses += c.NodeAccesses
		agg.DataSplits += c.DataSplits
		agg.IndexSplits += c.IndexSplits
		agg.Promotions += c.Promotions
		agg.Demotions += c.Demotions
		agg.Merges += c.Merges
		agg.Resplits += c.Resplits
		agg.MergeDeferrals += c.MergeDeferrals
		agg.SoftOverflows += c.SoftOverflows
		agg.RootGrowths += c.RootGrowths
		agg.RangeEmptyPages += c.RangeEmptyPages
		agg.RangeFullPages += c.RangeFullPages
		agg.BatchTests += c.BatchTests
	}
	return agg
}

// shardsForRect returns the ascending indices of every shard whose key
// range intersects the Z-interval decomposition of rect. The
// decomposition is a superset cover (see zorder.DecomposeRect), so a
// returned shard may hold no matching point — that only costs a query
// that returns nothing — but no shard holding a matching point is ever
// skipped: every point in rect has its full-precision Z-key inside one
// of the decomposed intervals, and its shard's range contains that key.
func (r *Router) shardsForRect(rect geometry.Rect) ([]int, error) {
	if len(r.engines) == 1 {
		return []int{0}, nil
	}
	// Budget: a few intervals per shard keeps the cover tight enough to
	// skip non-overlapping shards without deep recursion.
	ranges, err := zorder.DecomposeRect(r.il, rect, 4*len(r.engines))
	if err != nil {
		return nil, err
	}
	// The intervals ascend and are disjoint, so the shards they touch come
	// out ascending; next skips a shard an earlier interval already chose.
	out := make([]int, 0, len(r.engines))
	next := 0
	for _, kr := range ranges {
		for i := max(r.shardForKey(kr.Lo), next); i < len(r.engines) && r.lo[i] <= kr.Hi; i++ {
			out = append(out, i)
			next = i + 1
		}
	}
	return out, nil
}
