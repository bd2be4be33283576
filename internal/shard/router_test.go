package shard

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
	"bvtree/internal/workload"
	"bvtree/internal/zorder"
)

func TestShardPlanShards(t *testing.T) {
	const dims = 2
	t.Run("balance-on-clustered", func(t *testing.T) {
		pts, err := workload.Generate(workload.Clustered, dims, 4000, 3)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanShards(pts, dims, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Shards() != 8 {
			t.Fatalf("plan has %d shards, want 8", plan.Shards())
		}
		engines := newEngines(t, "mem", plan)
		r, err := NewRouter(plan, engines)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if err := r.Insert(p, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		// Sample-based splits must do far better on clustered data than
		// the worst case: no shard should hold more than half the data
		// (uniform splits typically leave most shards empty here).
		for i, n := range r.ShardLens() {
			if n > len(pts)/2 {
				t.Fatalf("shard %d holds %d of %d points: sampling failed to balance", i, n, len(pts))
			}
		}
	})

	t.Run("degenerate-identical-sample", func(t *testing.T) {
		// Every sample point identical: quantiles all collide onto one
		// brick; the plan must still be strictly ascending and valid.
		p := geometry.Point{1 << 60, 1 << 60}
		sample := make([]geometry.Point, 100)
		for i := range sample {
			sample[i] = p
		}
		plan, err := PlanShards(sample, dims, 6, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.validate(); err != nil {
			t.Fatal(err)
		}
		if plan.Shards() != 6 {
			t.Fatalf("got %d shards, want 6", plan.Shards())
		}
	})

	t.Run("empty-sample-falls-back-uniform", func(t *testing.T) {
		plan, err := PlanShards(nil, dims, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		uni, err := PlanUniform(dims, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Splits) != len(uni.Splits) {
			t.Fatalf("fallback plan %v != uniform %v", plan.Splits, uni.Splits)
		}
		for i := range plan.Splits {
			if plan.Splits[i] != uni.Splits[i] {
				t.Fatalf("fallback plan %v != uniform %v", plan.Splits, uni.Splits)
			}
		}
	})

	t.Run("bad-args", func(t *testing.T) {
		if _, err := PlanUniform(0, 4, 0); err == nil {
			t.Error("dims 0 accepted")
		}
		if _, err := PlanUniform(2, 0, 0); err == nil {
			t.Error("0 shards accepted")
		}
		if _, err := PlanUniform(2, 5, 2); err == nil {
			t.Error("5 shards over 4 prefix boundaries accepted")
		}
		if _, err := NewRouter(Plan{Dims: 2, PrefixBits: 16, Splits: []uint64{2 << 48, 1 << 48}}, nil); err == nil {
			t.Error("descending splits accepted")
		}
	})
}

func TestShardRouting(t *testing.T) {
	const dims = 3
	pts, err := workload.Generate(workload.Uniform, dims, 500, 21)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanShards(pts, dims, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(plan, newEngines(t, "mem", plan))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		i, err := r.ShardFor(p)
		if err != nil {
			t.Fatal(err)
		}
		key, err := r.il.Interleave64(p)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := plan.Range(i)
		if key < lo || key > hi {
			t.Fatalf("point %v routed to shard %d [%#x, %#x] but key is %#x", p, i, lo, hi, key)
		}
	}
	if _, err := r.ShardFor(geometry.Point{1, 2}); err == nil {
		t.Error("wrong-dimensionality point accepted")
	}
}

// TestShardStraddlingWindows pins the cross-shard decomposition: query
// windows deliberately straddling one, two and all split boundaries of
// a known uniform plan must hit the right shards and return exactly the
// single-tree result.
func TestShardStraddlingWindows(t *testing.T) {
	const dims = 2
	// Uniform 4-shard plan at 2-bit alignment: splits at the quarters of
	// Z-space. In 2-D those are the four quadrants of the domain
	// (first two interleaved bits = y-then-x halves).
	plan, err := PlanUniform(dims, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(plan, newEngines(t, "mem", plan))
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(t, dims)
	pts, err := workload.Generate(workload.Uniform, dims, 3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := r.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := ref.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if lens := r.ShardLens(); len(lens) != 4 {
		t.Fatalf("expected 4 shards, got %v", lens)
	}

	const mid = uint64(1) << 63
	quarter := uint64(1) << 62
	cases := []struct {
		name      string
		rect      geometry.Rect
		minShards int
	}{
		// Entirely inside the low quadrant: exactly one shard.
		{"one-shard", geometry.Rect{
			Min: geometry.Point{0, 0},
			Max: geometry.Point{quarter, quarter}}, 1},
		// Straddles the x midline only: two shards.
		{"two-shards", geometry.Rect{
			Min: geometry.Point{mid - quarter/2, 0},
			Max: geometry.Point{mid + quarter/2, quarter}}, 2},
		// Centered on the domain midpoint: all four shards.
		{"four-shards", geometry.Rect{
			Min: geometry.Point{mid - quarter/2, mid - quarter/2},
			Max: geometry.Point{mid + quarter/2, mid + quarter/2}}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			targets, err := r.shardsForRect(tc.rect)
			if err != nil {
				t.Fatal(err)
			}
			if len(targets) < tc.minShards {
				t.Fatalf("window %v touched shards %v, want at least %d", tc.rect, targets, tc.minShards)
			}
			got := collect(t, func(v bvtree.Visitor) error { return r.RangeQuery(tc.rect, v) })
			want := collect(t, func(v bvtree.Visitor) error { return ref.RangeQuery(tc.rect, v) })
			sameItems(t, tc.name, got, want)
			gc, err := r.Count(tc.rect)
			if err != nil {
				t.Fatal(err)
			}
			if gc != len(want) {
				t.Fatalf("count %d, want %d", gc, len(want))
			}
		})
	}
}

// TestShardsForRectMatchesHitSet pins shard selection to the rule it was
// written as: mark every shard an interval of the cover overlaps, then
// list the marked shards in order.
func TestShardsForRectMatchesHitSet(t *testing.T) {
	const dims = 2
	sample, err := workload.Generate(workload.Clustered, dims, 2000, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4, 7, 16} {
		plan, err := PlanShards(sample, dims, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRouter(plan, make([]Engine, shards))
		if err != nil {
			t.Fatal(err)
		}
		for seed, side := range []float64{0.001, 0.01, 0.1, 0.5} {
			for _, rect := range workload.QueryRects(dims, 50, side, uint64(seed)) {
				got, err := r.shardsForRect(rect)
				if err != nil {
					t.Fatal(err)
				}
				ranges, err := zorder.DecomposeRect(r.il, rect, 4*shards)
				if err != nil {
					t.Fatal(err)
				}
				hit := make([]bool, shards)
				for _, kr := range ranges {
					for i := r.shardForKey(kr.Lo); i < shards && r.lo[i] <= kr.Hi; i++ {
						hit[i] = true
					}
				}
				var want []int
				for i, h := range hit {
					if h {
						want = append(want, i)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%d shards, window %v: selected %v, want %v", shards, rect, got, want)
				}
			}
		}
	}
}

// TestShardEmptyShards drives a cluster where the data lives in one
// corner of the domain under a uniform plan, leaving most shards
// empty: routing, cross-shard queries and per-shard accounting must
// all stay exact.
func TestShardEmptyShards(t *testing.T) {
	const dims = 2
	plan, err := PlanUniform(dims, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(plan, newEngines(t, "mem", plan))
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(t, dims)
	// All points in the lowest 1/256 of both dimensions: Z-keys share a
	// long common prefix, so exactly one shard owns every point.
	pts, err := workload.Generate(workload.Uniform, dims, 1500, 17)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		for d := range p {
			p[d] >>= 8
		}
		if err := r.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := ref.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	lens := r.ShardLens()
	nonEmpty := 0
	for _, n := range lens {
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("expected exactly 1 non-empty shard, got lens %v", lens)
	}
	diffAll(t, r, ref, pts)

	// A whole-domain query crosses every shard, including the empty
	// ones; empty shards must contribute nothing and not wedge the
	// query.
	rect := geometry.UniverseRect(dims)
	targets, err := r.shardsForRect(rect)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 8 {
		t.Fatalf("universe window touched %v, want all 8 shards", targets)
	}
	n, err := r.Count(rect)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(pts) {
		t.Fatalf("universe count %d, want %d", n, len(pts))
	}
}

// errEngine wraps an Engine whose reads fail with err: RangeQuery after
// emitting its first emitFirst matches, Count and Nearest at once. When
// returned is set, it is closed as RangeQuery returns.
type errEngine struct {
	Engine
	err       error
	emitFirst int
	returned  chan struct{}
}

func (e *errEngine) RangeQuery(rect geometry.Rect, visit bvtree.Visitor) error {
	if e.returned != nil {
		defer close(e.returned)
	}
	emitted := 0
	_ = e.Engine.RangeQuery(rect, func(p geometry.Point, payload uint64) bool {
		if emitted >= e.emitFirst {
			return false
		}
		emitted++
		return visit(p, payload)
	})
	return e.err
}

func (e *errEngine) Count(geometry.Rect) (int, error) { return 0, e.err }

func (e *errEngine) Nearest(geometry.Point, int) ([]bvtree.Neighbor, error) { return nil, e.err }

// gatedEngine stands in for a shard whose walk would not end on its own:
// once gate is closed, RangeQuery emits distinct points until its visitor
// declines or limit is reached, counting them — the probe that shows
// whether the router entered the shard at all.
type gatedEngine struct {
	Engine
	gate    <-chan struct{}
	limit   int64
	emitted atomic.Int64
}

func (e *gatedEngine) RangeQuery(rect geometry.Rect, visit bvtree.Visitor) error {
	<-e.gate
	for i := int64(0); i < e.limit; i++ {
		e.emitted.Add(1)
		if !visit(geometry.Point{uint64(i), 0}, uint64(i)) {
			break
		}
	}
	return nil
}

// TestShardFirstErrorCancellation pins the error contract of the serial
// delivery: shards are visited in key order, a failing shard's error is
// returned at once, the visitor has seen exactly what the shards before
// it and the failing shard itself delivered, and no later shard is
// entered. Count and Nearest return a failing shard's error too.
func TestShardFirstErrorCancellation(t *testing.T) {
	const dims = 2
	plan, err := PlanUniform(dims, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	engines := newEngines(t, "mem", plan)
	r0, err := NewRouter(plan, engines)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(workload.Uniform, dims, 4000, 23)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := r0.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	universe := geometry.UniverseRect(dims)
	sentinel := errors.New("shard poisoned")

	// run queries the universe through a router whose shard bad fails
	// after 3 matches and whose last shard is gated on that failure, and
	// returns the shard of every item the visitor saw.
	run := func(t *testing.T, bad int) []int {
		failed := make(chan struct{})
		routed := slices.Clone(engines)
		routed[bad] = &errEngine{Engine: engines[bad], err: sentinel, emitFirst: 3, returned: failed}
		gated := &gatedEngine{Engine: engines[2], gate: failed, limit: 1 << 20}
		routed[2] = gated
		r, err := NewRouter(plan, routed)
		if err != nil {
			t.Fatal(err)
		}
		var seen []int
		err = r.RangeQuery(universe, func(p geometry.Point, _ uint64) bool {
			i, err := r0.ShardFor(p)
			if err != nil {
				t.Fatal(err)
			}
			seen = append(seen, i)
			return true
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("got error %v, want the failing shard's sentinel", err)
		}
		if n := gated.emitted.Load(); n != 0 {
			t.Fatalf("the shard after the failing one was entered and emitted %d items", n)
		}
		if _, err := r.Count(universe); !errors.Is(err, sentinel) {
			t.Fatalf("count: got error %v, want the failing shard's sentinel", err)
		}
		if _, err := r.Nearest(pts[0], 10); !errors.Is(err, sentinel) {
			t.Fatalf("nearest: got error %v, want the failing shard's sentinel", err)
		}
		return seen
	}

	t.Run("failing-first", func(t *testing.T) {
		seen := run(t, 0)
		if !slices.Equal(seen, []int{0, 0, 0}) {
			t.Fatalf("visitor saw items of shards %v, want the 3 the failing shard 0 emitted", seen)
		}
	})

	t.Run("healthy-first", func(t *testing.T) {
		healthy, err := engines[0].Count(universe)
		if err != nil {
			t.Fatal(err)
		}
		seen := run(t, 1)
		want := make([]int, healthy, healthy+3)
		want = append(want, 1, 1, 1)
		if !slices.Equal(seen, want) {
			t.Fatalf("visitor saw %d items (shards %v...), want all %d of healthy shard 0, then 3 of failing shard 1",
				len(seen), seen[:min(len(seen), 8)], healthy)
		}
	})
}

// TestShardEarlyStop proves visitor-false semantics across shards: the
// delivery stops exactly at the client's false, the query returns nil,
// and no later shard is visited.
func TestShardEarlyStop(t *testing.T) {
	const dims = 2
	plan, err := PlanUniform(dims, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	engines := newEngines(t, "mem", plan)
	r, err := NewRouter(plan, engines)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(workload.Uniform, dims, 3000, 31)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := r.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	const stopAfter = 10
	visited := 0
	err = r.RangeQuery(geometry.UniverseRect(dims), func(geometry.Point, uint64) bool {
		visited++
		return visited < stopAfter
	})
	if err != nil {
		t.Fatalf("early-stopped query returned error %v", err)
	}
	if visited != stopAfter {
		t.Fatalf("visitor called %d times, want exactly %d", visited, stopAfter)
	}

	// Scan shares the early-stop contract.
	visited = 0
	if err := r.Scan(func(geometry.Point, uint64) bool {
		visited++
		return visited < stopAfter
	}); err != nil {
		t.Fatal(err)
	}
	if visited != stopAfter {
		t.Fatalf("scan visitor called %d times, want exactly %d", visited, stopAfter)
	}
}

// TestShardAggregateCounters sanity-checks the cluster metrics view:
// per-shard counters sum into the aggregate.
func TestShardAggregateCounters(t *testing.T) {
	const dims = 2
	plan, err := PlanUniform(dims, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(plan, newEngines(t, "mem", plan))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(workload.Uniform, dims, 2000, 41)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := r.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	agg := r.AggregateCounters()
	var sum uint64
	for i := 0; i < r.Shards(); i++ {
		s, ok := r.ShardMetrics(i)
		if !ok {
			t.Fatalf("shard %d exposes no metrics", i)
		}
		sum += s.Tree.Counters.NodeAccesses
	}
	if agg.NodeAccesses != sum || sum == 0 {
		t.Fatalf("aggregate node accesses %d, per-shard sum %d (want equal, non-zero)", agg.NodeAccesses, sum)
	}
}
