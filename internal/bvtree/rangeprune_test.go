package bvtree

// Proof obligations of the guard-set pruning in range descent
// (qualifyNode): the paper's height+1 bound carried over from exact
// match to one-point windows, the guard-set size bound, and the
// differential of the pruned walk against the unpruned brick-intersection
// reference (rangeScalar, reference_test.go) over windows built to sit on
// brick edges. The differential is named TestColumnar* so that `make verify`
// runs it under the race detector with the rest of that battery.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/obs"
	"bvtree/internal/page"
	"bvtree/internal/region"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// carriedGuards drives qualifyNode down the unbranched part of rect's
// descent, as expandRange does, and fails if the guard set handed from a
// node of index level x to its child ever exceeds the paper's bound of
// x-1 members. It returns the largest set carried.
func carriedGuards(t *testing.T, v *view, rect geometry.Rect) int {
	t.Helper()
	var gs rangeGuardSet
	most := 0
	for id, more := v.root, v.rootLevel > 0; more; {
		n, err := v.fetchIndex(id)
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, id, more = v.qualifyNode(n.Cols(), int32(n.Level-1), false, rect, &gs, nil, nil, nil)
		if !more {
			if gs.n != 0 {
				t.Fatalf("window %v: %d guards left unflushed at a branch of level %d", rect, gs.n, n.Level)
			}
			break
		}
		if gs.n > n.Level-1 {
			t.Fatalf("window %v: %d guards carried out of an index node of level %d, bound is %d", rect, gs.n, n.Level, n.Level-1)
		}
		most = max(most, gs.n)
	}
	return most
}

// pointReader is a live tree or a Snapshot.
type pointReader interface {
	Lookup(geometry.Point) ([]uint64, error)
	RangeQuery(geometry.Rect, Visitor) error
	Count(geometry.Rect) (int, error)
}

// checkPointWindows asserts, for every stride-th point of live, that the
// window holding exactly that point costs r's RangeQuery and Count each
// exactly the nodes of the point's exact-match descent on v, r's view,
// and that both agree with Lookup.
func checkPointWindows(t *testing.T, what string, r pointReader, v *view, live map[uint64]geometry.Point, stride int) {
	t.Helper()
	payloads := make([]uint64, 0, len(live))
	for id := range live {
		payloads = append(payloads, id)
	}
	sort.Slice(payloads, func(i, j int) bool { return payloads[i] < payloads[j] })
	guards := 0
	for k := 0; k < len(payloads); k += stride {
		p := live[payloads[k]]
		want, err := r.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(want) == 0 {
			t.Fatalf("%s: live point %v not found by Lookup", what, p)
		}
		a, err := v.addr(p)
		if err != nil {
			t.Fatal(err)
		}
		d, err := v.descendPoint(a)
		if err != nil {
			t.Fatal(err)
		}
		nodes := len(d.steps) + 1
		putDescent(d)
		if nodes != v.rootLevel+1 {
			t.Fatalf("%s: SearchCost(%v) = %d nodes, height+1 = %d", what, p, nodes, v.rootLevel+1)
		}
		rect := geometry.Rect{Min: p, Max: p}

		var got []uint64
		v.stats.NodeAccesses.Swap(0)
		err = r.RangeQuery(rect, func(q geometry.Point, payload uint64) bool {
			if !q.Equal(p) {
				t.Fatalf("%s: window [%v,%v] delivered %v", what, p, p, q)
			}
			got = append(got, payload)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := int(v.stats.NodeAccesses.Swap(0)); n != nodes {
			t.Fatalf("%s: RangeQuery on the one-point window at %v touched %d nodes, Lookup touches %d", what, p, n, nodes)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: window at %v returned payloads %v, Lookup %v", what, p, got, want)
		}

		cnt, err := r.Count(rect)
		if err != nil {
			t.Fatal(err)
		}
		if n := int(v.stats.NodeAccesses.Swap(0)); n != nodes {
			t.Fatalf("%s: Count on the one-point window at %v touched %d nodes, Lookup touches %d", what, p, n, nodes)
		}
		if cnt != len(want) {
			t.Fatalf("%s: Count at %v = %d, Lookup returns %d payloads", what, p, cnt, len(want))
		}
		guards = max(guards, carriedGuards(t, v, rect))
	}
	if v.rootLevel >= 3 && guards == 0 {
		t.Fatalf("%s: no sampled descent carried a guard on a tree of height %d; the data no longer exercises deferral", what, v.rootLevel)
	}
}

// TestRangePointWindowVisitsHeightPlusOne pins the paper's §3 guarantee
// for windows: on clustered trees — freshly built, after half the points
// are deleted again (merges and demotions), paged, and through a pinned
// snapshot while a writer churns the live tree — a window holding one
// stored point costs exactly what the exact-match search for that point
// costs, height+1 nodes, and the guard set the descent carries stays
// within the paper's bound.
func TestRangePointWindowVisitsHeightPlusOne(t *testing.T) {
	const n = 20000
	for _, dims := range []int{2, 3} {
		pts, err := workload.Generate(workload.Clustered, dims, n, uint64(40+dims))
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Dims: dims, DataCapacity: 8, Fanout: 8}
		for _, backend := range []string{"mem", "paged"} {
			t.Run(fmt.Sprintf("%dd/%s", dims, backend), func(t *testing.T) {
				var tr *Tree
				if backend == "mem" {
					tr, err = New(opt)
				} else {
					tr, err = Open(storage.NewMemStore(), nil, opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				live := make(map[uint64]geometry.Point, n)
				for i, p := range pts {
					if err := tr.Insert(p, uint64(i)); err != nil {
						t.Fatal(err)
					}
					live[uint64(i)] = p
				}
				if tr.Height() < 3 {
					t.Fatalf("height %d: too shallow to carry guards", tr.Height())
				}
				checkPointWindows(t, "built", tr, &tr.view, live, 7)

				for i := 0; i < n; i += 2 {
					if ok, err := tr.Delete(pts[i], uint64(i)); err != nil || !ok {
						t.Fatalf("delete %d: %v %v", i, ok, err)
					}
					delete(live, uint64(i))
				}
				checkPointWindows(t, "half deleted", tr, &tr.view, live, 5)

				// Pin the half-deleted state, then check it through the view
				// while a writer re-inserts and re-deletes underneath. The
				// view gets counters of its own: it shares the owner's by
				// default, and the writer's descents would count into them.
				snap := tr.Snapshot()
				defer snap.Release()
				snap.v.stats = &obs.TreeCounters{}
				stop := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i = (i + 2) % n {
						select {
						case <-stop:
							return
						default:
						}
						if err := tr.Insert(pts[i], uint64(i)); err != nil {
							t.Error(err)
							return
						}
						if _, err := tr.Delete(pts[i+1], uint64(i+1)); err != nil {
							t.Error(err)
							return
						}
					}
				}()
				checkPointWindows(t, "pinned view", snap, &snap.v, live, 11)
				close(stop)
				wg.Wait()
				if err := tr.Validate(false); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// entryKeys collects every index entry key reachable from the root.
func entryKeys(t *testing.T, tr *Tree) []region.BitString {
	t.Helper()
	var keys []region.BitString
	var walk func(id page.ID)
	walk = func(id page.ID) {
		n, err := tr.st.Index(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range n.ReadEntries() {
			keys = append(keys, e.Key)
			if e.Level > 0 {
				walk(e.Child)
			}
		}
	}
	if tr.rootLevel > 0 {
		walk(tr.root)
	}
	return keys
}

// nudge moves v by delta in {-1, 0, +1} without wrapping.
func nudge(v uint64, delta int) uint64 {
	switch {
	case delta < 0 && v > 0:
		return v - 1
	case delta > 0 && v < ^uint64(0):
		return v + 1
	}
	return v
}

// pruneWindows builds the window battery for one tree: windows grown
// around stored points from one item to the whole universe, windows
// whose edges sit exactly on, one inside and one outside the minima and
// maxima of real entry bricks (Cover64 is inclusive on both ends),
// two-cell windows straddling the face between a brick and its sibling
// (the walk must branch there, not prune), and point windows at brick
// corners and at random coordinates, most of them empty.
func pruneWindows(rng *rand.Rand, dims int, pts []geometry.Point, keys []region.BitString) []geometry.Rect {
	var out []geometry.Rect
	add := func(min, max geometry.Point) {
		for d := range min {
			if min[d] > max[d] {
				min[d], max[d] = max[d], min[d]
			}
		}
		out = append(out, geometry.Rect{Min: min, Max: max})
	}
	for i := 0; i < 60; i++ {
		p := pts[rng.Intn(len(pts))]
		r := uint64(0)
		if i%6 != 0 {
			r = uint64(1) << uint(rng.Intn(63))
		}
		min, max := p.Clone(), p.Clone()
		for d := range p {
			if min[d] -= r; min[d] > p[d] {
				min[d] = 0
			}
			if max[d] += r; max[d] < p[d] {
				max[d] = ^uint64(0)
			}
		}
		add(min, max)
	}
	for i := 0; i < 60 && len(keys) > 0; i++ {
		k := keys[rng.Intn(len(keys))]
		b := region.Brick(k, dims)
		// The brick itself with each face moved in, left, or moved out.
		min, max := b.Min.Clone(), b.Max.Clone()
		for d := 0; d < dims; d++ {
			min[d], max[d] = nudge(min[d], rng.Intn(3)-1), nudge(max[d], rng.Intn(3)-1)
		}
		add(min, max)
		// A corner of the brick as a point window.
		corner := b.Min.Clone()
		for d := 0; d < dims; d++ {
			if rng.Intn(2) == 0 {
				corner[d] = b.Max[d]
			}
		}
		add(corner, corner.Clone())
		// The two cells either side of the face shared with the sibling.
		if k.Len() > 0 {
			d := (k.Len() - 1) % dims
			lo, hi := corner.Clone(), corner.Clone()
			if k.Bit(k.Len()-1) == 0 {
				lo[d], hi[d] = b.Max[d], b.Max[d]+1
			} else {
				lo[d], hi[d] = b.Min[d]-1, b.Min[d]
			}
			add(lo, hi)
		}
	}
	for i := 0; i < 30; i++ {
		p := randPoint(rng, dims)
		add(p, p.Clone())
	}
	out = append(out, geometry.UniverseRect(dims))
	return out
}

// TestColumnarPrunedRangeDifferential checks the guard-set-pruned range
// walk against its reference, rangeScalar (unpruned brick intersection,
// the walk as it was before the rule) run on the same tree. A tree built
// from an insert/delete program must answer every window of the
// pruneWindows battery with the reference's multiset — through the range
// walk and the count — and stop early alike. The pruned walk must never
// touch more nodes than
// the reference, and the guard set must stay within the paper's bound for
// every window.
func TestColumnarPrunedRangeDifferential(t *testing.T) {
	const dims = 2
	type shape struct {
		name, kind string
		n          int
	}
	for _, backend := range []string{"mem", "paged", "durable"} {
		for _, sh := range []shape{{"clustered", "clustered", 2500}, {"burst", "burst", 2500}, {"root-is-data", "uniform", 6}} {
			t.Run(backend+"/"+sh.name, func(t *testing.T) {
				pts := columnarWorkload(t, sh.kind, dims, sh.n)
				cols := columnarTree(t, backend, dims)
				rng := rand.New(rand.NewSource(91))
				for i, p := range pts {
					if err := cols.Insert(p, uint64(i)); err != nil {
						t.Fatal(err)
					}
					if i%5 == 2 {
						j := rng.Intn(i + 1)
						if _, err := cols.Delete(pts[j], uint64(j)); err != nil {
							t.Fatal(err)
						}
					}
				}
				ct := cols
				if (ct.rootLevel == 0) != (sh.n < 8) {
					t.Fatalf("root level %d with %d points", ct.rootLevel, sh.n)
				}
				pruned, reference, nonEmpty := 0, 0, 0
				for wi, rect := range pruneWindows(rng, dims, pts, entryKeys(t, ct)) {
					what := fmt.Sprintf("window %d %v", wi, rect)
					ct.ResetAccessCount()
					want := referenceRange(t, cols, rect)
					nr := int(ct.ResetAccessCount())
					if len(want) > 0 {
						nonEmpty++
					}
					got := collect(t, func(v Visitor) error { return cols.RangeQuery(rect, v) })
					np := int(ct.ResetAccessCount())
					equalMultiset(t, what, got, want)
					if np > nr {
						t.Fatalf("%s: pruned walk touched %d nodes, unpruned reference %d", what, np, nr)
					}
					pruned, reference = pruned+np, reference+nr
					carriedGuards(t, &ct.view, rect)

					cnt, err := cols.Count(rect)
					if err != nil {
						t.Fatal(err)
					}
					if cnt != len(want) {
						t.Fatalf("%s: Count = %d, reference returned %d items", what, cnt, len(want))
					}
					// Early stop: the visitor declines after half the items.
					limit, seen := len(want)/2+1, 0
					err = cols.RangeQuery(rect, func(geometry.Point, uint64) bool {
						seen++
						return seen < limit
					})
					if err != nil {
						t.Fatal(err)
					}
					if wantSeen := min(limit, len(want)); seen != wantSeen {
						t.Fatalf("%s: early-stopping visitor saw %d items, want %d", what, seen, wantSeen)
					}
				}
				if nonEmpty < 20 {
					t.Fatalf("only %d windows of the battery hold items", nonEmpty)
				}
				if ct.rootLevel > 0 && pruned >= reference {
					t.Fatalf("pruned walk touched %d nodes over the battery, reference %d: the rule pruned nothing", pruned, reference)
				}
				t.Logf("height %d: %d nodes pruned, %d reference", ct.rootLevel, pruned, reference)
			})
		}
	}
}

// TestRangeGuardSetKeepsLongestPerLevel is the guard set's own contract:
// whatever order covering candidates arrive in, it holds exactly the
// longest key of each level, reports every shorter one as dealt with
// (pruned), and hands equal-length keys and overflow back to the caller.
func TestRangeGuardSetKeepsLongestPerLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var gs rangeGuardSet
		longest := map[int32]rangeGuard{}
		for i := 0; i < 40; i++ {
			g := rangeGuard{id: page.ID(i + 1), level: int32(rng.Intn(6)), keyBits: int32(rng.Intn(12))}
			old, seen := longest[g.level]
			dealt := gs.merge(g)
			if want := !seen || g.keyBits != old.keyBits; dealt != want {
				t.Fatalf("merge(%+v) with longest %+v (seen %v) = %v", g, old, seen, dealt)
			}
			if !seen || g.keyBits > old.keyBits {
				longest[g.level] = g
			}
		}
		if gs.n != len(longest) {
			t.Fatalf("set holds %d members for %d levels", gs.n, len(longest))
		}
		for level, want := range longest {
			if got, ok := gs.take(level); !ok || got != want {
				t.Fatalf("take(%d) = %+v %v, want %+v", level, got, ok, want)
			}
		}
		if gs.n != 0 {
			t.Fatalf("%d members left after taking every level", gs.n)
		}
	}
	var gs rangeGuardSet
	for level := 0; level < maxRangeGuards; level++ {
		if !gs.merge(rangeGuard{level: int32(level), keyBits: 1}) {
			t.Fatalf("merge refused level %d below the cap", level)
		}
	}
	if gs.merge(rangeGuard{level: maxRangeGuards, keyBits: 1}) {
		t.Fatal("merge accepted a new level into a full set")
	}
	if !gs.merge(rangeGuard{level: 3, keyBits: 2}) {
		t.Fatal("a full set must still replace a shorter member of a level it holds")
	}
}
