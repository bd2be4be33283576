package bvtree

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"time"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
)

// Neighbor is one result of a nearest-neighbour search.
type Neighbor struct {
	Point   geometry.Point
	Payload uint64
	// Dist is the Euclidean distance to the query point, measured in
	// units of the uint64 coordinate domain.
	Dist float64
}

// Nearest returns the k stored items closest to p in Euclidean distance,
// nearest first. It runs a best-first search over the partition hierarchy:
// a priority queue orders subtrees by the minimum distance from p to
// their region bricks, so only nodes that could contain a closer point
// than the current k-th candidate are ever visited. A region's points are
// a subset of its brick, so the brick lower bound is valid.
func (t *Tree) Nearest(p geometry.Point, k int) ([]Neighbor, error) {
	v := t.readView()
	defer t.releaseView(v)
	return v.nearest(p, k)
}

// nearest is Nearest's body, run on a pinned immutable view: a
// best-first search.
func (v *view) nearest(p geometry.Point, k int) ([]Neighbor, error) {
	defer v.endOp()
	if m := v.metrics; m != nil {
		defer m.Nearest.ObserveSince(time.Now())
	}
	if len(p) != v.opt.Dims {
		return nil, fmt.Errorf("bvtree: point has %d dims, tree has %d", len(p), v.opt.Dims)
	}
	if k <= 0 {
		return nil, nil
	}

	pq := &distHeap{}
	heap.Init(pq)
	heap.Push(pq, distItem{id: v.root, level: v.rootLevel})

	var best nbrHeap // max-heap of current k best
	worst := func() float64 {
		if best.Len() < k {
			return math.Inf(1)
		}
		return best[0].Dist
	}

	var cubeBuf [2 * geometry.MaxDims]uint64
	cube := geometry.Rect{Min: cubeBuf[:v.opt.Dims], Max: cubeBuf[geometry.MaxDims : geometry.MaxDims+v.opt.Dims]}

	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.dist > worst() {
			break // nothing left can improve the result set
		}
		if it.level == 0 {
			dp, sc, err := v.borrowData(it.id, false)
			if err != nil {
				return nil, err
			}
			c := dp.DCols()
			// One batched pass over the run of items whose first
			// coordinate lies in the cube the current k-th distance spans
			// around p keeps the items inside the cube; only those can
			// enter the result set, and only they are measured. The result
			// keeps its points, so each one that enters it is copied out
			// of the rows.
			var pt [geometry.MaxDims]uint64
			v.stats.BatchTests.Inc()
			distCube(p, worst(), cube)
			from, to := c.Run(cube.Min[0], cube.Max[0])
			for base := from; base < to; base += 64 {
				for m := c.ContainMask64(cube, base, to); m != 0; m &= m - 1 {
					i := base + bits.TrailingZeros64(m)
					d := pointDist(p, dp.AppendPoint(pt[:0], i))
					if d < worst() || best.Len() < k {
						it := dp.Item(i)
						heap.Push(&best, Neighbor{Point: it.Point, Payload: it.Payload, Dist: d})
						if best.Len() > k {
							heap.Pop(&best)
						}
					}
				}
			}
			v.paged.release(sc)
			continue
		}
		_, c, err := v.indexCols(it.id)
		if err != nil {
			return nil, err
		}
		// The mirror holds each entry's brick bounds deinterleaved, so the
		// lower bound is two compares and two multiplies per dimension.
		v.stats.BatchTests.Inc()
		for i := 0; i < c.Len(); i++ {
			emin, emax := c.BoundsAt(i)
			d := minDistToBounds(p, emin, emax, v.opt.Dims)
			if d <= worst() {
				heap.Push(pq, distItem{dist: d, id: c.Child(i), level: c.Level(i)})
			}
		}
	}

	out := make([]Neighbor, best.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&best).(Neighbor)
	}
	return out, nil
}

// pointDist is the Euclidean distance between two points in coordinate
// units (computed in float64; exact enough for ranking at domain scale).
func pointDist(a, b geometry.Point) float64 {
	s := 0.0
	for d := range a {
		var diff float64
		if a[d] > b[d] {
			diff = float64(a[d] - b[d])
		} else {
			diff = float64(b[d] - a[d])
		}
		s += diff * diff
	}
	return math.Sqrt(s)
}

// distCube sets cube to the axis-aligned cube of half-side ⌈r⌉ around p,
// clipped to the coordinate domain: every point within distance r of p
// lies inside it (the whole domain while r is still infinite).
func distCube(p geometry.Point, r float64, cube geometry.Rect) {
	for d := range p {
		cube.Min[d], cube.Max[d] = 0, math.MaxUint64
		if r < 1<<63 {
			h := uint64(math.Ceil(r))
			if p[d] > h {
				cube.Min[d] = p[d] - h
			}
			if p[d] < math.MaxUint64-h {
				cube.Max[d] = p[d] + h
			}
		}
	}
}

// minDistToBounds is the minimum distance from p to any point of the
// brick a columnar bounds row describes (NodeCols.BoundsAt).
func minDistToBounds(p geometry.Point, min, max []uint64, dims int) float64 {
	s := 0.0
	for d := 0; d < dims; d++ {
		var diff float64
		switch {
		case p[d] < min[d]:
			diff = float64(min[d] - p[d])
		case p[d] > max[d]:
			diff = float64(p[d] - max[d])
		}
		s += diff * diff
	}
	return math.Sqrt(s)
}

type distItem struct {
	dist  float64
	id    page.ID
	level int
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// nbrHeap is a max-heap by distance (the current k best candidates).
type nbrHeap []Neighbor

func (h nbrHeap) Len() int            { return len(h) }
func (h nbrHeap) Less(i, j int) bool  { return h[i].Dist > h[j].Dist }
func (h nbrHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nbrHeap) Push(x interface{}) { *h = append(*h, x.(Neighbor)) }
func (h *nbrHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
