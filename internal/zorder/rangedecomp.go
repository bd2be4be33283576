package zorder

import (
	"bvtree/internal/geometry"
	"fmt"
)

// KeyRange is a closed interval [Lo, Hi] of 64-bit Z-order keys.
type KeyRange struct {
	Lo, Hi uint64
}

// DecomposeRect covers the query rectangle with at most maxRanges disjoint
// Z-key intervals. Every point inside the rectangle has its Z-key inside
// one of the returned intervals; points outside may also fall inside
// (intervals are a superset cover when the budget truncates the recursion),
// so callers must post-filter candidate points against the rectangle.
//
// The decomposition walks the implicit binary partition of the data space
// (the same partitioning the BV-tree uses): a prefix whose brick lies
// entirely inside the rectangle contributes one exact interval; a prefix
// whose brick is disjoint from it contributes nothing; partial overlaps
// recurse until either the address bits are exhausted or the range budget
// forces the remaining sub-problem to be emitted as a single covering
// interval.
func DecomposeRect(il *Interleaver, rect geometry.Rect, maxRanges int) ([]KeyRange, error) {
	if rect.Dims() != il.dims {
		return nil, fmt.Errorf("zorder: rect has %d dims, interleaver expects %d", rect.Dims(), il.dims)
	}
	if maxRanges < 1 {
		maxRanges = 1
	}
	maxBits := il.TotalBits()
	if maxBits > 64 {
		maxBits = 64
	}
	// The walk emits at most maxRanges-1 intervals before the budget stops
	// it subdividing, then at most one more per high sibling still pending
	// on the stack, so maxRanges+maxBits holds any walk in one allocation.
	// A budget past 1024 is not reserved up front; such a walk grows.
	d := decomposer{rect: rect, dims: il.dims, budget: maxRanges,
		out: make([]KeyRange, 0, min(maxRanges, 1024)+maxBits)}
	// One brick, split in place: the walk narrows a coordinate, recurses
	// and restores it, so the descent allocates nothing.
	var lo, hi [geometry.MaxDims]uint64
	brick := geometry.Rect{Min: lo[:il.dims], Max: hi[:il.dims]}
	for i := range brick.Max {
		brick.Max[i] = ^uint64(0)
	}
	d.walk(brick, 0, 0, maxBits)
	out := coalesce(d.out)
	// The walk's budget check is a coarse recursion bound; enforce the
	// exact budget by merging the adjacent pair with the smallest gap
	// until it fits. Merging only widens the cover, so soundness (every
	// inside point covered) is preserved and the caller's post-filter
	// removes the extra candidates.
	for len(out) > maxRanges {
		best, bestGap := 1, ^uint64(0)
		for i := 1; i < len(out); i++ {
			gap := out[i].Lo - out[i-1].Hi
			if gap < bestGap {
				best, bestGap = i, gap
			}
		}
		out[best-1].Hi = out[best].Hi
		out = append(out[:best], out[best+1:]...)
	}
	return out, nil
}

type decomposer struct {
	rect   geometry.Rect
	dims   int
	budget int
	out    []KeyRange
}

// walk visits the partition node identified by the depth-bit prefix packed
// into the high bits of prefix, whose brick is given. The brick's
// coordinates are the caller's and are restored before walk returns.
func (d *decomposer) walk(brick geometry.Rect, prefix uint64, depth, maxBits int) {
	if !d.rect.Intersects(brick) {
		return
	}
	full := prefixRange(prefix, depth)
	if d.rect.ContainsRect(brick) || depth == maxBits {
		d.out = append(d.out, full)
		return
	}
	// Emitting a covering interval costs 1 range; recursing can cost 2.
	// When the budget cannot afford further subdivision, emit the cover.
	if d.budget-len(d.out) <= 1 {
		d.out = append(d.out, full)
		return
	}
	// Split the brick along dim at the midpoint implied by the next bit.
	dim := depth % d.dims
	lo, hi := brick.Min[dim], brick.Max[dim]
	half := (hi-lo)/2 + 1 // the span is always 2^k - 1 here; half is 2^(k-1)

	brick.Max[dim] = lo + half - 1
	d.walk(brick, prefix, depth+1, maxBits)
	brick.Max[dim] = hi

	brick.Min[dim] = lo + half
	d.walk(brick, prefix|1<<uint(63-depth), depth+1, maxBits)
	brick.Min[dim] = lo
}

// prefixRange returns the Z-key interval covered by a depth-bit prefix.
func prefixRange(prefix uint64, depth int) KeyRange {
	if depth == 0 {
		return KeyRange{Lo: 0, Hi: ^uint64(0)}
	}
	mask := ^uint64(0) >> uint(depth)
	if depth >= 64 {
		mask = 0
	}
	return KeyRange{Lo: prefix, Hi: prefix | mask}
}

// coalesce merges adjacent intervals, which the depth-first walk emits in
// ascending order.
func coalesce(in []KeyRange) []KeyRange {
	if len(in) == 0 {
		return in
	}
	out := in[:1]
	for _, r := range in[1:] {
		last := &out[len(out)-1]
		if last.Hi != ^uint64(0) && r.Lo == last.Hi+1 {
			last.Hi = r.Hi
			continue
		}
		out = append(out, r)
	}
	return out
}
