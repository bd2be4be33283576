package region

import (
	"fmt"

	"bvtree/internal/geometry"
)

// Brick returns the axis-aligned box spanned by the prefix b in a
// dims-dimensional space: bit i of b halves dimension i mod dims at depth
// i / dims. The region identified by b is this brick minus the bricks of
// any regions b directly encloses; the holes never need to be represented
// because point-to-region assignment is by longest prefix match.
func Brick(b BitString, dims int) geometry.Rect {
	r := geometry.UniverseRect(dims)
	for i := 0; i < b.Len(); i++ {
		dim := i % dims
		span := r.Max[dim] - r.Min[dim] // 2^k - 1
		half := span/2 + 1              // 2^(k-1)
		if b.Bit(i) == 0 {
			r.Max[dim] = r.Min[dim] + half - 1
		} else {
			r.Min[dim] = r.Min[dim] + half
		}
	}
	return r
}

// BrickIntersects reports whether the brick of b intersects rect without
// materialising the brick: the bounds narrow in fixed-size stack arrays
// and the test exits as soon as one dimension's interval separates from
// the rectangle. It is the allocation-free pruning test of the range-walk
// hot path, where Brick's two slice allocations per visited entry would
// dominate the query's allocation profile.
func BrickIntersects(b BitString, dims int, rect geometry.Rect) bool {
	if dims != rect.Dims() {
		return false
	}
	var min, max [geometry.MaxDims]uint64
	for d := 0; d < dims; d++ {
		max[d] = ^uint64(0)
	}
	for i := 0; i < b.Len(); i++ {
		dim := i % dims
		half := (max[dim]-min[dim])/2 + 1
		if b.Bit(i) == 0 {
			max[dim] = min[dim] + half - 1
		} else {
			min[dim] = min[dim] + half
		}
		if max[dim] < rect.Min[dim] || min[dim] > rect.Max[dim] {
			return false
		}
	}
	return true
}

// BrickWithin reports whether the brick of b lies entirely inside rect,
// without materialising the brick. It is the full-containment test of the
// range-query fast path: when a subtree's brick is contained in the query
// rectangle, every point below it matches and the per-point Contains
// filter (and every deeper BrickIntersects test) can be skipped. The
// bounds narrow in fixed-size stack arrays exactly as in BrickIntersects;
// containment can only be established once the loop has consumed the
// whole prefix, so the final check runs over the finished bounds.
func BrickWithin(b BitString, dims int, rect geometry.Rect) bool {
	if dims != rect.Dims() {
		return false
	}
	var min, max [geometry.MaxDims]uint64
	for d := 0; d < dims; d++ {
		max[d] = ^uint64(0)
	}
	for i := 0; i < b.Len(); i++ {
		dim := i % dims
		half := (max[dim]-min[dim])/2 + 1
		if b.Bit(i) == 0 {
			max[dim] = min[dim] + half - 1
		} else {
			min[dim] = min[dim] + half
		}
	}
	for d := 0; d < dims; d++ {
		if min[d] < rect.Min[d] || max[d] > rect.Max[d] {
			return false
		}
	}
	return true
}

// SplitChoice describes the outcome of selecting a split prefix for a set
// of items (point addresses or region keys) inside an enclosing region.
type SplitChoice struct {
	// Prefix is the inner region produced by the split. The outer region
	// keeps the original enclosing key.
	Prefix BitString
	// Inner counts items with Prefix as a (possibly equal) prefix: they
	// move to the inner region.
	Inner int
	// Outer counts items unrelated to Prefix: they stay with the outer
	// region.
	Outer int
	// Promoted counts items that are proper prefixes of Prefix: their
	// regions would straddle the new boundary, so the BV-tree promotes
	// them as guards rather than splitting them.
	Promoted int
}

// ErrCannotSplit reports that no prefix separates the items: they are all
// identical (or all sit on a single chain), which only happens with
// pathological duplicate data.
var ErrCannotSplit = fmt.Errorf("region: items admit no balanced split")

// ChooseSplit selects the inner region for splitting an overflowing set of
// items that all lie inside (i.e. have as a prefix) the region key encl.
//
// It descends the implicit binary trie of the items from encl, stepping to
// the heavier child until the subtree weight first drops to at most 2/3 of
// the total. Because the chosen prefix's parent held more than 2/3 and the
// chosen child is the heavier one, the inner side receives more than 1/3 of
// the items sitting strictly below the parent; this is the classic
// guarantee (Lomet & Salzberg 1989) the paper builds on. Items equal to a
// prefix on the descent path are counted as Promoted: they cannot be
// assigned to either side without splitting their own regions.
func ChooseSplit(encl BitString, items []BitString) (SplitChoice, error) {
	total := len(items)
	if total < 2 {
		return SplitChoice{}, ErrCannotSplit
	}
	for _, it := range items {
		if !encl.IsPrefixOf(it) {
			return SplitChoice{}, fmt.Errorf("region: item %v lies outside enclosing region %v", it, encl)
		}
	}
	cur := encl
	promoted := 0
	for {
		// Partition the items relative to cur's children.
		var zero, one, equal int
		var witness0, witness1 BitString // a longest representative per side
		for _, it := range items {
			if !cur.IsPrefixOf(it) {
				continue
			}
			if it.Len() == cur.Len() {
				equal++
				continue
			}
			if it.Bit(cur.Len()) == 0 {
				zero++
				witness0 = it
			} else {
				one++
				witness1 = it
			}
		}
		if zero == 0 && one == 0 {
			// All remaining weight sits exactly on cur: duplicates.
			return SplitChoice{}, ErrCannotSplit
		}
		promoted += equal
		var next BitString
		var heavy int
		if zero >= one {
			next, heavy = cur.Append(0), zero
			// Jump along unary chains: extend to the common prefix of the
			// subtree when the other side is empty, to converge quickly on
			// clustered data.
			if one == 0 && zero > 0 {
				next = longestCommonWithin(next, witness0, items)
			}
		} else {
			next, heavy = cur.Append(1), one
			if zero == 0 && one > 0 {
				next = longestCommonWithin(next, witness1, items)
			}
		}
		if heavy*3 <= total*2 {
			// Found the split: heavy in (total/3 - promoted/2, 2*total/3].
			inner, outer, prom := classify(next, items)
			if inner == 0 || inner == total {
				return SplitChoice{}, ErrCannotSplit
			}
			return SplitChoice{Prefix: next, Inner: inner, Outer: outer, Promoted: prom}, nil
		}
		cur = next
	}
}

// longestCommonWithin extends next towards witness for as long as every
// item below next is also below the extension and no item sits on the
// chain. This skips empty unary trie paths without changing the split
// semantics.
func longestCommonWithin(next, witness BitString, items []BitString) BitString {
	best := next
	for l := next.Len() + 1; l <= witness.Len(); l++ {
		cand := witness.Prefix(l)
		for _, it := range items {
			if next.IsPrefixOf(it) {
				if !cand.IsPrefixOf(it) || it.Len() < cand.Len() {
					return best
				}
			}
		}
		best = cand
	}
	return best
}

// classify counts how items relate to a chosen split prefix.
func classify(prefix BitString, items []BitString) (inner, outer, promoted int) {
	for _, it := range items {
		switch {
		case prefix.IsPrefixOf(it):
			inner++
		case it.IsProperPrefixOf(prefix):
			promoted++
		default:
			outer++
		}
	}
	return
}
