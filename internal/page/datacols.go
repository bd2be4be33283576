package page

import (
	"math/bits"

	"bvtree/internal/geometry"
)

// DataCols is a data page's columns, the only form its items have: one
// row per dimension holding the items' coordinates, and a payload row,
// laid out in a single arena so the point tests of the lookup and range
// hot paths scan contiguous words. A page decoded from the store has
// rows of exactly its item count (DecodeDataCols); a writer lays them out
// at the page's capacity when it first takes the page (Reserve), after
// which an insert shifts the rows by one word from its place, a delete
// closes the gap in every row, and a split moves items row by row
// (MoveTo), all in place.
//
// The items are in first-coordinate order: row 0 never decreases, and
// items of an equal first coordinate, duplicates included, stand in the
// order they were inserted. Run binary-searches row 0 for the items a
// point or a window can match, so a reader tests only those. The order
// is what the rows hold and what the page encodes; a stored page out of
// it does not decode.
type DataCols struct {
	n      int
	dims   int
	stride int
	coords []uint64 // row d is coords[d*stride : d*stride+n]; row dims holds the payloads
}

// DCols returns the page's columns.
func (p *DataPage) DCols() *DataCols { return &p.cols }

// Len returns the number of items.
func (c *DataCols) Len() int { return c.n }

// Dims returns the number of coordinate rows.
func (c *DataCols) Dims() int { return c.dims }

// Payload returns item i's payload.
func (c *DataCols) Payload(i int) uint64 { return c.coords[c.dims*c.stride+i] }

// Payload returns item i's payload.
func (p *DataPage) Payload(i int) uint64 { return p.cols.Payload(i) }

// Reserve lays the rows out for at least capacity items, carrying the
// items already there across; it does nothing when they already fit.
func (p *DataPage) Reserve(capacity int) {
	c := &p.cols
	if capacity <= c.stride {
		return
	}
	coords := make([]uint64, (c.dims+1)*capacity)
	for d := 0; d <= c.dims; d++ {
		copy(coords[d*capacity:], c.coords[d*c.stride:d*c.stride+c.n])
	}
	c.stride, c.coords = capacity, coords
}

// Insert adds an item with point pt and payload after every item whose
// first coordinate is at most pt[0], which keeps the page in
// first-coordinate order and items of an equal first coordinate in
// insertion order. Each row shifts by one word from that place, row 0's
// upper bound of pt[0]; a page already at its capacity (a tolerated
// overflow) grows first.
func (p *DataPage) Insert(pt geometry.Point, payload uint64) {
	c := &p.cols
	if c.n == c.stride {
		p.Reserve(max(2*c.stride, 1))
	}
	at := upperBound(c.coords[:c.n], pt[0])
	for d := 0; d <= c.dims; d++ {
		row := c.coords[d*c.stride : d*c.stride+c.n+1]
		copy(row[at+1:], row[at:c.n])
		if d < c.dims {
			row[at] = pt[d]
		} else {
			row[at] = payload
		}
	}
	c.n++
}

// RemoveAt deletes item i, closing the gap so the items keep their order.
func (p *DataPage) RemoveAt(i int) {
	c := &p.cols
	for d := 0; d <= c.dims; d++ {
		row := c.coords[d*c.stride : d*c.stride+c.n]
		copy(row[i:], row[i+1:])
	}
	c.n--
}

// MoveTo moves the items for which move(i) is true to the end of dst and
// closes the gaps they leave, so the items keep their order on both
// pages; dst stays in first-coordinate order when it starts empty, as a
// split's new page does. move is called once per item, in order.
func (p *DataPage) MoveTo(dst *DataPage, move func(i int) bool) {
	c, dc := &p.cols, &dst.cols
	j := 0
	for i := 0; i < c.n; i++ {
		if move(i) {
			if dc.n == dc.stride {
				dst.Reserve(max(2*dc.stride, 1))
			}
			for d := 0; d <= c.dims; d++ {
				dc.coords[d*dc.stride+dc.n] = c.coords[d*c.stride+i]
			}
			dc.n++
			continue
		}
		if j != i {
			for d := 0; d <= c.dims; d++ {
				c.coords[d*c.stride+j] = c.coords[d*c.stride+i]
			}
		}
		j++
	}
	c.n = j
}

// AppendPoint appends item i's coordinates to dst.
func (p *DataPage) AppendPoint(dst []uint64, i int) []uint64 {
	c := &p.cols
	for d := 0; d < c.dims; d++ {
		dst = append(dst, c.coords[d*c.stride+i])
	}
	return dst
}

// Item returns item i as a value, its point in words of its own.
func (p *DataPage) Item(i int) Item {
	return Item{Point: p.AppendPoint(make(geometry.Point, 0, p.cols.dims), i), Payload: p.Payload(i)}
}

// ReadItems returns the page's items as values: one slice, and one slab
// all their points are cut from. The page is never changed, and editing
// the result does not change it.
func (p *DataPage) ReadItems() []Item {
	c := &p.cols
	items, _ := p.AppendItems(make([]Item, 0, c.n), make([]uint64, 0, c.n*c.dims))
	return items
}

// AppendItems appends the page's items to dst, their points copied from
// the rows into coords, and returns both extended slices; as with
// AppendDataItems, the points of earlier calls stay valid when coords
// relocates. It is how a reader that hands a whole page's points out —
// and may see them retained — gets them without changing the page.
func (p *DataPage) AppendItems(dst []Item, coords []uint64) ([]Item, []uint64) {
	c := &p.cols
	base := len(coords)
	if cap(coords)-base < c.n*c.dims {
		grown := make([]uint64, base, base+c.n*c.dims)
		copy(grown, coords)
		coords = grown
	}
	coords = coords[:base+c.n*c.dims]
	for i := 0; i < c.n; i++ {
		pt := coords[base+i*c.dims : base+(i+1)*c.dims : base+(i+1)*c.dims]
		for d := range pt {
			pt[d] = c.coords[d*c.stride+i]
		}
		dst = append(dst, Item{Point: pt, Payload: c.Payload(i)})
	}
	return dst, coords
}

// Run returns the items whose first coordinate lies in [lo, hi]: those
// from from up to, not including, to (from == to when there are none).
// A branch-free binary search of row 0 finds the run's start, so a point
// or a small window tests a few rows of a page, not all of them. Such a
// run is short, so its end is found by doubling from its start, in the
// words the first search has just read, and then by a binary search
// between the last two probes: a second search of the whole rest of the
// row would read words of it that a cold page does not yet hold in cache.
func (c *DataCols) Run(lo, hi uint64) (from, to int) {
	row := c.coords[:c.n]
	from = lowerBound(row, lo)
	rest := row[from:]
	k := 1 // rest[:k/2] is in the run
	for k <= len(rest) && rest[k-1] <= hi {
		k *= 2
	}
	return from, from + k/2 + upperBound(rest[k/2:min(k, len(rest))], hi)
}

// lowerBound returns the first i with row[i] >= v, len(row) when there
// is none; row must not decrease. Each halving step adds half or
// nothing by the borrow of one subtraction, so its only branch is the
// loop's, which depends on the length alone: the comparisons of a
// search take no pattern a predictor could learn.
func lowerBound(row []uint64, v uint64) int {
	n := len(row)
	if n == 0 {
		return 0
	}
	base := 0
	for n > 1 {
		half := n >> 1
		_, less := bits.Sub64(row[base+half], v, 0) // 1 when row[base+half] < v
		base += half & -int(less)
		n -= half
	}
	_, less := bits.Sub64(row[base], v, 0)
	return base + int(less)
}

// upperBound returns the first i with row[i] > v, len(row) when there
// is none; row must not decrease. It is lowerBound with the comparison
// turned round.
func upperBound(row []uint64, v uint64) int {
	n := len(row)
	if n == 0 {
		return 0
	}
	base := 0
	for n > 1 {
		half := n >> 1
		_, above := bits.Sub64(v, row[base+half], 0) // 1 when row[base+half] > v
		base += half & (int(above) - 1)
		n -= half
	}
	_, above := bits.Sub64(v, row[base], 0)
	return base + 1 - int(above)
}

// PointAt reports whether item i's point is p, dimension by dimension.
func (c *DataCols) PointAt(i int, p geometry.Point) bool {
	for d := 0; d < c.dims; d++ {
		if c.coords[d*c.stride+i] != p[d] {
			return false
		}
	}
	return true
}

// ContainMask64 returns a bitmask over items [base, min(base+64, to))
// of those whose point lies inside r (boundaries inclusive) — the
// batched form of Rect.Contains per item; a reader passes the end of r's
// Run as to. The first dimension's pass, the one that visits every row,
// tests both bounds as subtraction borrows, with no branch that depends
// on the coordinates; the later passes visit only the rows that
// survived it.
func (c *DataCols) ContainMask64(r geometry.Rect, base, to int) uint64 {
	cnt := min(to, c.n, base+64) - base
	if cnt <= 0 {
		return 0
	}
	var m uint64
	row := c.coords[base : base+cnt]
	lo, hi := r.Min[0], r.Max[0]
	for i, w := range row {
		_, below := bits.Sub64(w, lo, 0)
		_, above := bits.Sub64(hi, w, 0)
		m |= ((below | above) ^ 1) << uint(i)
	}
	for d := 1; d < c.dims && m != 0; d++ {
		row = c.coords[d*c.stride+base : d*c.stride+base+cnt]
		lo, hi = r.Min[d], r.Max[d]
		for mm := m; mm != 0; mm &= mm - 1 {
			i := bits.TrailingZeros64(mm)
			if row[i] < lo || row[i] > hi {
				m &^= 1 << uint(i)
			}
		}
	}
	return m
}
