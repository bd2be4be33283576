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
// which an insert writes one word per row, a delete closes the gap in
// every row, and a split moves items row by row (MoveTo), all in place.
// Item order is what the rows hold, and it is the order the page encodes.
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

// Append adds an item with point pt and payload as the page's last,
// writing the point's coordinates into the rows; a page already at its
// capacity (a tolerated overflow) grows first.
func (p *DataPage) Append(pt geometry.Point, payload uint64) {
	c := &p.cols
	if c.n == c.stride {
		p.Reserve(max(2*c.stride, 1))
	}
	for d := 0; d < c.dims; d++ {
		c.coords[d*c.stride+c.n] = pt[d]
	}
	c.coords[c.dims*c.stride+c.n] = payload
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
// pages. move is called once per item, in order.
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

// EqualMask64 returns a bitmask over items [base, base+64) of those
// whose point equals p in every dimension (bit i-base set for item i) —
// the batched form of Point.Equal per item.
func (c *DataCols) EqualMask64(p geometry.Point, base int) uint64 {
	cnt := c.n - base
	if cnt > 64 {
		cnt = 64
	}
	var m uint64
	row := c.coords[base : base+cnt]
	v := p[0]
	for i, w := range row {
		if w == v {
			m |= 1 << uint(i)
		}
	}
	for d := 1; d < c.dims && m != 0; d++ {
		row = c.coords[d*c.stride+base : d*c.stride+base+cnt]
		v = p[d]
		for mm := m; mm != 0; mm &= mm - 1 {
			i := bits.TrailingZeros64(mm)
			if row[i] != v {
				m &^= 1 << uint(i)
			}
		}
	}
	return m
}

// ContainMask64 returns a bitmask over items [base, base+64) of those
// whose point lies inside r (boundaries inclusive) — the batched form of
// Rect.Contains per item. The first dimension's pass, the one that
// visits every row, tests both bounds as subtraction borrows, with no
// branch that depends on the coordinates; the later passes visit only
// the rows that survived it.
func (c *DataCols) ContainMask64(r geometry.Rect, base int) uint64 {
	cnt := c.n - base
	if cnt > 64 {
		cnt = 64
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
