package page

import (
	"errors"
	"fmt"
	"math/bits"

	"bvtree/internal/geometry"
)

// DataCols is the columnar form of a data page: the items' coordinates
// deinterleaved into one per-dimension row each, laid out in a single
// arena so the point tests of the lookup and range hot paths scan
// contiguous words instead of chasing one Point slice per item.
//
// A page read from the store is decoded straight into the columns
// (DecodeDataCols), with one more row for the payloads, and carries
// nothing else until a writer takes it (BuildItems). On a page a writer
// holds, Items is what the writer edits, the payloads live there, and the
// columns are rebuilt from it by every SaveData (SyncDataCols) with no
// payload row. The staleness discipline is NodeCols': DCols returns nil
// whenever the columns may be out of date (detected, never read as
// wrong). Data pages are small (DataCapacity items) and saved on every
// mutation, so a full rebuild per save costs one short copy.
type DataCols struct {
	n      int
	first  *Item // freshness marker: &Items[0] at sync time, nil on a decoded page
	dims   int
	stride int
	coords []uint64 // row d is coords[d*stride : d*stride+n]; on a decoded page row dims holds the payloads
}

// DCols returns the page's columns, or nil when they are missing or
// possibly stale (the item slice changed length or moved since the last
// sync), which readers treat as an error.
func (p *DataPage) DCols() *DataCols {
	c := p.dcols
	switch {
	case c == nil:
		return nil
	case c.first == nil:
		if len(p.Items) != 0 {
			return nil
		}
	case c.n != len(p.Items) || c.first != &p.Items[0]:
		return nil
	}
	return c
}

// SyncDataCols (re)builds the columns from Items. It is idempotent and
// cheap to call when the columns are already fresh.
func (p *DataPage) SyncDataCols(dims int) {
	if c := p.DCols(); c != nil && c.dims == dims {
		return
	}
	p.BuildItems()
	c := p.dcols
	n := len(p.Items)
	stride := cap(p.Items)
	if c == nil || c.dims != dims || c.stride < stride {
		c = &DataCols{dims: dims, stride: stride, coords: make([]uint64, dims*stride)}
		p.dcols = c
	}
	c.n = n
	c.first = nil
	if n > 0 {
		c.first = &p.Items[0]
	}
	for i := range p.Items {
		pt := p.Items[i].Point
		for d := 0; d < dims; d++ {
			c.coords[d*c.stride+i] = pt[d]
		}
	}
}

// Payload returns item i's payload: from Items when the page carries
// them, from the payload row of a decoded page's columns otherwise.
func (p *DataPage) Payload(i int) uint64 {
	if i < len(p.Items) {
		return p.Items[i].Payload
	}
	c := p.dcols
	return c.coords[c.dims*c.stride+i]
}

// AppendItems appends the page's items to dst, their points copied from
// the columns into coords, and returns both extended slices; as with
// AppendDataItems, the points of earlier calls stay valid when coords
// relocates. The page must have fresh columns. It is how a reader that
// hands points out — and may see them retained — gets a decoded page's
// items without changing the page.
func (p *DataPage) AppendItems(dst []Item, coords []uint64) ([]Item, []uint64) {
	c := p.dcols
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
		dst = append(dst, Item{Point: pt, Payload: p.Payload(i)})
	}
	return dst, coords
}

// Len returns the number of mirrored items.
func (c *DataCols) Len() int { return c.n }

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
// Rect.Contains per item.
func (c *DataCols) ContainMask64(r geometry.Rect, base int) uint64 {
	cnt := c.n - base
	if cnt > 64 {
		cnt = 64
	}
	var m uint64
	row := c.coords[base : base+cnt]
	lo, hi := r.Min[0], r.Max[0]
	for i, w := range row {
		if w >= lo && w <= hi {
			m |= 1 << uint(i)
		}
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

// CheckDataCols verifies the columns against the items: they must be
// fresh and agree on every coordinate.
func (p *DataPage) CheckDataCols(dims int) error {
	c := p.DCols()
	if c == nil {
		return errors.New("page: no fresh data mirror")
	}
	if c.dims != dims {
		return fmt.Errorf("page: data mirror has %d dims, want %d", c.dims, dims)
	}
	items := p.ReadItems()
	if c.n != len(items) {
		return fmt.Errorf("page: data mirror has %d items, page has %d", c.n, len(items))
	}
	for i := range items {
		pt := items[i].Point
		for d := 0; d < dims; d++ {
			if c.coords[d*c.stride+i] != pt[d] {
				return fmt.Errorf("page: data mirror item %d dim %d: column %d, point %d",
					i, d, c.coords[d*c.stride+i], pt[d])
			}
		}
	}
	return nil
}
