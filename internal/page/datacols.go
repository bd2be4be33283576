package page

import (
	"errors"
	"fmt"
	"math/bits"

	"bvtree/internal/geometry"
)

// DataCols is the columnar mirror of a data page: the items' coordinates
// deinterleaved into one per-dimension row each, laid out in a single
// arena so the point tests of the lookup and range hot paths scan
// contiguous words instead of chasing one Point slice per item.
//
// Like NodeCols it is derived state with the same staleness discipline:
// Items is what writers edit, DCols returns nil whenever the mirror may
// be out of date (detected, never read as wrong), and SyncDataCols — run
// by every SaveData — rebuilds it; DecodeData fills it in the same pass
// as the items, so a decoded page needs no rebuild. Data pages are small
// (DataCapacity items) and saved on every mutation, so a full rebuild
// per save costs one short copy.
type DataCols struct {
	n      int
	first  *Item // freshness marker: &Items[0] at sync time
	dims   int
	stride int
	coords []uint64 // row d is coords[d*stride : d*stride+n]
}

// DCols returns the page's columnar mirror, or nil when it is missing or
// possibly stale (the item slice changed length or moved since the last
// sync), which readers treat as an error.
func (p *DataPage) DCols() *DataCols {
	c := p.dcols
	if c == nil || c.n != len(p.Items) || (c.n > 0 && c.first != &p.Items[0]) {
		return nil
	}
	return c
}

// SyncDataCols (re)builds the mirror from Items. It is idempotent and
// cheap to call when the mirror is already fresh.
func (p *DataPage) SyncDataCols(dims int) {
	if c := p.DCols(); c != nil && c.dims == dims {
		return
	}
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

// CheckDataCols verifies the mirror against Items: it must be fresh and
// agree on every coordinate.
func (p *DataPage) CheckDataCols(dims int) error {
	c := p.DCols()
	if c == nil {
		return errors.New("page: no fresh data mirror")
	}
	if c.dims != dims {
		return fmt.Errorf("page: data mirror has %d dims, want %d", c.dims, dims)
	}
	for i := range p.Items {
		pt := p.Items[i].Point
		for d := 0; d < dims; d++ {
			if c.coords[d*c.stride+i] != pt[d] {
				return fmt.Errorf("page: data mirror item %d dim %d: column %d, point %d",
					i, d, c.coords[d*c.stride+i], pt[d])
			}
		}
	}
	return nil
}
