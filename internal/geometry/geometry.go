// Package geometry provides the n-dimensional point and rectangle
// primitives shared by every index structure in this repository.
//
// Coordinates are held as unsigned 64-bit integers. Indexes that accept
// floating-point input normalise it into this integer domain first (see
// NormalizeFloat); working in a fixed integer domain is what makes the
// regular binary partitioning of the data space (package region) exact,
// with no floating-point edge cases on partition boundaries.
package geometry

import (
	"fmt"
	"math"
	"strings"
)

// MaxDims is the largest dimensionality supported by the indexes in this
// module. It is a sanity bound, not a structural constant.
const MaxDims = 32

// Point is a point in an n-dimensional data space. The slice length is the
// dimensionality. Points are value-like: operations never mutate their
// receivers.
type Point []uint64

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders the point as "(x, y, ...)".
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Rect is a closed axis-aligned rectangle [Min[i], Max[i]] in every
// dimension. Min and Max must have the same length.
type Rect struct {
	Min Point
	Max Point
}

// NewRect returns the rectangle spanning min..max, validating that the
// bounds are consistent.
func NewRect(min, max Point) (Rect, error) {
	if len(min) != len(max) {
		return Rect{}, fmt.Errorf("geometry: rect bounds have mismatched dimensions %d and %d", len(min), len(max))
	}
	for i := range min {
		if min[i] > max[i] {
			return Rect{}, fmt.Errorf("geometry: rect min[%d]=%d exceeds max[%d]=%d", i, min[i], i, max[i])
		}
	}
	return Rect{Min: min.Clone(), Max: max.Clone()}, nil
}

// UniverseRect returns the rectangle covering the entire dims-dimensional
// data space.
func UniverseRect(dims int) Rect {
	min := make(Point, dims)
	max := make(Point, dims)
	for i := range max {
		max[i] = math.MaxUint64
	}
	return Rect{Min: min, Max: max}
}

// Dims returns the dimensionality of the rectangle.
func (r Rect) Dims() int { return len(r.Min) }

// Clone returns an independent copy of r.
func (r Rect) Clone() Rect {
	return Rect{Min: r.Min.Clone(), Max: r.Max.Clone()}
}

// Contains reports whether p lies inside r (boundaries inclusive).
func (r Rect) Contains(p Point) bool {
	if len(p) != len(r.Min) {
		return false
	}
	for i := range p {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Dims() != r.Dims() {
		return false
	}
	for i := range r.Min {
		if s.Min[i] < r.Min[i] || s.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if s.Dims() != r.Dims() {
		return false
	}
	for i := range r.Min {
		if s.Max[i] < r.Min[i] || s.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Equal reports whether r and s are the same rectangle.
func (r Rect) Equal(s Rect) bool {
	return r.Min.Equal(s.Min) && r.Max.Equal(s.Max)
}

// String renders the rectangle as "[min .. max]".
func (r Rect) String() string {
	return fmt.Sprintf("[%s .. %s]", r.Min, r.Max)
}

// LogVolume returns the base-2 logarithm of the rectangle's volume measured
// in units where each dimension spans [0, 2^64). It is useful for comparing
// region sizes without overflow.
func (r Rect) LogVolume() float64 {
	v := 0.0
	for i := range r.Min {
		side := float64(r.Max[i]-r.Min[i]) + 1
		v += math.Log2(side)
	}
	return v
}

// NormalizeFloat maps a float in [lo, hi] onto the full uint64 coordinate
// domain. Values outside the interval are clamped. NaN maps to 0.
func NormalizeFloat(v, lo, hi float64) uint64 {
	if math.IsNaN(v) || hi <= lo {
		return 0
	}
	if v <= lo {
		return 0
	}
	if v >= hi {
		return math.MaxUint64
	}
	frac := (v - lo) / (hi - lo)
	// Scale by 2^64 via 2^63*2 to stay within float64 precision limits.
	u := frac * (1 << 63) * 2
	if u >= math.MaxUint64 {
		return math.MaxUint64
	}
	return uint64(u)
}

// DenormalizeFloat is the approximate inverse of NormalizeFloat.
func DenormalizeFloat(u uint64, lo, hi float64) float64 {
	frac := float64(u) / ((1 << 63) * 2)
	return lo + frac*(hi-lo)
}
