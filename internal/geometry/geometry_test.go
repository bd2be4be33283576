package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointCloneEqual(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	q[0] = 99
	if p.Equal(q) {
		t.Fatal("clone aliases original")
	}
	if p.Equal(Point{1, 2}) {
		t.Fatal("points of different dims compared equal")
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{1, 2}).String(); got != "(1, 2)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestNewRectValidation(t *testing.T) {
	if _, err := NewRect(Point{1}, Point{0}); err == nil {
		t.Fatal("inverted bounds accepted")
	}
	if _, err := NewRect(Point{1}, Point{1, 2}); err == nil {
		t.Fatal("mismatched dims accepted")
	}
	r, err := NewRect(Point{1, 2}, Point{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains(Point{1, 2}) || !r.Contains(Point{3, 4}) || !r.Contains(Point{2, 3}) {
		t.Fatal("boundary containment broken")
	}
	if r.Contains(Point{0, 3}) || r.Contains(Point{2, 5}) {
		t.Fatal("outside point contained")
	}
}

func TestUniverseRect(t *testing.T) {
	u := UniverseRect(3)
	if !u.Contains(Point{0, math.MaxUint64, 12345}) {
		t.Fatal("universe does not contain extremes")
	}
	if u.Dims() != 3 {
		t.Fatal("wrong dims")
	}
}

// intersection is the reference Intersects is checked against: the box
// of the larger lower and the smaller upper bounds, which is a rectangle
// (ok) exactly when r and s share a point.
func intersection(r, s Rect) (out Rect, ok bool) {
	out = Rect{Min: make(Point, r.Dims()), Max: make(Point, r.Dims())}
	ok = true
	for i := range out.Min {
		out.Min[i], out.Max[i] = max(r.Min[i], s.Min[i]), min(r.Max[i], s.Max[i])
		ok = ok && out.Min[i] <= out.Max[i]
	}
	return out, ok
}

func TestIntersect(t *testing.T) {
	a, _ := NewRect(Point{0, 0}, Point{10, 10})
	b, _ := NewRect(Point{5, 5}, Point{20, 20})
	if !a.Intersects(b) {
		t.Fatal("intersecting rects reported disjoint")
	}
	c, ok := intersection(a, b)
	if !ok {
		t.Fatal("the reference intersection of overlapping rects is empty")
	}
	want, _ := NewRect(Point{5, 5}, Point{10, 10})
	if !c.Equal(want) {
		t.Fatalf("intersection = %v, want %v", c, want)
	}
	d, _ := NewRect(Point{11, 0}, Point{12, 10})
	if a.Intersects(d) {
		t.Fatal("disjoint rects reported intersecting")
	}
	if _, ok := intersection(a, d); ok {
		t.Fatal("the reference intersection of disjoint rects is not empty")
	}
	// Touching edges intersect (closed rectangles).
	e, _ := NewRect(Point{10, 10}, Point{12, 12})
	if !a.Intersects(e) {
		t.Fatal("touching rects reported disjoint")
	}
}

func TestContainsRect(t *testing.T) {
	a, _ := NewRect(Point{0, 0}, Point{10, 10})
	b, _ := NewRect(Point{2, 2}, Point{8, 8})
	if !a.ContainsRect(b) || b.ContainsRect(a) {
		t.Fatal("ContainsRect wrong")
	}
	if !a.ContainsRect(a) {
		t.Fatal("rect does not contain itself")
	}
}

func TestIntersectionCommutesAndShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func() Rect {
		a := Point{rng.Uint64(), rng.Uint64()}
		b := Point{rng.Uint64(), rng.Uint64()}
		min := Point{}
		max := Point{}
		for i := 0; i < 2; i++ {
			lo, hi := a[i], b[i]
			if lo > hi {
				lo, hi = hi, lo
			}
			min = append(min, lo)
			max = append(max, hi)
		}
		r, _ := NewRect(min, max)
		return r
	}
	for i := 0; i < 200; i++ {
		a, b := mk(), mk()
		ab, ok1 := intersection(a, b)
		ba, ok2 := intersection(b, a)
		if ok1 != ok2 || a.Intersects(b) != ok1 || b.Intersects(a) != ok1 {
			t.Fatalf("Intersects %v / %v, the reference intersection %v / %v", a.Intersects(b), b.Intersects(a), ok1, ok2)
		}
		if ok1 {
			if !ab.Equal(ba) {
				t.Fatal("intersection not commutative")
			}
			if !a.ContainsRect(ab) || !b.ContainsRect(ab) {
				t.Fatal("intersection not contained in operands")
			}
		}
	}
}

func TestNormalizeFloatMonotonic(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		ua := NormalizeFloat(a, -1000, 1000)
		ub := NormalizeFloat(b, -1000, 1000)
		if a < b {
			return ua <= ub
		}
		if a > b {
			return ua >= ub
		}
		return ua == ub
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeFloatBounds(t *testing.T) {
	if NormalizeFloat(-5, 0, 1) != 0 {
		t.Fatal("below-range not clamped to 0")
	}
	if NormalizeFloat(5, 0, 1) != math.MaxUint64 {
		t.Fatal("above-range not clamped to max")
	}
	if NormalizeFloat(math.NaN(), 0, 1) != 0 {
		t.Fatal("NaN not mapped to 0")
	}
	if NormalizeFloat(0.5, 1, 0) != 0 {
		t.Fatal("degenerate interval not handled")
	}
}

func TestDenormalizeRoundTrip(t *testing.T) {
	for _, v := range []float64{-999, -1, 0, 0.125, 1, 500, 999} {
		u := NormalizeFloat(v, -1000, 1000)
		back := DenormalizeFloat(u, -1000, 1000)
		if math.Abs(back-v) > 1e-9 {
			t.Fatalf("round trip %v -> %v", v, back)
		}
	}
}

func TestLogVolume(t *testing.T) {
	u := UniverseRect(2)
	if math.Abs(u.LogVolume()-128) > 1e-6 {
		t.Fatalf("universe 2d log-volume = %v, want 128", u.LogVolume())
	}
	r, _ := NewRect(Point{0, 0}, Point{0, 0})
	if r.LogVolume() != 0 {
		t.Fatalf("unit rect log-volume = %v", r.LogVolume())
	}
}
