package region

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"bvtree/internal/geometry"
)

func TestBrickKnown2D(t *testing.T) {
	half := uint64(1) << 63
	cases := []struct {
		bits string
		min  geometry.Point
		max  geometry.Point
	}{
		{"", geometry.Point{0, 0}, geometry.Point{math.MaxUint64, math.MaxUint64}},
		{"0", geometry.Point{0, 0}, geometry.Point{half - 1, math.MaxUint64}},
		{"1", geometry.Point{half, 0}, geometry.Point{math.MaxUint64, math.MaxUint64}},
		{"01", geometry.Point{0, half}, geometry.Point{half - 1, math.MaxUint64}},
		{"10", geometry.Point{half, 0}, geometry.Point{math.MaxUint64, half - 1}},
		{"0000", geometry.Point{0, 0}, geometry.Point{half/2 - 1, half/2 - 1}},
	}
	for _, c := range cases {
		b := Brick(MustParseBits(c.bits), 2)
		if !b.Min.Equal(c.min) || !b.Max.Equal(c.max) {
			t.Fatalf("Brick(%q) = %v, want [%v..%v]", c.bits, b, c.min, c.max)
		}
	}
}

func TestBrickNesting(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		a := randBits(rng, 40)
		ext := a
		for j := 0; j < 1+rng.Intn(10); j++ {
			ext = ext.Append(rng.Intn(2))
		}
		ba, be := Brick(a, 3), Brick(ext, 3)
		if !ba.ContainsRect(be) {
			t.Fatalf("brick of extension not nested: %v in %v", ext, a)
		}
		// Sibling bricks are disjoint.
		sib := a.Append(0)
		sib2 := a.Append(1)
		if Brick(sib, 3).Intersects(Brick(sib2, 3)) {
			t.Fatalf("sibling bricks intersect under %v", a)
		}
	}
}

func TestBrickHalvesVolume(t *testing.T) {
	b := BitString{}
	prev := Brick(b, 2).LogVolume()
	for i := 0; i < 20; i++ {
		b = b.Append(i % 2)
		v := Brick(b, 2).LogVolume()
		if math.Abs(prev-1-v) > 1e-9 {
			t.Fatalf("depth %d: log volume %v after %v", i+1, v, prev)
		}
		prev = v
	}
}

// fullAddr builds a fixed-length pseudo-address with the given prefix.
func fullAddr(rng *rand.Rand, prefix BitString, length int) BitString {
	b := prefix
	for b.Len() < length {
		b = b.Append(rng.Intn(2))
	}
	return b
}

func TestChooseSplitBalanceGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		encl := randBits(rng, 10)
		n := 3 + rng.Intn(60)
		items := make([]BitString, n)
		for i := range items {
			items[i] = fullAddr(rng, encl, encl.Len()+64)
		}
		choice, err := ChooseSplit(encl, items)
		if err != nil {
			// With full-length random addresses a split must exist unless
			// all items are identical.
			allSame := true
			for _, it := range items[1:] {
				if !it.Equal(items[0]) {
					allSame = false
				}
			}
			if !allSame {
				t.Fatalf("trial %d: unexpected error %v", trial, err)
			}
			continue
		}
		if !encl.IsProperPrefixOf(choice.Prefix) {
			t.Fatalf("split prefix %v does not extend region %v", choice.Prefix, encl)
		}
		if choice.Promoted != 0 {
			t.Fatalf("full-length addresses promoted: %d", choice.Promoted)
		}
		if choice.Inner+choice.Outer != n {
			t.Fatalf("counts %d+%d != %d", choice.Inner, choice.Outer, n)
		}
		// The paper's guarantee: both sides at least 1/3 (integer floor).
		if choice.Inner*3 < n || choice.Outer*3 < n {
			// Allow floor slack of one item for tiny n.
			if choice.Inner < n/3 || choice.Outer < n/3 {
				t.Fatalf("trial %d: unbalanced split %d/%d of %d", trial, choice.Inner, choice.Outer, n)
			}
		}
	}
}

func TestChooseSplitDuplicatesRejected(t *testing.T) {
	encl := BitString{}
	same := MustParseBits("0101")
	items := []BitString{same, same, same}
	_, err := ChooseSplit(encl, items)
	if !errors.Is(err, ErrCannotSplit) {
		t.Fatalf("err = %v, want ErrCannotSplit", err)
	}
	if _, err := ChooseSplit(encl, items[:1]); !errors.Is(err, ErrCannotSplit) {
		t.Fatal("single item split accepted")
	}
}

func TestChooseSplitOutsideRegionRejected(t *testing.T) {
	encl := MustParseBits("1")
	items := []BitString{MustParseBits("01"), MustParseBits("11")}
	if _, err := ChooseSplit(encl, items); err == nil {
		t.Fatal("item outside region accepted")
	}
}

func TestChooseSplitVariableLengthKeysPromotion(t *testing.T) {
	// Index-node style items: keys of varying lengths including a chain of
	// prefixes. Items on the path to the chosen prefix are promoted.
	items := []BitString{
		MustParseBits(""),       // equals the region: always promoted if split
		MustParseBits("0"),      // on the 0-path
		MustParseBits("00"),     // on the 0-path
		MustParseBits("000101"), //
		MustParseBits("000110"),
		MustParseBits("0010"),
		MustParseBits("0011"),
		MustParseBits("01"),
		MustParseBits("10"),
	}
	choice, err := ChooseSplit(BitString{}, items)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Inner+choice.Outer+choice.Promoted != len(items) {
		t.Fatalf("counts don't add up: %+v", choice)
	}
	// Verify classification independently.
	in, out, prom := 0, 0, 0
	for _, it := range items {
		switch {
		case choice.Prefix.IsPrefixOf(it):
			in++
		case it.IsProperPrefixOf(choice.Prefix):
			prom++
		default:
			out++
		}
	}
	if in != choice.Inner || out != choice.Outer || prom != choice.Promoted {
		t.Fatalf("classification mismatch: got %+v, recount %d/%d/%d", choice, in, out, prom)
	}
	if choice.Inner == 0 || choice.Inner == len(items) {
		t.Fatalf("degenerate split: %+v", choice)
	}
}

func TestChooseSplitClusteredAddressesConverges(t *testing.T) {
	// All items share a very long common prefix: the unary-chain jump must
	// converge without scanning bit by bit into pathology.
	rng := rand.New(rand.NewSource(13))
	deep := randBits(rng, 0)
	for i := 0; i < 100; i++ {
		deep = deep.Append(1)
	}
	items := make([]BitString, 20)
	for i := range items {
		items[i] = fullAddr(rng, deep, 128)
	}
	choice, err := ChooseSplit(BitString{}, items)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Prefix.Len() <= 100 {
		t.Fatalf("expected deep split prefix, got len %d", choice.Prefix.Len())
	}
	if choice.Inner < len(items)/3 || choice.Outer < len(items)/3 {
		t.Fatalf("unbalanced: %+v", choice)
	}
}

// TestBrickIntersectsMatchesBrick differentially checks the
// allocation-free pruning test against the materialised brick across
// random prefixes, dimensionalities, and query rectangles (including
// degenerate point rects).
func TestBrickIntersectsMatchesBrick(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		dims := 1 + rng.Intn(4)
		b := randBits(rng, 48)
		rect := geometry.UniverseRect(dims)
		for d := 0; d < dims; d++ {
			a, c := rng.Uint64(), rng.Uint64()
			if rng.Intn(4) == 0 {
				c = a // degenerate interval
			}
			if a > c {
				a, c = c, a
			}
			rect.Min[d], rect.Max[d] = a, c
		}
		want := rect.Intersects(Brick(b, dims))
		if got := BrickIntersects(b, dims, rect); got != want {
			t.Fatalf("BrickIntersects(%v, %d, %v) = %v, Brick path says %v", b, dims, rect, got, want)
		}
	}
	// Dimension mismatch is rejected, mirroring Rect.Intersects.
	if BrickIntersects(randBits(rng, 8), 2, geometry.UniverseRect(3)) {
		t.Fatal("dimension mismatch must not intersect")
	}
}

func BenchmarkBrickIntersects(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	bits := randBits(rng, 40)
	rect := geometry.UniverseRect(2)
	rect.Min[0], rect.Max[0] = 1<<62, 1<<63
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BrickIntersects(bits, 2, rect)
	}
}

func TestBrickWithinMatchesBrick(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	contained := 0
	for i := 0; i < 5000; i++ {
		dims := 1 + rng.Intn(4)
		b := randBits(rng, 12) // short prefixes: big bricks, so containment actually occurs
		rect := geometry.UniverseRect(dims)
		for d := 0; d < dims; d++ {
			a, c := rng.Uint64(), rng.Uint64()
			if a > c {
				a, c = c, a
			}
			if rng.Intn(3) == 0 {
				a, c = 0, ^uint64(0) // whole dimension: containment-friendly
			}
			rect.Min[d], rect.Max[d] = a, c
		}
		want := rect.ContainsRect(Brick(b, dims))
		if want {
			contained++
		}
		if got := BrickWithin(b, dims, rect); got != want {
			t.Fatalf("BrickWithin(%v, %d, %v) = %v, Brick path says %v", b, dims, rect, got, want)
		}
	}
	if contained == 0 {
		t.Fatal("no trial exercised the contained case")
	}
	// Dimension mismatch is rejected, mirroring Rect.ContainsRect.
	if BrickWithin(randBits(rng, 8), 2, geometry.UniverseRect(3)) {
		t.Fatal("dimension mismatch must not be contained")
	}
	// Containment implies intersection.
	bits := randBits(rng, 6)
	r := geometry.UniverseRect(2)
	if BrickWithin(bits, 2, r) && !BrickIntersects(bits, 2, r) {
		t.Fatal("contained brick must intersect")
	}
}
