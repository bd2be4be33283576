package zorder

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"bvtree/internal/geometry"
)

func TestInterleaverValidation(t *testing.T) {
	if _, err := NewInterleaver(0, 8); err == nil {
		t.Fatal("dims 0 accepted")
	}
	if _, err := NewInterleaver(2, 0); err == nil {
		t.Fatal("bits 0 accepted")
	}
	if _, err := NewInterleaver(2, 65); err == nil {
		t.Fatal("bits 65 accepted")
	}
	il, err := NewInterleaver(3, 21)
	if err != nil {
		t.Fatal(err)
	}
	if il.TotalBits() != 63 || il.Dims() != 3 || il.BitsPerDim() != 21 {
		t.Fatal("accessors wrong")
	}
}

func TestInterleaveKnown2D(t *testing.T) {
	il, _ := NewInterleaver(2, 2)
	// x = 10..., y = 01... (top two bits per dim)
	p := geometry.Point{1 << 63, 1 << 62}
	a, err := il.Interleave(p)
	if err != nil {
		t.Fatal(err)
	}
	// Interleaved: x0 y0 x1 y1 = 1 0 0 1
	if got := a.String(); got != "1001" {
		t.Fatalf("address = %q, want 1001", got)
	}
}

func TestInterleaveDimMismatch(t *testing.T) {
	il, _ := NewInterleaver(2, 8)
	if _, err := il.Interleave(geometry.Point{1}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

// deinterleave is the reference inverse of Interleave: the point whose
// kept coordinate bits produce a, read bit by bit, with the coordinate
// bits below the kept precision zero.
func deinterleave(il *Interleaver, a Address) (geometry.Point, error) {
	if a.dims != il.dims || a.bitsPerDim != il.bitsPerDim {
		return nil, fmt.Errorf("zorder: address shape (%d,%d) does not match interleaver (%d,%d)",
			a.dims, a.bitsPerDim, il.dims, il.bitsPerDim)
	}
	p := make(geometry.Point, il.dims)
	for i := 0; i < il.TotalBits(); i++ {
		if a.Bit(i) != 0 {
			p[i%il.dims] |= 1 << uint(63-i/il.dims)
		}
	}
	return p, nil
}

func TestRoundTripFullPrecision(t *testing.T) {
	il, _ := NewInterleaver(2, 64)
	f := func(x, y uint64) bool {
		p := geometry.Point{x, y}
		a, err := il.Interleave(p)
		if err != nil {
			return false
		}
		q, err := deinterleave(il, a)
		if err != nil {
			return false
		}
		return q.Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripTruncated(t *testing.T) {
	il, _ := NewInterleaver(3, 16)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		p := geometry.Point{rng.Uint64(), rng.Uint64(), rng.Uint64()}
		a, _ := il.Interleave(p)
		q, _ := deinterleave(il, a)
		for d := 0; d < 3; d++ {
			if q[d]>>48 != p[d]>>48 {
				t.Fatalf("kept bits differ: %x vs %x", q[d], p[d])
			}
			if q[d]&0xFFFFFFFFFFFF != 0 {
				t.Fatalf("dropped bits nonzero: %x", q[d])
			}
		}
	}
}

func TestCompareIsZOrder(t *testing.T) {
	il, _ := NewInterleaver(2, 32)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		p := geometry.Point{uint64(rng.Uint32()) << 32, uint64(rng.Uint32()) << 32}
		q := geometry.Point{uint64(rng.Uint32()) << 32, uint64(rng.Uint32()) << 32}
		ap, _ := il.Interleave(p)
		aq, _ := il.Interleave(q)
		k1, _ := il.Interleave64(p)
		k2, _ := il.Interleave64(q)
		cmp := ap.Compare(aq)
		switch {
		case k1 < k2 && cmp != -1:
			t.Fatalf("Compare=%d for k1<k2", cmp)
		case k1 > k2 && cmp != 1:
			t.Fatalf("Compare=%d for k1>k2", cmp)
		case k1 == k2 && cmp != 0:
			t.Fatalf("Compare=%d for equal keys", cmp)
		}
	}
}

func TestBitAccess(t *testing.T) {
	il, _ := NewInterleaver(2, 4)
	p := geometry.Point{0xF << 60, 0}
	a, _ := il.Interleave(p)
	want := "10101010"
	if a.String() != want {
		t.Fatalf("address %q, want %q", a.String(), want)
	}
	if a.Bit(-1) != 0 || a.Bit(100) != 0 {
		t.Fatal("out-of-range bits not zero")
	}
	if a.Len() != 8 {
		t.Fatalf("Len=%d", a.Len())
	}
}

func TestKey64PrefixOfLongAddress(t *testing.T) {
	// For >64 total bits, key64 is the first 64 interleaved bits.
	il, _ := NewInterleaver(3, 32) // 96 bits
	p := geometry.Point{^uint64(0), 0, ^uint64(0)}
	a, _ := il.Interleave(p)
	k := a.key64()
	for i := 0; i < 64; i++ {
		want := uint64(a.Bit(i))
		got := (k >> uint(63-i)) & 1
		if got != want {
			t.Fatalf("bit %d: key %d addr %d", i, got, want)
		}
	}
}

// TestInterleaveFastPathMatchesReference pins the word-parallel 1-D and
// 2-D interleave paths to the generic per-bit construction across the
// full bitsPerDim range.
func TestInterleaveFastPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dims := range []int{1, 2} {
		for _, bpd := range []int{1, 7, 31, 32, 33, 63, 64} {
			il, err := NewInterleaver(dims, bpd)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 200; trial++ {
				p := make(geometry.Point, dims)
				for d := range p {
					p[d] = rng.Uint64()
				}
				a, err := il.Interleave(p)
				if err != nil {
					t.Fatal(err)
				}
				total := dims * bpd
				if got := len(a.Words()); got != (total+63)/64 {
					t.Fatalf("dims=%d bpd=%d: %d words", dims, bpd, got)
				}
				for i := 0; i < len(a.Words())*64; i++ {
					var want int
					if i < total {
						want = int((p[i%dims] >> uint(63-i/dims)) & 1)
					}
					if got := a.Bit(i); got != want {
						t.Fatalf("dims=%d bpd=%d bit %d: got %d want %d (p=%x)", dims, bpd, i, got, want, p)
					}
				}
			}
		}
	}
}

// TestInterleaveToFillsTheSlab: InterleaveTo writes the address Interleave
// gives into the words it is handed, clearing what they held, and into
// words of its own when handed too few.
func TestInterleaveToFillsTheSlab(t *testing.T) {
	for _, dims := range []int{1, 2, 3, 5} {
		il, err := NewInterleaver(dims, 64)
		if err != nil {
			t.Fatal(err)
		}
		p := make(geometry.Point, dims)
		for d := range p {
			p[d] = 0x9e3779b97f4a7c15 * uint64(d+1)
		}
		want, err := il.Interleave(p)
		if err != nil {
			t.Fatal(err)
		}
		slab := make([]uint64, 2*dims)
		for i := range slab {
			slab[i] = ^uint64(0)
		}
		got, err := il.InterleaveTo(slab[dims:], p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Compare(want) != 0 || &got.Words()[0] != &slab[dims] {
			t.Fatalf("dims %d: InterleaveTo gives %v in its own words, want %v in the slab", dims, got, want)
		}
		if short, err := il.InterleaveTo(slab[:dims-1], p); err != nil || short.Compare(want) != 0 {
			t.Fatalf("dims %d: InterleaveTo into %d words gives %v, %v; want %v", dims, dims-1, short, err, want)
		}
	}
}
