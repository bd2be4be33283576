package region

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"bvtree/internal/geometry"
)

// brickBoundsPerBit is the narrowing loop BrickBounds ran before it went
// word-parallel — one halving per key bit, exactly as Brick and
// BrickIntersects narrow — kept as the reference the product function is
// compared against.
func brickBoundsPerBit(b BitString, dims int, min, max []uint64) {
	for d := 0; d < dims; d++ {
		min[d] = 0
		max[d] = ^uint64(0)
	}
	for i := 0; i < b.n; i++ {
		dim := i % dims
		half := (max[dim]-min[dim])/2 + 1
		if b.words[i/64]&(1<<uint(63-i%64)) == 0 {
			max[dim] = min[dim] + half - 1
		} else {
			min[dim] = min[dim] + half
		}
	}
}

// checkBrickBounds compares BrickBounds with the per-bit reference on the
// n-bit key cut from words.
func checkBrickBounds(t *testing.T, words []uint64, n, dims int) {
	t.Helper()
	key, err := OwnWords(slices.Clone(words), n)
	if err != nil {
		t.Fatal(err)
	}
	var min, max, rmin, rmax [geometry.MaxDims + 1]uint64
	const canary = 0xC0FFEE
	min[dims], max[dims] = canary, canary
	BrickBounds(key, dims, min[:], max[:])
	brickBoundsPerBit(key, dims, rmin[:], rmax[:])
	for d := 0; d < dims; d++ {
		if min[d] != rmin[d] || max[d] != rmax[d] {
			t.Fatalf("dims %d, %d-bit key %v, dimension %d: bounds [%#x, %#x], per-bit reference [%#x, %#x]",
				dims, n, key, d, min[d], max[d], rmin[d], rmax[d])
		}
	}
	if min[dims] != canary || max[dims] != canary {
		t.Fatalf("dims %d: BrickBounds wrote past dimension %d", dims, dims-1)
	}
}

func TestBrickBoundsMatchesPerBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for dims := 1; dims <= geometry.MaxDims; dims++ {
		words := make([]uint64, dims)
		for n := 0; n <= dims*64; n++ {
			// Random bits, then the two extremes every brick edge hides
			// behind: all zeros (the minimum corner) and all ones.
			for i := range words {
				words[i] = rng.Uint64()
			}
			checkBrickBounds(t, words, n, dims)
			for i := range words {
				words[i] = 0
			}
			checkBrickBounds(t, words, n, dims)
			for i := range words {
				words[i] = ^uint64(0)
			}
			checkBrickBounds(t, words, n, dims)
		}
	}
}

// TestBrickBoundsIgnoresBitsPastThePoint pins the documented edge: a key
// longer than dims*64 bits bounds the same single point as its first
// dims*64 bits.
func TestBrickBoundsIgnoresBitsPastThePoint(t *testing.T) {
	for _, dims := range []int{1, 2, 3} {
		words := make([]uint64, dims+1)
		for i := range words {
			words[i] = 0xA5A5_5A5A_F00F_0FF0
		}
		long, _ := OwnWords(slices.Clone(words), dims*64+37)
		exact, _ := OwnWords(slices.Clone(words), dims*64)
		var min, max, emin, emax [3]uint64
		BrickBounds(long, dims, min[:], max[:])
		BrickBounds(exact, dims, emin[:], emax[:])
		if min != emin || max != emax || min != max {
			t.Fatalf("dims %d: long key bounds [%v, %v], point bounds [%v, %v]", dims, min, max, emin, emax)
		}
	}
}

func FuzzBrickBounds(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(1))
	f.Add([]byte{0x80}, uint16(1), uint8(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint16(64), uint8(1))
	f.Add([]byte{0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0x0F, 0xF0, 0x0F, 0xF0, 0x0F, 0xF0, 0x0F, 0xF0}, uint16(128), uint8(2))
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x23, 0x45, 0x67, 0x89}, uint16(65), uint8(2))
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x11, 0x22, 0x33}, uint16(83), uint8(3))
	f.Add([]byte{0xFF, 0x00, 0xFF}, uint16(24), uint8(geometry.MaxDims))
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, dims uint8) {
		d := int(dims)%geometry.MaxDims + 1
		bits := int(n) % (d*64 + 1)
		words := make([]uint64, d)
		var buf [8]byte
		for i := range words {
			if len(raw) > i*8 {
				copy(buf[:], raw[i*8:])
				words[i] = binary.BigEndian.Uint64(buf[:])
				buf = [8]byte{}
			}
		}
		checkBrickBounds(t, words, bits, d)
	})
}

func TestOwnWordsSharesItsWords(t *testing.T) {
	slab := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	a, err := OwnWords(slab[0:1], 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OwnWords(slab[1:3], 70)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != "111" || slab[0] != 7<<61 {
		t.Fatalf("OwnWords did not clear the excess bits in place: key %v, word %#x", a, slab[0])
	}
	if b.Len() != 70 || slab[2] != 63<<58 {
		t.Fatalf("second key of the slab: %d bits, last word %#x", b.Len(), slab[2])
	}
	// Keys are immutable: extending one must not reach its neighbour.
	_ = a.Append(1)
	if slab[1] != ^uint64(0) {
		t.Fatal("Append on a slab-backed key wrote into the next key's words")
	}
	if _, err := OwnWords(slab[:1], 65); err == nil {
		t.Fatal("OwnWords accepted 65 bits in one word")
	}
}
