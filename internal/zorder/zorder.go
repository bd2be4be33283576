// Package zorder implements Morton (Z-order) addressing: the cyclic
// bit-interleaving of n-dimensional coordinates into a single bit string.
//
// The BV-tree, the BANG file and the Z-order B-tree baseline all identify a
// point with its interleaved address. Partition depth d of the regular
// binary partitioning of the data space corresponds to bit d of this
// address (dimension d mod n, from the most significant bit downwards), so
// the region algebra in package region reduces to prefix arithmetic over
// these addresses.
package zorder

import (
	"bvtree/internal/geometry"
	"fmt"
)

// Address is a fixed-length interleaved bit string identifying a point.
// Bit 0 is the most significant interleaved bit. The address length is
// Dims*BitsPerDim.
type Address struct {
	bits       []uint64 // packed big-endian: bit i lives in word i/64 at position 63-i%64
	dims       int
	bitsPerDim int
}

// Interleaver produces addresses for points of a fixed dimensionality and
// per-dimension precision. It is immutable and safe for concurrent use.
type Interleaver struct {
	dims       int
	bitsPerDim int
}

// NewInterleaver returns an Interleaver for dims dimensions keeping
// bitsPerDim high-order bits of every coordinate (1..64).
func NewInterleaver(dims, bitsPerDim int) (*Interleaver, error) {
	if dims < 1 || dims > geometry.MaxDims {
		return nil, fmt.Errorf("zorder: dims %d out of range 1..%d", dims, geometry.MaxDims)
	}
	if bitsPerDim < 1 || bitsPerDim > 64 {
		return nil, fmt.Errorf("zorder: bitsPerDim %d out of range 1..64", bitsPerDim)
	}
	return &Interleaver{dims: dims, bitsPerDim: bitsPerDim}, nil
}

// Dims returns the dimensionality handled by the interleaver.
func (il *Interleaver) Dims() int { return il.dims }

// BitsPerDim returns the per-dimension precision in bits.
func (il *Interleaver) BitsPerDim() int { return il.bitsPerDim }

// TotalBits returns the address length in bits.
func (il *Interleaver) TotalBits() int { return il.dims * il.bitsPerDim }

// CheckDims returns the error Interleave gives a point of n dimensions,
// or nil when n is the interleaver's dimensionality.
func (il *Interleaver) CheckDims(n int) error {
	if n != il.dims {
		return fmt.Errorf("zorder: point has %d dims, interleaver expects %d", n, il.dims)
	}
	return nil
}

// Interleave maps a point to its Morton address. Interleaved bit i carries
// bit (63 - i/dims) of coordinate i%dims: the dimensions are cycled from
// the most significant coordinate bits downwards.
//
// One and two dimensions — the common cases — interleave word-parallel
// (mask-and-shift bit spreading rather than a per-bit loop); higher
// dimensionalities take the generic path.
func (il *Interleaver) Interleave(p geometry.Point) (Address, error) {
	return il.InterleaveTo(nil, p)
}

// InterleaveTo is Interleave with the address's words written into dst,
// which the address then holds, when dst is long enough; otherwise, as
// with dst nil, into words of its own. A caller that interleaves many
// points cuts their addresses from one slab this way.
func (il *Interleaver) InterleaveTo(dst []uint64, p geometry.Point) (Address, error) {
	if len(p) != il.dims {
		return Address{}, il.CheckDims(len(p))
	}
	total := il.TotalBits()
	nw := (total + 63) / 64
	if len(dst) < nw {
		dst = make([]uint64, nw)
	} else {
		dst = dst[:nw:nw]
		clear(dst)
	}
	a := Address{
		bits:       dst,
		dims:       il.dims,
		bitsPerDim: il.bitsPerDim,
	}
	switch il.dims {
	case 1:
		a.bits[0] = p[0]
	case 2:
		// Interleaved word w holds depths 32w..32w+31 of both coordinates:
		// spread each 32-bit half to the even bit positions and lace the
		// dimension-0 half one position higher (bit 0 of the address is
		// the MSB of coordinate 0).
		a.bits[0] = spread32(p[0]>>32)<<1 | spread32(p[1]>>32)
		if len(a.bits) > 1 {
			a.bits[1] = spread32(p[0])<<1 | spread32(p[1])
		}
	default:
		for i := 0; i < total; i++ {
			dim := i % il.dims
			depth := i / il.dims // 0 = most significant kept bit
			bit := (p[dim] >> uint(63-depth)) & 1
			if bit != 0 {
				a.bits[i/64] |= 1 << uint(63-i%64)
			}
		}
		return a, nil
	}
	// The word-parallel paths fill whole words; truncate to the kept
	// precision (bits past dims*bitsPerDim must read as zero).
	if tail := uint(len(a.bits)*64 - total); tail != 0 {
		a.bits[len(a.bits)-1] &^= 1<<tail - 1
	}
	return a, nil
}

// spread32 distributes the low 32 bits of x to the even bit positions of
// a word: bit j moves to bit 2j, the odd positions are zero.
func spread32(x uint64) uint64 {
	x &= 0x00000000FFFFFFFF
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// Bit returns interleaved bit i (0 or 1). Bits past the address length are
// zero.
func (a Address) Bit(i int) int {
	if i < 0 || i >= a.dims*a.bitsPerDim {
		return 0
	}
	return int((a.bits[i/64] >> uint(63-i%64)) & 1)
}

// Len returns the address length in bits.
func (a Address) Len() int { return a.dims * a.bitsPerDim }

// Words exposes the packed representation (read-only by convention).
func (a Address) Words() []uint64 { return a.bits }

// Dims returns the address dimensionality.
func (a Address) Dims() int { return a.dims }

// Compare orders addresses lexicographically by interleaved bits, which is
// exactly the Z-order of the underlying points.
func (a Address) Compare(b Address) int {
	n := len(a.bits)
	if len(b.bits) < n {
		n = len(b.bits)
	}
	for i := 0; i < n; i++ {
		switch {
		case a.bits[i] < b.bits[i]:
			return -1
		case a.bits[i] > b.bits[i]:
			return 1
		}
	}
	switch {
	case len(a.bits) < len(b.bits):
		return -1
	case len(a.bits) > len(b.bits):
		return 1
	}
	return 0
}

// String renders the address as a bit string.
func (a Address) String() string {
	buf := make([]byte, a.Len())
	for i := range buf {
		buf[i] = byte('0' + a.Bit(i))
	}
	return string(buf)
}

// key64 packs the first min(64, Len) interleaved bits into a uint64 such
// that numeric order equals Z-order. It is the key form used by the Z-order
// B-tree baseline.
func (a Address) key64() uint64 {
	if len(a.bits) == 0 {
		return 0
	}
	return a.bits[0]
}

// Interleave64 is a convenience helper producing the uint64 Z-key directly;
// only the first 64 interleaved bits are kept.
func (il *Interleaver) Interleave64(p geometry.Point) (uint64, error) {
	a, err := il.Interleave(p)
	if err != nil {
		return 0, err
	}
	return a.key64(), nil
}
