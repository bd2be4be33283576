// Package region implements the regular binary partitioning of an
// n-dimensional data space used by the BANG file and the BV-tree.
//
// A region is identified by a variable-length bit string: bit i of the
// string fixes the next binary split of dimension i mod n, working from
// each coordinate's most significant bit downwards. Region A encloses
// region B exactly when A's bit string is a proper prefix of B's, so the
// whole region algebra of the paper — enclosure, direct enclosure, the
// guarantee that region boundaries never intersect — reduces to prefix
// arithmetic, and a region's point set is its brick (the axis-aligned box
// spanned by the prefix) minus the bricks of the regions it directly
// encloses.
package region

import (
	"fmt"
	"strings"

	"bvtree/internal/zorder"
)

// BitString is an immutable variable-length bit string. Bit 0 is the most
// significant. The zero value is the empty string, which identifies the
// whole data space.
type BitString struct {
	words []uint64 // bit i is word i/64, position 63-i%64; trailing bits zero
	n     int
}

// FromAddress converts a Morton address into a BitString of the same bits.
func FromAddress(a zorder.Address) BitString {
	w := a.Words()
	words := make([]uint64, len(w))
	copy(words, w)
	return BitString{words: words, n: a.Len()}
}

// ParseBits builds a BitString from a literal such as "0110". Characters
// other than '0' and '1' are rejected.
func ParseBits(s string) (BitString, error) {
	b := BitString{}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			b = b.Append(0)
		case '1':
			b = b.Append(1)
		default:
			return BitString{}, fmt.Errorf("region: invalid bit character %q in %q", s[i], s)
		}
	}
	return b, nil
}

// MustParseBits is ParseBits for constant literals; it panics on error.
func MustParseBits(s string) BitString {
	b, err := ParseBits(s)
	if err != nil {
		panic(err)
	}
	return b
}

// Len returns the number of bits.
func (b BitString) Len() int { return b.n }

// Bit returns bit i (0 or 1); out-of-range indexes return 0.
func (b BitString) Bit(i int) int {
	if i < 0 || i >= b.n {
		return 0
	}
	return int((b.words[i/64] >> uint(63-i%64)) & 1)
}

// Append returns a copy of b with one extra bit.
func (b BitString) Append(bit int) BitString {
	nw := (b.n + 1 + 63) / 64
	words := make([]uint64, nw)
	copy(words, b.words)
	if bit != 0 {
		words[b.n/64] |= 1 << uint(63-b.n%64)
	} else {
		words[b.n/64] &^= 1 << uint(63-b.n%64)
	}
	return BitString{words: words, n: b.n + 1}
}

// Prefix returns the first n bits of b. It panics if n exceeds b's length.
func (b BitString) Prefix(n int) BitString {
	if n < 0 || n > b.n {
		panic(fmt.Sprintf("region: prefix length %d out of range 0..%d", n, b.n))
	}
	nw := (n + 63) / 64
	words := make([]uint64, nw)
	copy(words, b.words[:nw])
	if n%64 != 0 && nw > 0 {
		words[nw-1] &= ^uint64(0) << uint(64-n%64)
	}
	return BitString{words: words, n: n}
}

// Equal reports whether b and c hold identical bits.
func (b BitString) Equal(c BitString) bool {
	if b.n != c.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != c.words[i] {
			return false
		}
	}
	return true
}

// IsPrefixOf reports whether b is a (not necessarily proper) prefix of c.
func (b BitString) IsPrefixOf(c BitString) bool {
	if b.n > c.n {
		return false
	}
	full := b.n / 64
	for i := 0; i < full; i++ {
		if b.words[i] != c.words[i] {
			return false
		}
	}
	if rem := b.n % 64; rem != 0 {
		mask := ^uint64(0) << uint(64-rem)
		if (b.words[full]^c.words[full])&mask != 0 {
			return false
		}
	}
	return true
}

// IsProperPrefixOf reports whether b is a strictly shorter prefix of c:
// the region identified by b strictly encloses the region identified by c.
func (b BitString) IsProperPrefixOf(c BitString) bool {
	return b.n < c.n && b.IsPrefixOf(c)
}

// CommonPrefixLen returns the length of the longest common prefix of b and c.
func (b BitString) CommonPrefixLen(c BitString) int {
	max := b.n
	if c.n < max {
		max = c.n
	}
	words := (max + 63) / 64
	for i := 0; i < words; i++ {
		x := b.words[i] ^ c.words[i]
		if x != 0 {
			l := i*64 + leadingZeros64(x)
			if l > max {
				l = max
			}
			return l
		}
	}
	return max
}

// Compare orders bit strings lexicographically with prefixes sorting before
// their extensions. It is a total order used only for canonical layout.
func (b BitString) Compare(c BitString) int {
	l := b.CommonPrefixLen(c)
	switch {
	case l == b.n && l == c.n:
		return 0
	case l == b.n:
		return -1
	case l == c.n:
		return 1
	case b.Bit(l) < c.Bit(l):
		return -1
	default:
		return 1
	}
}

// String renders the bits, "ε" for the empty string.
func (b BitString) String() string {
	if b.n == 0 {
		return "ε"
	}
	var sb strings.Builder
	for i := 0; i < b.n; i++ {
		sb.WriteByte(byte('0' + b.Bit(i)))
	}
	return sb.String()
}

// Words exposes the packed words (treat as read-only).
func (b BitString) Words() []uint64 { return b.words }

// OwnWords makes a BitString of n bits from packed words without a
// copy: it keeps the first (n+63)/64 of words as its storage, clearing
// the excess bits of the last one in place, and the caller must not
// write to them again. A decoder
// uses it to cut the keys of one page out of a single slab: BitStrings
// are immutable, so keys sharing a backing array cannot disturb each
// other.
func OwnWords(words []uint64, n int) (BitString, error) {
	need := (n + 63) / 64
	if n < 0 || need > len(words) {
		return BitString{}, fmt.Errorf("region: %d words cannot hold %d bits", len(words), n)
	}
	w := words[:need:need]
	if rem := n % 64; rem != 0 {
		w[need-1] &= ^uint64(0) << uint(64-rem)
	}
	return BitString{words: w, n: n}, nil
}

func leadingZeros64(x uint64) int {
	n := 0
	if x>>32 == 0 {
		n += 32
		x <<= 32
	}
	if x>>48 == 0 {
		n += 16
		x <<= 16
	}
	if x>>56 == 0 {
		n += 8
		x <<= 8
	}
	if x>>60 == 0 {
		n += 4
		x <<= 4
	}
	if x>>62 == 0 {
		n += 2
		x <<= 2
	}
	if x>>63 == 0 {
		n++
	}
	return n
}
