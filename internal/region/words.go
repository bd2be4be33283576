package region

// This file holds the word-level primitives behind the columnar node
// layout of package page: a bit string's comparable head word, its
// overflow tail, prefix tests phrased directly over packed words, and
// the exact per-dimension brick bounds of a prefix. They exist so a
// node's entries can be tested against a point or rectangle in one
// tight loop over contiguous columns instead of one BitString method
// call per entry.

// Head64 returns the first (up to) 64 bits of b, left-aligned with
// unused low bits zero. Because BitString keeps trailing bits of its
// final word cleared, this is exactly b's first packed word.
func (b BitString) Head64() uint64 {
	if len(b.words) == 0 {
		return 0
	}
	return b.words[0]
}

// TailWords returns b's packed words beyond the head (bits 64..).
// The slice aliases b's storage and must be treated as read-only.
func (b BitString) TailWords() []uint64 {
	if len(b.words) <= 1 {
		return nil
	}
	return b.words[1:]
}

// HeadMatch64 reports whether the kl-bit key whose first word is head
// is a prefix of a target whose first word is targetHead. It is valid
// only for kl <= 64 and kl not exceeding the target's length; under
// those conditions the whole prefix test is one XOR and one shift
// (Go defines x>>64 as 0, so kl = 0 and kl = 64 need no branches).
func HeadMatch64(head uint64, kl int, targetHead uint64) bool {
	return (head^targetHead)>>uint(64-kl) == 0
}

// TailMatch reports whether the kl-bit key formed by head followed by
// the overflow words tail is a prefix of target. It is the slow half of
// the columnar prefix test, taken only for keys longer than one word
// (kl > 64); the caller must have checked kl <= target.Len().
func TailMatch(head uint64, tail []uint64, kl int, target BitString) bool {
	tw := target.words
	if head != tw[0] {
		return false
	}
	full := kl / 64 // full words of the key, >= 1 here
	for j := 1; j < full; j++ {
		if tail[j-1] != tw[j] {
			return false
		}
	}
	if rem := kl % 64; rem != 0 {
		if (tail[full-1]^tw[full])>>uint(64-rem) != 0 {
			return false
		}
	}
	return true
}

// BrickBounds writes the exact per-dimension bounds of b's brick in a
// dims-dimensional space into min and max (each of length >= dims):
// the same narrowing BrickIntersects performs per test, run once so
// the bounds can be stored and every later rectangle test becomes two
// comparisons per dimension. min/max entries beyond dims are untouched.
//
// In dimension d the key fixes the top k_d bits of the coordinate, k_d
// being the number of key bits i with i mod dims = d: the minimum is
// those bits with zeros below, the maximum the same bits with ones
// below. For one and two dimensions the bits come out of the packed
// words whole (compact32, the inverse of zorder's spread32); beyond
// that they are gathered bit by bit. A coordinate has 64 bits, so key
// bits past dims*64 — which no key the tree forms has — narrow nothing.
func BrickBounds(b BitString, dims int, min, max []uint64) {
	WordsBrickBounds(b.words, b.n, dims, min, max)
}

// WordsBrickBounds is BrickBounds for the n-bit key packed in words as a
// BitString packs it (trailing bits zero). Only the first dims words are
// read, so a caller that holds a key's words outside a BitString — the
// page decoder — may pass just those.
func WordsBrickBounds(words []uint64, n, dims int, min, max []uint64) {
	if n > dims*64 {
		n = dims * 64
	}
	switch dims {
	case 1:
		min[0] = 0
		if len(words) > 0 {
			min[0] = words[0]
		}
	case 2:
		var w0, w1 uint64
		if len(words) > 0 {
			w0 = words[0]
		}
		if len(words) > 1 {
			w1 = words[1]
		}
		// Key bit i sits at position 63-i of its word: dimension 0 owns
		// the odd positions, dimension 1 the even ones.
		min[0] = compact32(w0>>1)<<32 | compact32(w1>>1)
		min[1] = compact32(w0)<<32 | compact32(w1)
	default:
		for d := 0; d < dims; d++ {
			min[d] = 0
		}
		dim, bit := 0, uint64(1)<<63 // the coordinate bit key bit i fixes
		for i := 0; i < n; i++ {
			if words[i>>6]&(1<<uint(63-i&63)) != 0 {
				min[dim] |= bit
			}
			if dim++; dim == dims {
				dim, bit = 0, bit>>1
			}
		}
	}
	depth, deeper := n/dims, n%dims // dimensions below deeper hold one bit more
	for d := 0; d < dims; d++ {
		k := depth
		if d < deeper {
			k++
		}
		max[d] = min[d] | ^uint64(0)>>uint(k)
	}
}

// compact32 gathers the even bit positions of x into the low 32 bits:
// bit 2j moves to bit j. It is the inverse of zorder's spread32.
func compact32(x uint64) uint64 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	x = (x | x>>16) & 0x00000000FFFFFFFF
	return x
}
