package page

import (
	"errors"
	"fmt"
	"math/bits"

	"bvtree/internal/geometry"
	"bvtree/internal/region"
)

// This file holds an index node's columns: the struct-of-arrays layout
// that is the node. The descent and range hot paths scan it, writers
// edit it in place (Append, RemoveAt, Retain, SetChild), and the encoder
// reads it; an Entry exists only as a value built from it on request.
// The wire format is the entry-by-entry one it always was.
//
// Layout. One uint64 arena holds four fixed partitions — the head
// words (the first 64 bits of each entry key, left-aligned), the child
// page IDs, the brick bounds (per entry: dims minima then dims maxima,
// the exact box BrickBounds deinterleaves from the key), and a shared
// tail arena for the rare key bits beyond the head — and one int32
// arena holds the entry levels, key bit lengths and tail offsets.
// Decoding or cloning the columns is therefore two allocations whatever
// the entry count; an append that finds a partition full re-lays both
// arenas out at twice the size.

// NodeCols is the columnar form of one IndexNode's entries.
type NodeCols struct {
	dims int
	n    int

	// The capacities are the lengths of the entry columns (len(head)) and
	// the capacity of the tail column (cap(tails)).
	arena []uint64 // head | child | bounds | tails, partitions fixed per allocation
	i32   []int32  // levels | keyLen | tailOff

	head    []uint64 // [capE] first key word, left-aligned
	child   []uint64 // [capE] child page IDs
	bounds  []uint64 // [capE*2*dims] min[0..dims-1], max[0..dims-1] per entry
	tails   []uint64 // [:capT] shared arena of key words beyond the head
	levels  []int32  // [capE]
	keyLen  []int32  // [capE]
	tailOff []int32  // [capE+1] prefix offsets into tails
}

// Len returns the number of entries.
func (c *NodeCols) Len() int { return c.n }

// Dims returns the dimensionality the bounds columns are built for.
func (c *NodeCols) Dims() int { return c.dims }

// Level returns entry i's partition level.
func (c *NodeCols) Level(i int) int { return int(c.levels[i]) }

// KeyBits returns the bit length of entry i's region key.
func (c *NodeCols) KeyBits(i int) int { return int(c.keyLen[i]) }

// Child returns entry i's child page.
func (c *NodeCols) Child(i int) ID { return ID(c.child[i]) }

// BoundsAt returns the per-dimension minima and maxima of entry i's
// brick, aliasing the column storage (treat as read-only).
func (c *NodeCols) BoundsAt(i int) (min, max []uint64) {
	stride := 2 * c.dims
	eb := c.bounds[i*stride : i*stride+stride]
	return eb[:c.dims], eb[c.dims:]
}

// Cols returns the node's columns.
func (n *IndexNode) Cols() *NodeCols { return &n.cols }

// reserve lays the arenas out for capE entries and capT tail words,
// carrying the entries already there across; it does nothing when the
// current arenas already hold that much.
func (c *NodeCols) reserve(capE, capT int) {
	if c.i32 != nil && capE <= len(c.head) && capT <= cap(c.tails) {
		return
	}
	old := *c
	capE, capT = max(capE, len(old.head)), max(capT, cap(old.tails))
	c.arena = make([]uint64, capE*(2+2*c.dims)+capT)
	c.i32 = make([]int32, 3*capE+1)
	c.partition(capE, len(old.tails))
	if old.n == 0 {
		return
	}
	copy(c.head, old.head[:old.n])
	copy(c.child, old.child[:old.n])
	copy(c.bounds, old.bounds[:old.n*2*c.dims])
	copy(c.tails, old.tails)
	copy(c.levels, old.levels[:old.n])
	copy(c.keyLen, old.keyLen[:old.n])
	copy(c.tailOff, old.tailOff[:old.n+1])
}

// partition cuts the column slices for capE entries out of the arenas,
// with tails tail words in use.
func (c *NodeCols) partition(capE, tails int) {
	base := capE * (2 + 2*c.dims)
	c.head = c.arena[:capE]
	c.child = c.arena[capE : 2*capE]
	c.bounds = c.arena[2*capE : base]
	c.tails = c.arena[base : base+tails : len(c.arena)]
	c.levels = c.i32[:capE]
	c.keyLen = c.i32[capE : 2*capE]
	c.tailOff = c.i32[2*capE:]
}

// Reserve lays the columns out for at least entries entries, carrying
// the entries already there across; it does nothing when they already
// fit.
func (n *IndexNode) Reserve(entries int) { n.cols.reserve(entries, cap(n.cols.tails)) }

// Append adds e as the node's last entry, growing the arenas when a
// partition is full. The key's words are copied into the columns.
func (n *IndexNode) Append(e Entry) {
	c := &n.cols
	tw := e.Key.TailWords()
	if c.n == len(c.head) || len(c.tails)+len(tw) > cap(c.tails) {
		c.reserve(max(2*len(c.head), c.n+1, 4), max(2*cap(c.tails), len(c.tails)+len(tw)))
	}
	i := c.n
	c.levels[i] = int32(e.Level)
	c.keyLen[i] = int32(e.Key.Len())
	c.child[i] = uint64(e.Child)
	c.head[i] = e.Key.Head64()
	if c.dims > 0 {
		eb := c.bounds[i*2*c.dims : (i+1)*2*c.dims]
		region.BrickBounds(e.Key, c.dims, eb[:c.dims], eb[c.dims:])
	}
	c.tails = append(c.tails, tw...)
	c.tailOff[i+1] = int32(len(c.tails))
	c.n = i + 1
}

// Retain keeps the entries for which keep(i) is true and drops the rest,
// closing the gaps so the kept entries keep their order. keep is called
// once per entry, in order.
func (n *IndexNode) Retain(keep func(i int) bool) {
	c := &n.cols
	stride := 2 * c.dims
	j, lo, t := 0, int32(0), int32(0) // lo: entry i's first tail word; t: tail words kept
	for i := 0; i < c.n; i++ {
		hi := c.tailOff[i+1]
		if keep(i) {
			if j != i {
				c.head[j], c.child[j] = c.head[i], c.child[i]
				c.levels[j], c.keyLen[j] = c.levels[i], c.keyLen[i]
				copy(c.bounds[j*stride:(j+1)*stride], c.bounds[i*stride:(i+1)*stride])
			}
			t += int32(copy(c.tails[t:], c.tails[lo:hi]))
			c.tailOff[j+1] = t
			j++
		}
		lo = hi
	}
	c.n = j
	c.tails = c.tails[:t]
}

// RemoveAt drops entry i, closing the gap.
func (n *IndexNode) RemoveAt(i int) { n.Retain(func(j int) bool { return j != i }) }

// SetChild rebinds entry i to child page id.
func (n *IndexNode) SetChild(i int, id ID) { n.cols.child[i] = uint64(id) }

// key builds entry i's region key in words of its own.
func (c *NodeCols) key(i int) region.BitString {
	kl := int(c.keyLen[i])
	w := make([]uint64, (kl+63)/64)
	c.keyWords(w, i)
	k, _ := region.OwnWords(w, kl)
	return k
}

// keyWords writes entry i's key words into w, which holds exactly them.
func (c *NodeCols) keyWords(w []uint64, i int) {
	if len(w) > 0 {
		w[0] = c.head[i]
		copy(w[1:], c.tails[c.tailOff[i]:c.tailOff[i+1]])
	}
}

// ReadEntries returns the node's entries as values: one slice, and one
// slab all their keys are cut from. The node is never changed, and
// editing the result does not change it.
func (n *IndexNode) ReadEntries() []Entry {
	c := &n.cols
	words := 0
	for i := 0; i < c.n; i++ {
		words += (int(c.keyLen[i]) + 63) / 64
	}
	slab := make([]uint64, words)
	ents := make([]Entry, c.n)
	for i := range ents {
		kl := int(c.keyLen[i])
		nw := (kl + 63) / 64
		w := slab[:nw:nw]
		slab = slab[nw:]
		c.keyWords(w, i)
		ents[i].Key, _ = region.OwnWords(w, kl)
		ents[i].Level = int(c.levels[i])
		ents[i].Child = ID(c.child[i])
	}
	return ents
}

// clone deep-copies the columns: two arena copies, independent of entry
// count.
func (c *NodeCols) clone() NodeCols {
	d := NodeCols{dims: c.dims, n: c.n}
	if c.i32 == nil {
		return d
	}
	d.arena = append([]uint64(nil), c.arena...)
	d.i32 = append([]int32(nil), c.i32...)
	d.partition(len(c.head), len(c.tails))
	return d
}

// PointKey is a point address preprocessed for Match64: its head word
// and bit length hoisted out of the per-entry loop.
type PointKey struct {
	head uint64
	bits int
	key  region.BitString
}

// MakePointKey prepares a point address for batched prefix tests.
func MakePointKey(b region.BitString) PointKey {
	return PointKey{head: b.Head64(), bits: b.Len(), key: b}
}

// Match64 is the batched point-match pass (matchPointAll): it tests the
// up-to-64 entries starting at base for "entry key is a prefix of the
// target address" in one loop over the head and length columns, and
// returns the result as a bitmask (bit i-base set when entry i
// matches). Keys longer than one word — rare at realistic depths —
// take the word-level tail comparison.
func (c *NodeCols) Match64(t PointKey, base int) uint64 {
	hi := base + 64
	if hi > c.n {
		hi = c.n
	}
	heads := c.head[base:hi]
	lens := c.keyLen[base:hi]
	var m uint64
	for i := range heads {
		kl := int(lens[i])
		if kl > t.bits {
			continue
		}
		if kl <= 64 {
			if region.HeadMatch64(heads[i], kl, t.head) {
				m |= 1 << uint(i)
			}
			continue
		}
		off := c.tailOff[base+i]
		if region.TailMatch(heads[i], c.tails[off:], kl, t.key) {
			m |= 1 << uint(i)
		}
	}
	return m
}

// Extends reports whether key is a proper prefix of the key of some entry
// above level: the first condition of the placement descent's guard
// rule, tested on the columns so that no entries are built unless it
// passes. A key longer than one word is not tested — any longer entry
// above level counts — so a false answer is exact and a true one may
// need the entries to confirm.
func (c *NodeCols) Extends(key region.BitString, level int) bool {
	kl, head := key.Len(), key.Head64()
	for i := 0; i < c.n; i++ {
		if int(c.levels[i]) > level && int(c.keyLen[i]) > kl &&
			(kl > 64 || region.HeadMatch64(head, kl, c.head[i])) {
			return true
		}
	}
	return false
}

// Intersect64 is the batched rectangle-overlap pass (intersectAll): it
// tests the up-to-64 entry bricks starting at base against rect with
// two comparisons per dimension over the stored bounds — no per-bit
// narrowing — and returns the qualifying entries as a bitmask. The
// comparisons are subtraction borrows OR-ed across the dimensions, so
// the pass has no branch that depends on the bounds: most entries miss
// a small window, in no pattern a predictor learns.
func (c *NodeCols) Intersect64(rect geometry.Rect, base int) uint64 {
	hi := base + 64
	if hi > c.n {
		hi = c.n
	}
	dims := c.dims
	stride := 2 * dims
	rmin, rmax := rect.Min[:dims], rect.Max[:dims]
	b := c.bounds[base*stride : hi*stride]
	var m uint64
	for i := 0; i < hi-base; i++ {
		eb := b[i*stride : i*stride+stride : i*stride+stride]
		emin, emax := eb[:dims], eb[dims:]
		var bad uint64
		for d, lo := range rmin {
			_, above := bits.Sub64(rmax[d], emin[d], 0) // brick starts past the window
			_, below := bits.Sub64(emax[d], lo, 0)      // brick ends before it
			bad |= above | below
		}
		m |= (bad ^ 1) << uint(i)
	}
	return m
}

// Within64 refines an Intersect64 mask to the entries whose bricks lie
// entirely inside rect — the full-containment fast path. Only bits set
// in cand are tested.
func (c *NodeCols) Within64(rect geometry.Rect, base int, cand uint64) uint64 {
	dims := c.dims
	stride := 2 * dims
	rmin, rmax := rect.Min, rect.Max
	var m uint64
	for w := cand; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w)
		eb := c.bounds[(base+i)*stride : (base+i)*stride+stride]
		ok := true
		for d := 0; d < dims; d++ {
			if eb[d] < rmin[d] || eb[dims+d] > rmax[d] {
				ok = false
				break
			}
		}
		if ok {
			m |= 1 << uint(i)
		}
	}
	return m
}

// Cover64 is Within64's converse: it refines an Intersect64 mask to the
// entries whose bricks contain all of rect (both ends inclusive) — the
// test the range descent's guard-set pruning rests on: of two same-level
// bricks that both contain the window, only the longer key's subtree can
// hold points of it. Only bits set in cand are tested.
func (c *NodeCols) Cover64(rect geometry.Rect, base int, cand uint64) uint64 {
	dims := c.dims
	stride := 2 * dims
	rmin, rmax := rect.Min, rect.Max
	var m uint64
	for w := cand; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w)
		eb := c.bounds[(base+i)*stride : (base+i)*stride+stride]
		ok := true
		for d := 0; d < dims; d++ {
			if eb[d] > rmin[d] || eb[dims+d] < rmax[d] {
				ok = false
				break
			}
		}
		if ok {
			m |= 1 << uint(i)
		}
	}
	return m
}

// CheckCols verifies the columns against themselves and the tree: they
// must be built for dims dimensions, every key must be well formed (tail
// offsets in step with the key lengths, bits past a key's end clear), and
// every entry's stored brick bounds must be the brick its key spans. It
// is wired into the tree's Validate walk as the safety net behind the
// in-place edits.
func (n *IndexNode) CheckCols(dims int) error {
	c := &n.cols
	if c.dims != dims {
		return fmt.Errorf("page: cols built for %d dims, tree has %d", c.dims, dims)
	}
	if c.n == 0 {
		return nil
	}
	if c.tailOff[0] != 0 || int(c.tailOff[c.n]) != len(c.tails) {
		return errors.New("page: cols tail offsets do not span the tail arena")
	}
	var bmin, bmax [geometry.MaxDims]uint64
	for i := 0; i < c.n; i++ {
		kl := int(c.keyLen[i])
		if got, want := int(c.tailOff[i+1]-c.tailOff[i]), max((kl+63)/64-1, 0); got != want {
			return fmt.Errorf("page: cols entry %d has %d tail words, a %d-bit key has %d", i, got, kl, want)
		}
		k := c.key(i)
		w := k.Words()
		if (len(w) == 0 && c.head[i] != 0) || (len(w) > 0 && w[0] != c.head[i]) ||
			(len(w) > 1 && w[len(w)-1] != c.tails[c.tailOff[i+1]-1]) {
			return fmt.Errorf("page: cols entry %d has bits past its %d-bit key", i, kl)
		}
		region.BrickBounds(k, dims, bmin[:dims], bmax[:dims])
		min, max := c.BoundsAt(i)
		for d := 0; d < dims; d++ {
			if min[d] != bmin[d] || max[d] != bmax[d] {
				return fmt.Errorf("page: cols entry %d dim %d bounds [%d,%d], brick [%d,%d]",
					i, d, min[d], max[d], bmin[d], bmax[d])
			}
		}
	}
	return nil
}
