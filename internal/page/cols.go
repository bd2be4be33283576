package page

import (
	"errors"
	"fmt"
	"math/bits"

	"bvtree/internal/geometry"
	"bvtree/internal/region"
)

// This file gives IndexNode its columns: the struct-of-arrays layout
// the descent and range hot paths scan instead of the array-of-structs
// Entries. The wire format is untouched. A page read from the store is
// decoded straight into the columns (DecodeIndexCols) and carries nothing
// else until a writer takes it (BuildEntries builds Entries from them);
// on a node a writer holds, Entries is the form the writer edits and the
// columns are rebuilt from it at every save (SyncCols). Either way the
// columns are the only form readers scan.
//
// Layout. One uint64 arena holds four fixed partitions — the head
// words (the first 64 bits of each entry key, left-aligned), the child
// page IDs, the brick bounds (per entry: dims minima then dims maxima,
// the exact box BrickBounds deinterleaves from the key), and a shared
// tail arena for the rare key bits beyond the head — and one int32
// arena holds the entry levels, key bit lengths and tail offsets.
// Building, decoding or cloning the columns is therefore two allocations
// and the struct, regardless of entry count.
//
// Freshness. On a node with Entries, the columns record the first-element
// address of the slice they were built from, and Cols() returns nil
// whenever that or the length no longer matches, which covers every
// in-place mutation the tree performs (removals, splits and rebinds all
// change the length or the backing array): a stale mirror is detected,
// never read as wrong, and a reader that meets one reports a fault. On a
// decoded node that records nothing, the columns are fresh for as long as
// the node has no Entries.

// NodeCols is the columnar form of one IndexNode's entries.
type NodeCols struct {
	dims int
	n    int
	capE int // entry slots allocated
	capT int // tail words allocated

	// Freshness marker: &Entries[0] of the slice the columns were built
	// from, nil when they mirror no entries (none, or a decoded node's).
	entsFirst *Entry

	// The padding keeps the struct in the allocator's 288-byte size class.
	// Objects of the 256-byte class all start on 256-byte boundaries, so
	// the header words a lookup reads of every node it passes fall in a
	// quarter of the L1 cache's sets; on a fully cached tree that cost
	// random lookups and one-item windows 4–6 % (EXPERIMENTS.md, "decoding
	// straight into the columns").
	_ [8]byte

	arena []uint64 // head | child | bounds | tails, partitions fixed per allocation
	i32   []int32  // levels | keyLen | tailOff

	head    []uint64 // [capE] first key word, left-aligned
	child   []uint64 // [capE] child page IDs
	bounds  []uint64 // [capE*2*dims] min[0..dims-1], max[0..dims-1] per entry
	tails   []uint64 // shared arena of key words beyond the head
	levels  []int32  // [capE]
	keyLen  []int32  // [capE]
	tailOff []int32  // [capE+1] prefix offsets into tails
}

// Len returns the number of mirrored entries.
func (c *NodeCols) Len() int { return c.n }

// Dims returns the dimensionality the bounds columns were built for.
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

// Cols returns the node's columns, or nil when none have been built or
// the entry slice has changed since they were: the node was not
// published through a decode or SyncCols, which readers treat as an
// error.
func (n *IndexNode) Cols() *NodeCols {
	c := n.cols
	switch {
	case c == nil:
		return nil
	case c.entsFirst == nil:
		if len(n.Entries) != 0 {
			return nil
		}
	case c.n != len(n.Entries) || c.entsFirst != &n.Entries[0]:
		return nil
	}
	return c
}

// SyncCols (re)builds the columns from the entry slice. It is called
// on every save, so hot paths never build columns themselves. Fresh
// columns are left untouched.
func (n *IndexNode) SyncCols(dims int) {
	if c := n.Cols(); c != nil && c.dims == dims {
		return
	}
	n.BuildEntries()
	c := n.cols
	if c == nil {
		c = &NodeCols{}
		n.cols = c
	}
	tailWords := 0
	for i := range n.Entries {
		tailWords += len(n.Entries[i].Key.TailWords())
	}
	c.reserve(dims, len(n.Entries), tailWords)
	c.n = 0
	c.tails = c.tails[:0]
	c.tailOff[0] = 0
	for i := range n.Entries {
		c.push(&n.Entries[i])
	}
	c.mark(n.Entries)
}

// reserve sizes the arenas for capE entries and capT tail words, reusing
// existing storage when it suffices.
func (c *NodeCols) reserve(dims, capE, capT int) {
	if c.i32 != nil && c.dims == dims && capE <= c.capE && capT <= c.capT {
		return
	}
	c.dims, c.capE, c.capT = dims, capE, capT
	c.arena = make([]uint64, capE*(2+2*dims)+capT)
	c.i32 = make([]int32, 3*capE+1)
	c.partition(0)
}

// partition cuts the column slices out of the arenas, with tails tail
// words in use.
func (c *NodeCols) partition(tails int) {
	capE := c.capE
	base := capE * (2 + 2*c.dims)
	c.head = c.arena[:capE]
	c.child = c.arena[capE : 2*capE]
	c.bounds = c.arena[2*capE : base]
	c.tails = c.arena[base : base+tails : len(c.arena)]
	c.levels = c.i32[:capE]
	c.keyLen = c.i32[capE : 2*capE]
	c.tailOff = c.i32[2*capE:]
}

// push mirrors one entry into slot c.n. The caller guarantees a free
// slot and tail capacity.
func (c *NodeCols) push(e *Entry) {
	i := c.n
	c.levels[i] = int32(e.Level)
	c.keyLen[i] = int32(e.Key.Len())
	c.child[i] = uint64(e.Child)
	c.head[i] = e.Key.Head64()
	stride := 2 * c.dims
	eb := c.bounds[i*stride : i*stride+stride]
	region.BrickBounds(e.Key, c.dims, eb[:c.dims], eb[c.dims:])
	c.tails = append(c.tails, e.Key.TailWords()...)
	c.tailOff[i+1] = int32(len(c.tails))
	c.n = i + 1
}

// mark records the Entries slice the columns now describe.
func (c *NodeCols) mark(ents []Entry) {
	if len(ents) > 0 {
		c.entsFirst = &ents[0]
	} else {
		c.entsFirst = nil
	}
}

// entries builds the entries the columns describe: one entry slice and
// one slab all their keys are cut from.
func (c *NodeCols) entries() []Entry {
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
		if nw > 0 {
			w[0] = c.head[i]
			copy(w[1:], c.tails[c.tailOff[i]:c.tailOff[i+1]])
		}
		ents[i].Key, _ = region.OwnWords(w, kl)
		ents[i].Level = int(c.levels[i])
		ents[i].Child = ID(c.child[i])
	}
	return ents
}

// clone deep-copies the mirror: two arena copies, independent of entry
// count. The caller re-marks it against the clone's entry slice.
func (c *NodeCols) clone() *NodeCols {
	d := &NodeCols{dims: c.dims, n: c.n, capE: c.capE, capT: c.capT}
	d.arena = append([]uint64(nil), c.arena...)
	d.i32 = append([]int32(nil), c.i32...)
	d.partition(len(c.tails))
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
// rule, tested on the columns so that a node decoded from the store needs
// no entries built unless it passes. A key longer than one word is not
// tested — any longer entry above level counts — so a false answer is
// exact and a true one may need the entries to confirm.
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
// narrowing — and returns the qualifying entries as a bitmask.
func (c *NodeCols) Intersect64(rect geometry.Rect, base int) uint64 {
	hi := base + 64
	if hi > c.n {
		hi = c.n
	}
	dims := c.dims
	stride := 2 * dims
	rmin, rmax := rect.Min, rect.Max
	b := c.bounds[base*stride : hi*stride]
	var m uint64
	for i := 0; i < hi-base; i++ {
		eb := b[i*stride : i*stride+stride : i*stride+stride]
		ok := true
		for d := 0; d < dims; d++ {
			if eb[d] > rmax[d] || eb[dims+d] < rmin[d] {
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

// CheckCols verifies the columns against the entries: they must be
// fresh, and every column of every entry must agree with the entry — on
// a decoded node, with the entry built from the columns, whose key must
// give the stored brick bounds. It is wired into the tree's Validate walk
// as the safety net behind the staleness discipline.
func (n *IndexNode) CheckCols(dims int) error {
	c := n.Cols()
	if c == nil {
		return errors.New("page: no fresh cols mirror")
	}
	if c.dims != dims {
		return fmt.Errorf("page: cols built for %d dims, tree has %d", c.dims, dims)
	}
	ents := n.ReadEntries()
	if c.n != len(ents) {
		return fmt.Errorf("page: cols mirror %d entries, node has %d", c.n, len(ents))
	}
	var bmin, bmax [geometry.MaxDims]uint64
	for i := range ents {
		e := &ents[i]
		if c.Level(i) != e.Level || c.Child(i) != e.Child || c.KeyBits(i) != e.Key.Len() {
			return fmt.Errorf("page: cols entry %d mismatch (level %d/%d child %d/%d bits %d/%d)",
				i, c.Level(i), e.Level, c.Child(i), e.Child, c.KeyBits(i), e.Key.Len())
		}
		if c.head[i] != e.Key.Head64() {
			return fmt.Errorf("page: cols entry %d head word mismatch", i)
		}
		tw := e.Key.TailWords()
		off, end := c.tailOff[i], c.tailOff[i+1]
		if int(end-off) != len(tw) {
			return fmt.Errorf("page: cols entry %d has %d tail words, key has %d", i, end-off, len(tw))
		}
		for j, w := range tw {
			if c.tails[int(off)+j] != w {
				return fmt.Errorf("page: cols entry %d tail word %d mismatch", i, j)
			}
		}
		region.BrickBounds(e.Key, dims, bmin[:dims], bmax[:dims])
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
