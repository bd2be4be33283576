package page

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/region"
)

// A node is its columns: every batched predicate must agree bit-for-bit
// with the per-entry scalar test it replaces, and every in-place edit
// must leave exactly the columns — and the encoding — that the same
// entries appended one by one to an empty node give. These tests check
// both on randomized nodes, against the entry-by-entry encoding below.

// randEntries returns ne random entries over dims dimensions, key
// lengths spanning empty through multi-word tails.
func randEntries(rng *rand.Rand, dims, ne int) []Entry {
	ents := make([]Entry, ne)
	for i := range ents {
		ents[i] = Entry{Key: randBits(rng, dims*64), Level: rng.Intn(3), Child: ID(rng.Intn(1000) + 1)}
	}
	return ents
}

// nodeOf builds a node of a dims-dimensional tree by appending ents.
func nodeOf(level int, reg region.BitString, dims int, ents []Entry) *IndexNode {
	n := NewIndexNode(level, reg, dims)
	for _, e := range ents {
		n.Append(e)
	}
	return n
}

// randNode builds a level-3 node with ne random entries and returns it
// with the entries it holds.
func randNode(rng *rand.Rand, dims, ne int) (*IndexNode, []Entry) {
	ents := randEntries(rng, dims, ne)
	return nodeOf(3, region.BitString{}, dims, ents), ents
}

// encodeEntries is the entry-by-entry index page encoding, the reference
// the columns must encode to.
func encodeEntries(level int, reg region.BitString, ents []Entry) []byte {
	w := newWriter(KindIndex, 0)
	w.u32(uint32(level))
	w.bits(reg)
	w.u32(uint32(len(ents)))
	for _, e := range ents {
		w.u32(uint32(e.Level))
		w.bits(e.Key)
		w.u64(uint64(e.Child))
	}
	return w.finish()
}

// sameEntries fails unless n holds exactly ents, encodes as they do and
// passes its own column check.
func sameEntries(t *testing.T, what string, n *IndexNode, ents []Entry) {
	t.Helper()
	if err := n.CheckCols(n.Cols().Dims()); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(EncodeIndex(n), encodeEntries(n.Level, n.Region, ents)) {
		t.Fatalf("%s: the columns encode differently from their %d entries", what, len(ents))
	}
}

// randRect builds a random query rectangle over dims dimensions.
func randRect(rng *rand.Rand, dims int) geometry.Rect {
	min := make(geometry.Point, dims)
	max := make(geometry.Point, dims)
	for d := 0; d < dims; d++ {
		a, b := rng.Uint64(), rng.Uint64()
		if a > b {
			a, b = b, a
		}
		min[d], max[d] = a, b
	}
	r, err := geometry.NewRect(min, max)
	if err != nil {
		panic(err)
	}
	return r
}

func TestColsMatch64AgainstIsPrefixOf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range []int{1, 2, 3} {
		for trial := 0; trial < 50; trial++ {
			n, ents := randNode(rng, dims, rng.Intn(130))
			c := n.Cols()
			if err := n.CheckCols(dims); err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 8; q++ {
				target := randBits(rng, dims*64)
				// Bias half the targets toward actual entry keys so the
				// match (not just the reject) path is exercised.
				if q%2 == 0 && len(ents) > 0 {
					e := ents[rng.Intn(len(ents))]
					target = e.Key
					for target.Len() < dims*64 {
						target = target.Append(rng.Intn(2))
					}
				}
				// Extends is the reverse test, key ⊊ entry key, for entries
				// above a level; keys past one word may only err to true.
				key := target.Prefix(rng.Intn(min(target.Len(), 80) + 1))
				lvl := rng.Intn(3)
				want := false
				for _, e := range ents {
					want = want || e.Level > lvl && key.IsProperPrefixOf(e.Key)
				}
				if got := c.Extends(key, lvl); got != want && !(got && key.Len() > 64) {
					t.Fatalf("dims=%d key %v level %d: Extends=%v, the entries say %v", dims, key, lvl, got, want)
				}
				tk := MakePointKey(target)
				for base := 0; base < len(ents); base += 64 {
					m := c.Match64(tk, base)
					hi := base + 64
					if hi > len(ents) {
						hi = len(ents)
					}
					for i := base; i < hi; i++ {
						want := ents[i].Key.IsPrefixOf(target)
						got := m&(1<<uint(i-base)) != 0
						if got != want {
							t.Fatalf("dims=%d entry %d (key %v, target %v): Match64=%v IsPrefixOf=%v",
								dims, i, ents[i].Key, target, got, want)
						}
					}
				}
			}
		}
	}
}

func TestColsIntersectWithinCoverAgainstBrickTests(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range []int{1, 2, 3} {
		for trial := 0; trial < 50; trial++ {
			n, ents := randNode(rng, dims, rng.Intn(130))
			c := n.Cols()
			for q := 0; q < 8; q++ {
				rect := randRect(rng, dims)
				switch {
				case q == 0:
					rect = geometry.UniverseRect(dims) // containment-heavy case
				case q < 4 && len(ents) > 0:
					// Cover-heavy cases: a random entry's brick itself, then
					// one of its corners as a point window, then the brick
					// grown by one on a side (must stop covering) — Cover64
					// is inclusive on both ends.
					rect = region.Brick(ents[rng.Intn(len(ents))].Key, dims)
					if q == 2 {
						rect.Min = rect.Max.Clone()
					}
					if d := rng.Intn(dims); q == 3 && rect.Max[d] != ^uint64(0) {
						rect.Max[d]++
					}
				}
				for base := 0; base < len(ents); base += 64 {
					m := c.Intersect64(rect, base)
					fm := c.Within64(rect, base, m)
					cm := c.Cover64(rect, base, m)
					hi := base + 64
					if hi > len(ents) {
						hi = len(ents)
					}
					for i := base; i < hi; i++ {
						bit := uint64(1) << uint(i-base)
						wantI := region.BrickIntersects(ents[i].Key, dims, rect)
						wantW := wantI && region.BrickWithin(ents[i].Key, dims, rect)
						if got := m&bit != 0; got != wantI {
							t.Fatalf("dims=%d entry %d: Intersect64=%v BrickIntersects=%v (key %v rect %v)",
								dims, i, got, wantI, ents[i].Key, rect)
						}
						if got := fm&bit != 0; got != wantW {
							t.Fatalf("dims=%d entry %d: Within64=%v BrickWithin=%v (key %v rect %v)",
								dims, i, got, wantW, ents[i].Key, rect)
						}
						wantC := region.Brick(ents[i].Key, dims).ContainsRect(rect)
						if got := cm&bit != 0; got != wantC {
							t.Fatalf("dims=%d entry %d: Cover64=%v, brick contains rect=%v (key %v rect %v)",
								dims, i, got, wantC, ents[i].Key, rect)
						}
					}
				}
			}
		}
	}
}

// TestColsEncodeByteIdentity: a node built by appends, decoded from its
// encoding, cloned, or grown by one more append must encode exactly as
// its entries do.
func TestColsEncodeByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const dims = 2
	for trial := 0; trial < 30; trial++ {
		n, ents := randNode(rng, dims, 1+rng.Intn(80))
		sameEntries(t, "append", n, ents)
		dec, err := DecodeIndexCols(EncodeIndex(n), dims)
		if err != nil {
			t.Fatal(err)
		}
		sameEntries(t, "decode", dec, ents)
		e := Entry{Key: randBits(rng, 100), Level: 0, Child: 7}
		dec.Append(e) // the decoded arenas are exactly sized: this one grows them
		ents = append(ents, e)
		sameEntries(t, "append to a decoded node", dec, ents)
		sameEntries(t, "clone", dec.Clone(), ents)
	}
}

// TestColsCloneIndependence: a clone's columns must not share storage
// with its source's, whatever is done to either.
func TestColsCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dims = 2
	n, ents := randNode(rng, dims, 20)
	cl := n.Clone()
	cl.RemoveAt(3)
	cl.Retain(func(i int) bool { return i%3 != 0 })
	cl.SetChild(0, 4242)
	for _, e := range randEntries(rng, dims, 40) {
		cl.Append(e)
	}
	sameEntries(t, "source after editing its clone", n, ents)
	n.SetChild(1, 99)
	n.RemoveAt(0)
	if cl.Cols().Child(0) != 4242 {
		t.Fatal("editing the source reached the clone")
	}
}

// TestColsEditInPlace drives random sequences of the edits the tree
// makes — append, remove, retain, rebind — on a node, from an empty one
// and from an exactly sized decoded one, and the same edits on a slice of
// entries: after every edit the node must hold exactly the slice.
func TestColsEditInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, dims := range []int{1, 2, 3} {
		for trial := 0; trial < 40; trial++ {
			n, ents := randNode(rng, dims, rng.Intn(20))
			if trial%2 == 1 {
				var err error
				if n, err = DecodeIndexCols(EncodeIndex(n), dims); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 60; step++ {
				switch op := rng.Intn(6); {
				case op < 3 || len(ents) == 0:
					e := randEntries(rng, dims, 1)[0]
					n.Append(e)
					ents = append(ents, e)
				case op == 3:
					i := rng.Intn(len(ents))
					n.RemoveAt(i)
					ents = append(ents[:i], ents[i+1:]...)
				case op == 4:
					keep := make([]bool, len(ents))
					kept := ents[:0:0]
					for i := range keep {
						if keep[i] = rng.Intn(4) != 0; keep[i] {
							kept = append(kept, ents[i])
						}
					}
					n.Retain(func(i int) bool { return keep[i] })
					ents = kept
				default:
					i, id := rng.Intn(len(ents)), ID(rng.Intn(1000)+1)
					n.SetChild(i, id)
					ents[i].Child = id
				}
				sameEntries(t, "edit", n, ents)
				if n.Len() != len(ents) {
					t.Fatalf("node holds %d entries, want %d", n.Len(), len(ents))
				}
			}
		}
	}
}

// randItems returns ni random items over dims dimensions, their values
// clustered so that equality hits happen.
func randItems(rng *rand.Rand, dims, ni int) []Item {
	items := make([]Item, ni)
	for i := range items {
		pt := make(geometry.Point, dims)
		for d := range pt {
			pt[d] = rng.Uint64() >> (rng.Intn(60))
		}
		items[i] = Item{Point: pt, Payload: uint64(i)}
	}
	return items
}

// pageOf builds a data page of a dims-dimensional tree, its rows
// allocated for capacity items, by inserting items; the page holds them
// as ordered(items) lists them.
func pageOf(reg region.BitString, dims, capacity int, items []Item) *DataPage {
	p := NewDataPage(reg, dims)
	p.Reserve(capacity)
	for _, it := range items {
		p.Insert(it.Point, it.Payload)
	}
	return p
}

// ordered returns items in the order a page holds them: a stable sort
// by first coordinate, so items of an equal one keep their order.
func ordered(items []Item) []Item {
	out := append([]Item(nil), items...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Point[0] < out[j].Point[0] })
	return out
}

// randDataPage builds a data page with ni random items over dims
// dimensions.
func randDataPage(rng *rand.Rand, dims, ni int) *DataPage {
	return pageOf(region.BitString{}, dims, 0, randItems(rng, dims, ni))
}

// encodeItems is the data page encoding built from items, the reference
// the rows must encode to: column-major, the coordinates of dimension 0
// of every item, then those of dimension 1, and so on, then the payloads.
func encodeItems(reg region.BitString, dims int, items []Item) []byte {
	w := newWriter(KindData, 0)
	w.u32(uint32(dims))
	w.bits(reg)
	w.u32(uint32(len(items)))
	for d := 0; d < dims; d++ {
		for _, it := range items {
			w.u64(it.Point[d])
		}
	}
	for _, it := range items {
		w.u64(it.Payload)
	}
	return w.finish()
}

// sameItems fails unless p holds exactly items and encodes as they do.
func sameItems(t *testing.T, what string, p *DataPage, items []Item) {
	t.Helper()
	dims := p.DCols().Dims()
	if !bytes.Equal(EncodeData(p, dims), encodeItems(p.Region, dims, items)) {
		t.Fatalf("%s: the rows encode differently from their %d items", what, len(items))
	}
	got := p.ReadItems()
	for i := range items {
		if !got[i].Point.Equal(items[i].Point) || got[i].Payload != items[i].Payload || !p.Item(i).Point.Equal(items[i].Point) {
			t.Fatalf("%s: item %d reads back as %v", what, i, got[i])
		}
	}
}

// TestDataColsMasksAgainstScalarTests pins PointAt to Point.Equal and
// ContainMask64 to Rect.Contains, item by item.
func TestDataColsMasksAgainstScalarTests(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dims := range []int{1, 2, 3} {
		for trial := 0; trial < 50; trial++ {
			items := randItems(rng, dims, rng.Intn(150))
			p := pageOf(region.BitString{}, dims, 0, items)
			items = ordered(items)
			c := p.DCols()
			for q := 0; q < 8; q++ {
				var probe geometry.Point
				if q%2 == 0 && len(items) > 0 {
					probe = items[rng.Intn(len(items))].Point
				} else {
					probe = make(geometry.Point, dims)
					for d := range probe {
						probe[d] = rng.Uint64() >> (rng.Intn(60))
					}
				}
				rect := randRect(rng, dims)
				for base := 0; base < len(items); base += 64 {
					cm := c.ContainMask64(rect, base, len(items))
					hi := min(base+64, len(items))
					for i := base; i < hi; i++ {
						bit := uint64(1) << uint(i-base)
						if got, want := c.PointAt(i, probe), items[i].Point.Equal(probe); got != want {
							t.Fatalf("dims=%d item %d: PointAt=%v Point.Equal=%v", dims, i, got, want)
						}
						if got, want := cm&bit != 0, rect.Contains(items[i].Point); got != want {
							t.Fatalf("dims=%d item %d: ContainMask64=%v Contains=%v", dims, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestDataColsEditInPlace drives random sequences of the edits the tree
// makes — insert, remove, a split's move to a second page — on pages laid
// out at capacity, at no capacity and exactly sized by a decode, and the
// same edits on slices of items kept in the pages' order: after every
// edit the pages must hold exactly the slices, and a clone taken on the
// way must not move.
func TestDataColsEditInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, dims := range []int{1, 2, 5} {
		for trial := 0; trial < 30; trial++ {
			items := randItems(rng, dims, rng.Intn(12))
			p := pageOf(region.BitString{}, dims, []int{0, 9, 33}[trial%3], items)
			items = ordered(items)
			if trial%2 == 1 {
				var err error
				if p, _, err = DecodeDataCols(EncodeData(p, dims), nil); err != nil {
					t.Fatal(err)
				}
				p.Reserve(rng.Intn(20))
			}
			var cl *DataPage
			var clItems []Item
			for step := 0; step < 60; step++ {
				switch op := rng.Intn(5); {
				case op < 3 || len(items) == 0:
					it := randItems(rng, dims, 1)[0]
					p.Insert(it.Point, it.Payload)
					items = ordered(append(items, it))
				case op == 3:
					i := rng.Intn(len(items))
					p.RemoveAt(i)
					items = append(items[:i], items[i+1:]...)
				default:
					// The items dst starts with have the least first
					// coordinate, so the moved ones, appended after them,
					// leave it in order.
					move := make([]bool, len(items))
					low := randItems(rng, dims, rng.Intn(3))
					for _, it := range low {
						it.Point[0] = 0
					}
					dst := pageOf(region.BitString{}, dims, rng.Intn(4), low)
					dstItems, kept := dst.ReadItems(), items[:0:0]
					for i := range move {
						if move[i] = rng.Intn(2) == 0; move[i] {
							dstItems = append(dstItems, items[i])
						} else {
							kept = append(kept, items[i])
						}
					}
					p.MoveTo(dst, func(i int) bool { return move[i] })
					items = kept
					sameItems(t, "split's new page", dst, dstItems)
				}
				sameItems(t, "edit", p, items)
				if step == 20 {
					cl, clItems = p.Clone(), append([]Item(nil), items...)
				}
			}
			sameItems(t, "clone", cl, clItems)
		}
	}
}

// TestDataPageKeepsOrder runs random programs of the tree's edits —
// Insert, RemoveAt, and a split's MoveTo to a fresh page — at dims 1 to
// 8, with coordinates from an alphabet of four values so that equal first
// coordinates and duplicate points are common, beside a reference slice
// kept by a stable sort on the first coordinate. After every edit each
// page must hold exactly its reference, and Run must give, for windows
// over the alphabet and past it, the rows a linear scan gives; pages
// whose items all share one point (a soft overflow of duplicates) are
// among them.
func TestDataPageKeepsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	alphabet := []uint64{0, 7, 8, math.MaxUint64}
	randPoint := func(dims int, same bool) geometry.Point {
		pt := make(geometry.Point, dims)
		for d := range pt {
			if !same {
				pt[d] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		return pt
	}
	checkRuns := func(what string, p *DataPage, items []Item) {
		t.Helper()
		sameItems(t, what, p, items)
		probes := append([]uint64{1, 9}, alphabet...)
		for _, lo := range probes {
			for _, hi := range probes {
				from, to := 0, 0
				for i, it := range items {
					if x := it.Point[0]; x < lo {
						from = i + 1
					} else if x <= hi {
						to = i + 1
					}
				}
				to = max(to, from)
				if gf, gt := p.DCols().Run(lo, hi); gf != from || gt != to {
					t.Fatalf("%s: %d items, Run(%d, %d) = [%d, %d), a linear scan gives [%d, %d)", what, len(items), lo, hi, gf, gt, from, to)
				}
			}
		}
	}
	for dims := 1; dims <= 8; dims++ {
		for trial := 0; trial < 12; trial++ {
			same := trial%4 == 3 // every item at the origin
			p := NewDataPage(region.BitString{}, dims)
			p.Reserve([]int{0, 5, 40}[trial%3])
			var items []Item
			for step := 0; step < 80; step++ {
				switch op := rng.Intn(8); {
				case op < 5 || len(items) == 0:
					it := Item{Point: randPoint(dims, same), Payload: uint64(step)}
					p.Insert(it.Point, it.Payload)
					items = ordered(append(items, it))
				case op < 7:
					i := rng.Intn(len(items))
					p.RemoveAt(i)
					items = append(items[:i], items[i+1:]...)
				default:
					move := make([]bool, len(items))
					var moved, kept []Item
					for i := range move {
						if move[i] = rng.Intn(2) == 0; move[i] {
							moved = append(moved, items[i])
						} else {
							kept = append(kept, items[i])
						}
					}
					dst := NewDataPage(region.BitString{}, dims)
					dst.Reserve(rng.Intn(3))
					p.MoveTo(dst, func(i int) bool { return move[i] })
					checkRuns("split's new page", dst, moved)
					items = kept
				}
				checkRuns("edit", p, items)
			}
		}
	}
}
