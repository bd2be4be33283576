package page

import (
	"bytes"
	"math/rand"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/region"
)

// The columnar mirror is derived state: every batched predicate must
// agree bit-for-bit with the per-entry scalar test it replaces, and no
// mirror operation may perturb the wire format. These tests check both
// properties on randomized nodes.

// randNode builds an index node with ne random entries over dims
// dimensions, key lengths spanning empty through multi-word tails.
func randNode(rng *rand.Rand, dims, ne int) *IndexNode {
	n := &IndexNode{Level: 3, Region: region.BitString{}}
	for i := 0; i < ne; i++ {
		kl := rng.Intn(dims*64 + 1)
		n.Entries = append(n.Entries, Entry{
			Key:   randBits(rng, kl),
			Level: rng.Intn(3),
			Child: ID(rng.Intn(1000) + 1),
		})
	}
	return n
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
			n := randNode(rng, dims, rng.Intn(130))
			n.SyncCols(dims)
			c := n.Cols()
			if c == nil {
				t.Fatal("mirror stale immediately after SyncCols")
			}
			if err := n.CheckCols(dims); err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 8; q++ {
				target := randBits(rng, dims*64)
				// Bias half the targets toward actual entry keys so the
				// match (not just the reject) path is exercised.
				if q%2 == 0 && len(n.Entries) > 0 {
					e := n.Entries[rng.Intn(len(n.Entries))]
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
				for _, e := range n.Entries {
					want = want || e.Level > lvl && key.IsProperPrefixOf(e.Key)
				}
				if got := c.Extends(key, lvl); got != want && !(got && key.Len() > 64) {
					t.Fatalf("dims=%d key %v level %d: Extends=%v, the entries say %v", dims, key, lvl, got, want)
				}
				tk := MakePointKey(target)
				for base := 0; base < len(n.Entries); base += 64 {
					m := c.Match64(tk, base)
					hi := base + 64
					if hi > len(n.Entries) {
						hi = len(n.Entries)
					}
					for i := base; i < hi; i++ {
						want := n.Entries[i].Key.IsPrefixOf(target)
						got := m&(1<<uint(i-base)) != 0
						if got != want {
							t.Fatalf("dims=%d entry %d (key %v, target %v): Match64=%v IsPrefixOf=%v",
								dims, i, n.Entries[i].Key, target, got, want)
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
			n := randNode(rng, dims, rng.Intn(130))
			n.SyncCols(dims)
			c := n.Cols()
			for q := 0; q < 8; q++ {
				rect := randRect(rng, dims)
				switch {
				case q == 0:
					rect = geometry.UniverseRect(dims) // containment-heavy case
				case q < 4 && len(n.Entries) > 0:
					// Cover-heavy cases: a random entry's brick itself, then
					// one of its corners as a point window, then the brick
					// grown by one on a side (must stop covering) — Cover64
					// is inclusive on both ends.
					rect = region.Brick(n.Entries[rng.Intn(len(n.Entries))].Key, dims)
					if q == 2 {
						rect.Min = rect.Max.Clone()
					}
					if d := rng.Intn(dims); q == 3 && rect.Max[d] != ^uint64(0) {
						rect.Max[d]++
					}
				}
				for base := 0; base < len(n.Entries); base += 64 {
					m := c.Intersect64(rect, base)
					fm := c.Within64(rect, base, m)
					cm := c.Cover64(rect, base, m)
					hi := base + 64
					if hi > len(n.Entries) {
						hi = len(n.Entries)
					}
					for i := base; i < hi; i++ {
						bit := uint64(1) << uint(i-base)
						wantI := region.BrickIntersects(n.Entries[i].Key, dims, rect)
						wantW := wantI && region.BrickWithin(n.Entries[i].Key, dims, rect)
						if got := m&bit != 0; got != wantI {
							t.Fatalf("dims=%d entry %d: Intersect64=%v BrickIntersects=%v (key %v rect %v)",
								dims, i, got, wantI, n.Entries[i].Key, rect)
						}
						if got := fm&bit != 0; got != wantW {
							t.Fatalf("dims=%d entry %d: Within64=%v BrickWithin=%v (key %v rect %v)",
								dims, i, got, wantW, n.Entries[i].Key, rect)
						}
						wantC := region.Brick(n.Entries[i].Key, dims).ContainsRect(rect)
						if got := cm&bit != 0; got != wantC {
							t.Fatalf("dims=%d entry %d: Cover64=%v, brick contains rect=%v (key %v rect %v)",
								dims, i, got, wantC, n.Entries[i].Key, rect)
						}
					}
				}
			}
		}
	}
}

// TestColsEncodeByteIdentity: building, rebuilding after an append and
// cloning the mirror must leave the encoded page byte-identical to a
// mirror-free node with the same entries.
func TestColsEncodeByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const dims = 2
	for trial := 0; trial < 30; trial++ {
		n := randNode(rng, dims, 1+rng.Intn(80))
		plain := EncodeIndex(n)
		n.SyncCols(dims)
		if got := EncodeIndex(n); !bytes.Equal(got, plain) {
			t.Fatal("SyncCols changed the encoding")
		}
		e := Entry{Key: randBits(rng, rng.Intn(100)), Level: 0, Child: 7}
		n.Entries = append(n.Entries, e)
		n.SyncCols(dims)
		ref := &IndexNode{Level: n.Level, Region: n.Region, Entries: append([]Entry(nil), n.Entries...)}
		if got := EncodeIndex(n); !bytes.Equal(got, EncodeIndex(ref)) {
			t.Fatal("append + SyncCols changed the encoding beyond the appended entry")
		}
		cl := n.Clone()
		if got := EncodeIndex(cl); !bytes.Equal(got, EncodeIndex(n)) {
			t.Fatal("Clone changed the encoding")
		}
	}
}

// TestColsCloneIndependence: a clone's mirror must not share mutable
// storage with its source.
func TestColsCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dims = 2
	n := randNode(rng, dims, 20)
	n.SyncCols(dims)
	cl := n.Clone()
	if cl.Cols() == nil {
		t.Fatal("clone did not carry a fresh mirror")
	}
	before := EncodeIndex(n)
	// Truncate the clone (stale) and rebuild: the rebuild rewrites the
	// clone's arenas in place — if they were shared with the source, its
	// columns would be corrupted.
	cl.Entries = cl.Entries[:10]
	cl.SyncCols(dims)
	if err := cl.CheckCols(dims); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckCols(dims); err != nil {
		t.Fatalf("source mirror corrupted by clone mutation: %v", err)
	}
	if got := EncodeIndex(n); !bytes.Equal(got, before) {
		t.Fatal("clone mutation leaked into source encoding")
	}
}

// TestColsStaleOnMutation: the freshness marker must catch the in-place
// mutations the tree performs (truncation, re-slicing, growth).
func TestColsStaleOnMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const dims = 2
	n := randNode(rng, dims, 12)
	n.SyncCols(dims)
	n.Entries = n.Entries[:8]
	if n.Cols() != nil {
		t.Fatal("mirror fresh after truncation")
	}
	n.SyncCols(dims)
	// The append insertIntoNode does: the truncation left spare capacity,
	// so the new entry lands in place and only the length gives it away.
	n.Entries = append(n.Entries, Entry{Key: randBits(rng, 9)})
	if n.Cols() != nil {
		t.Fatal("mirror fresh after an in-place append")
	}
	n.SyncCols(dims)
	if err := n.CheckCols(dims); err != nil {
		t.Fatal(err)
	}
	n.Entries = append(append([]Entry(nil), n.Entries[:8]...), n.Entries[8])
	if n.Cols() != nil {
		t.Fatal("mirror fresh after the backing array moved")
	}
}

// randDataPage builds a data page with ni random items over dims
// dimensions.
func randDataPage(rng *rand.Rand, dims, ni int) *DataPage {
	p := &DataPage{Region: region.BitString{}}
	for i := 0; i < ni; i++ {
		pt := make(geometry.Point, dims)
		for d := 0; d < dims; d++ {
			pt[d] = rng.Uint64() >> (rng.Intn(60)) // cluster values so equality hits happen
		}
		p.Items = append(p.Items, Item{Point: pt, Payload: uint64(i)})
	}
	return p
}

// TestDataColsMasksAgainstScalarTests pins EqualMask64 to Point.Equal
// and ContainMask64 to Rect.Contains, item by item.
func TestDataColsMasksAgainstScalarTests(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dims := range []int{1, 2, 3} {
		for trial := 0; trial < 50; trial++ {
			p := randDataPage(rng, dims, rng.Intn(150))
			p.SyncDataCols(dims)
			c := p.DCols()
			if c == nil {
				t.Fatal("mirror stale immediately after SyncDataCols")
			}
			if err := p.CheckDataCols(dims); err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 8; q++ {
				var probe geometry.Point
				if q%2 == 0 && len(p.Items) > 0 {
					probe = p.Items[rng.Intn(len(p.Items))].Point
				} else {
					probe = make(geometry.Point, dims)
					for d := range probe {
						probe[d] = rng.Uint64() >> (rng.Intn(60))
					}
				}
				rect := randRect(rng, dims)
				for base := 0; base < len(p.Items); base += 64 {
					em := c.EqualMask64(probe, base)
					cm := c.ContainMask64(rect, base)
					hi := base + 64
					if hi > len(p.Items) {
						hi = len(p.Items)
					}
					for i := base; i < hi; i++ {
						bit := uint64(1) << uint(i-base)
						if got, want := em&bit != 0, p.Items[i].Point.Equal(probe); got != want {
							t.Fatalf("dims=%d item %d: EqualMask64=%v Point.Equal=%v", dims, i, got, want)
						}
						if got, want := cm&bit != 0, rect.Contains(p.Items[i].Point); got != want {
							t.Fatalf("dims=%d item %d: ContainMask64=%v Contains=%v", dims, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestDataColsStaleness: the freshness marker must catch the item-slice
// mutations the tree performs between saves, SyncDataCols must restore
// freshness, and Clone must not carry the source's mirror.
func TestDataColsStaleness(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const dims = 2
	p := randDataPage(rng, dims, 12)
	p.SyncDataCols(dims)
	enc := EncodeData(p, dims)

	p.Items = append(p.Items[:5], p.Items[6:]...) // removal
	if p.DCols() != nil {
		t.Fatal("mirror fresh after item removal")
	}
	p.SyncDataCols(dims)
	if p.DCols() == nil || p.DCols().Len() != 11 {
		t.Fatal("rebuild did not restore a fresh mirror")
	}
	p.Items = append(p.Items, Item{Point: geometry.Point{1, 2}, Payload: 99}) // append
	if p.DCols() != nil {
		t.Fatal("mirror fresh after append")
	}
	p.SyncDataCols(dims)

	cl := p.Clone()
	if cl.DCols() != nil {
		t.Fatal("clone carried the source's mirror despite a moved item slice")
	}
	cl.SyncDataCols(dims)
	cl.Items[0].Payload = 7777
	if err := p.CheckDataCols(dims); err != nil {
		t.Fatalf("source mirror affected by clone mutation: %v", err)
	}

	// The mirror is derived state only: it must never leak into the wire
	// format (encoding reads Items alone).
	p2, _, err := DecodeData(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Items) != 12 {
		t.Fatalf("decoded %d items, want 12", len(p2.Items))
	}
}
