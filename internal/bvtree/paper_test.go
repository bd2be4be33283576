package bvtree

import (
	"math/rand"
	"strings"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/region"
)

// pointWithPrefix builds a 2-D point whose partition address starts with
// the given bit string; the remaining address bits encode the fill value,
// so distinct fills give distinct points inside the region.
func pointWithPrefix(t *testing.T, prefix string, fill uint64) geometry.Point {
	t.Helper()
	b, err := region.ParseBits(prefix)
	if err != nil {
		t.Fatal(err)
	}
	return pointWithBits(b, fill)
}

func pointWithBits(b region.BitString, fill uint64) geometry.Point {
	p := make(geometry.Point, 2)
	for i := 0; i < b.Len(); i++ {
		if b.Bit(i) == 1 {
			dim := i % 2
			depth := i / 2
			p[dim] |= 1 << uint(63-depth)
		}
	}
	// Scatter the fill bits well below any prefix we use in these tests.
	p[0] |= fill & 0xFFFF
	p[1] |= (fill >> 16) & 0xFFFF
	return p
}

// TestPaperFigure21 replays the construction sequence of Figures 2-1a–d:
// data-page splits produce enclosing region pairs (2-1b), an index-node
// overflow splits the directory and promotes the region that the boundary
// would cut — the wide region becomes the guard of the inner index region
// (2-1c) — and further growth carries guards upwards (2-1d), all while
// every exact-match search keeps the fixed root-to-leaf path length.
func TestPaperFigure21(t *testing.T) {
	tr, err := New(Options{Dims: 2, DataCapacity: 4, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	var pts []geometry.Point
	ins := func(prefix string, fills ...uint64) {
		for _, f := range fills {
			p := pointWithPrefix(t, prefix, f)
			pts = append(pts, p)
			if err := tr.Insert(p, uint64(len(pts))); err != nil {
				t.Fatalf("insert %v: %v", p, err)
			}
		}
	}

	// Figure 2-1a: points accumulate in the single data region.
	ins("00", 1, 2)
	ins("11", 3, 4)
	if tr.Height() != 0 {
		t.Fatalf("height %d before first overflow", tr.Height())
	}

	// Figure 2-1b: the first overflow splits the space into an outer
	// region a0 (the whole space) and an enclosed inner region d0.
	ins("00", 5)
	if tr.Height() != 1 {
		t.Fatalf("height %d after first split", tr.Height())
	}
	root, err := tr.st.Index(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	if len(root.ReadEntries()) != 2 {
		t.Fatalf("root has %d entries after 2-1b, want 2", len(root.ReadEntries()))
	}
	var outer0, inner0 page.Entry
	if root.ReadEntries()[0].Key.Len() < root.ReadEntries()[1].Key.Len() {
		outer0, inner0 = root.ReadEntries()[0], root.ReadEntries()[1]
	} else {
		outer0, inner0 = root.ReadEntries()[1], root.ReadEntries()[0]
	}
	if !outer0.Key.IsProperPrefixOf(inner0.Key) {
		t.Fatalf("split regions do not enclose: %v vs %v", outer0.Key, inner0.Key)
	}
	if outer0.Level != 0 || inner0.Level != 0 {
		t.Fatal("level-0 entries expected at index level 1")
	}

	// Figure 2-1c: create more data regions until the index node itself
	// overflows and splits; the region whose boundary the directory split
	// would cut must be promoted as a guard, not split.
	ins("0100", 6, 7, 8, 9, 10)
	ins("0111", 11, 12, 13, 14, 15)
	ins("1000", 16, 17, 18, 19, 20)
	ins("1011", 21, 22, 23, 24, 25)
	ins("0001", 26, 27, 28, 29, 30)
	ins("0010", 31, 32, 33, 34, 35)
	for tr.Height() < 2 {
		ins("1101", uint64(100+len(pts)))
		if len(pts) > 200 {
			t.Fatal("index split never happened")
		}
	}
	root, err = tr.st.Index(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	unpromoted, guards := 0, 0
	var innerIdx page.Entry
	for _, e := range root.ReadEntries() {
		if e.Level == root.Level-1 {
			unpromoted++
			if e.Key.Len() > 0 {
				innerIdx = e
			}
		} else {
			guards++
		}
	}
	if unpromoted != 2 {
		t.Fatalf("new root has %d unpromoted entries, want 2 (outer+inner)", unpromoted)
	}
	if guards == 0 {
		t.Fatal("figure 2-1c: the directory split must promote at least one guard")
	}
	for _, e := range root.ReadEntries() {
		if e.Level < root.Level-1 {
			// The guard's region must enclose the new inner index region —
			// that is exactly why it was promoted.
			if !e.Key.IsProperPrefixOf(innerIdx.Key) {
				t.Fatalf("guard %v does not enclose inner region %v", e.Key, innerIdx.Key)
			}
		}
	}

	// Every point must still be found, with the fixed path length.
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}

	// Figure 2-1d: grow a third level; guards reattach at the new root as
	// needed and the structure stays correct.
	for tr.Height() < 3 && len(pts) < 3000 {
		ins("010101", uint64(1000+len(pts)))
		ins("101010", uint64(2000+len(pts)))
	}
	if tr.Height() < 3 {
		t.Fatal("could not reach height 3")
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
}

// TestPaperFigure41 replays §4 / Figure 4-1: when a promoted (guard)
// region overflows, its split produces an outer region that keeps the
// guard position unchanged and an inner region that is placed by a single
// descent — staying promoted only if it still encloses a higher-level
// boundary, and demoted towards its natural level otherwise.
func TestPaperFigure41(t *testing.T) {
	tr, err := New(Options{Dims: 2, DataCapacity: 4, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(0)
	ins := func(prefix string, fills ...uint64) {
		for _, f := range fills {
			id++
			if err := tr.Insert(pointWithPrefix(t, prefix, f), id); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Build until some level-0 region is promoted to a node of index
	// level >= 2 (a guard d0): fill all four quadrants below a chain of
	// nesting levels, as in TestGuardMechanicsObserved.
	var prefixes []string
	for depth := 0; depth < 10; depth++ {
		base := strings.Repeat("01", depth)
		for _, quad := range []string{"00", "01", "10", "11"} {
			prefixes = append(prefixes, base+quad)
		}
	}
	var guardKey region.BitString
	var guardNode page.ID
	for round := 0; round < 4000 && guardNode == page.Nil; round++ {
		ins(prefixes[round%len(prefixes)], uint64(round*131))
		// Search for a level-0 guard.
		var find func(pid page.ID) error
		find = func(pid page.ID) error {
			n, err := tr.st.Index(pid)
			if err != nil {
				return err
			}
			for _, e := range n.ReadEntries() {
				if e.Level == 0 && n.Level >= 2 {
					guardKey, guardNode = e.Key, pid
					return nil
				}
				if e.Level >= 1 {
					if err := find(e.Child); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if tr.Height() >= 2 {
			if err := find(tr.root); err != nil {
				t.Fatal(err)
			}
		}
	}
	if guardNode == page.Nil {
		t.Fatal("never produced a level-0 guard")
	}

	// Overflow the guard's page: insert points inside the guard region
	// but outside its holes until it splits.
	demoBefore := tr.Stats().DataSplits
	rng := rand.New(rand.NewSource(77))
	seedPage, err := func() (*page.DataPage, error) {
		n, err := tr.st.Index(guardNode)
		if err != nil {
			return nil, err
		}
		for _, e := range n.ReadEntries() {
			if e.Level == 0 && e.Key.Equal(guardKey) {
				return tr.paged.Data(e.Child)
			}
		}
		return nil, nil
	}()
	if err != nil || seedPage == nil {
		t.Fatalf("guard page not found: %v", err)
	}
	seeds := make([]geometry.Point, len(seedPage.ReadItems()))
	for i, it := range seedPage.ReadItems() {
		seeds[i] = it.Point.Clone()
	}
	for try := 0; try < 50000 && tr.Stats().DataSplits == demoBefore; try++ {
		// Perturb an existing inhabitant of the guard page: the result is
		// in the guard's area (not a hole) with high probability.
		var p geometry.Point
		if len(seeds) > 0 {
			p = seeds[try%len(seeds)].Clone()
			p[0] += rng.Uint64() & 0xFF
			p[1] += rng.Uint64() & 0xFF
		} else {
			p = pointWithBits(guardKey, rng.Uint64())
		}
		key, err := tr.addr(p)
		if err != nil {
			t.Fatal(err)
		}
		if !guardKey.IsPrefixOf(key) {
			continue
		}
		d, err := tr.descendPoint(key)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := tr.paged.Data(d.dataID)
		if err != nil {
			t.Fatal(err)
		}
		if !dp.Region.Equal(guardKey) {
			continue // fell into a hole of the guard region; try another
		}
		if err := tr.Insert(p, 99990+uint64(try)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats().DataSplits == demoBefore {
		t.Skip("could not directly overflow the guard page with this construction")
	}

	// Figure 4-1's first assertion: the outer half keeps the guard's key
	// and position.
	n, err := tr.st.Index(guardNode)
	if err != nil {
		t.Fatal(err)
	}
	stillThere := false
	for _, e := range n.ReadEntries() {
		if e.Level == 0 && e.Key.Equal(guardKey) {
			stillThere = true
		}
	}
	if !stillThere {
		t.Fatal("outer half of the guard split lost its position")
	}
	// And the structure remains fully correct.
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
}

// TestGuardMechanicsObserved asserts that realistic nested workloads do
// exercise promotion, guards and demotion — i.e. the BV-tree machinery is
// actually in play in the other tests.
func TestGuardMechanicsObserved(t *testing.T) {
	tr, err := New(Options{Dims: 2, DataCapacity: 4, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2-1 style at several scales: fill all four quadrants below a
	// chain of nesting levels. The wide region at each level (the outer
	// remainder of its splits) encloses every quadrant boundary beneath
	// it, so a directory split separating the quadrants has no choice but
	// to promote it — there is no same-level shield in between.
	id := uint64(0)
	for depth := 0; depth < 6; depth++ {
		base := strings.Repeat("01", depth)
		for _, quad := range []string{"00", "01", "10", "11"} {
			for f := uint64(0); f < 12; f++ {
				id++
				if err := tr.Insert(pointWithPrefix(t, base+quad, f*257), id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	st := tr.Stats()
	if st.Promotions == 0 {
		t.Fatal("nested workload produced no promotions")
	}
	ts, err := tr.CollectStats()
	if err != nil {
		t.Fatal(err)
	}
	if ts.TotalGuards == 0 {
		t.Fatal("no guards present")
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
}
