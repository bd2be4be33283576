package bvtree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bvtree/internal/geometry"
)

func randPoint(rng *rand.Rand, dims int) geometry.Point {
	p := make(geometry.Point, dims)
	for i := range p {
		p[i] = rng.Uint64()
	}
	return p
}

// clusteredPoint produces points concentrated in nested clusters, which
// drives deep partition prefixes and therefore enclosure and promotion.
func clusteredPoint(rng *rand.Rand, dims int) geometry.Point {
	p := make(geometry.Point, dims)
	// Pick a cluster scale: small spans force long shared prefixes.
	shift := uint(rng.Intn(56))
	base := rng.Uint64()
	for i := range p {
		off := rng.Uint64()
		if shift < 64 {
			off >>= (64 - shift)
		}
		p[i] = base + off
	}
	return p
}

func TestInsertLookupSmall(t *testing.T) {
	tr, err := New(Options{Dims: 2, DataCapacity: 4, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([]geometry.Point, 200)
	for i := range pts {
		pts[i] = randPoint(rng, 2)
		if err := tr.Insert(pts[i], uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		got, err := tr.Lookup(p)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		found := false
		for _, pl := range got {
			if pl == uint64(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("point %d (%v) not found; got payloads %v", i, p, got)
		}
	}
}

func TestInsertValidateConfigs(t *testing.T) {
	configs := []struct {
		dims, cap, fanout, n int
		scaled               bool
		gen                  func(*rand.Rand, int) geometry.Point
		name                 string
	}{
		{1, 8, 8, 2000, false, randPoint, "1d-uniform"},
		{2, 8, 8, 3000, false, randPoint, "2d-uniform"},
		{3, 16, 6, 3000, false, randPoint, "3d-uniform"},
		{2, 4, 4, 2000, false, clusteredPoint, "2d-clustered-tiny"},
		{2, 8, 8, 3000, true, clusteredPoint, "2d-clustered-scaled"},
		{4, 8, 5, 2500, false, clusteredPoint, "4d-clustered"},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			tr, err := New(Options{Dims: cfg.dims, DataCapacity: cfg.cap, Fanout: cfg.fanout, LevelScaledPages: cfg.scaled})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < cfg.n; i++ {
				if err := tr.Insert(cfg.gen(rng, cfg.dims), uint64(i)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
				if i%500 == 499 {
					if err := tr.Validate(false); err != nil {
						t.Fatalf("after %d inserts: %v", i+1, err)
					}
				}
			}
			if err := tr.Validate(true); err != nil {
				t.Fatal(err)
			}
			if tr.Len() != cfg.n {
				t.Fatalf("Len=%d want %d", tr.Len(), cfg.n)
			}
		})
	}
}

func TestRandomOpsAgainstModel(t *testing.T) {
	type rec struct {
		p  geometry.Point
		id uint64
	}
	for _, seed := range []int64{7, 99, 12345} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tr, err := New(Options{Dims: 2, DataCapacity: 6, Fanout: 5})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			var live []rec
			nextID := uint64(0)
			for op := 0; op < 4000; op++ {
				switch {
				case len(live) == 0 || rng.Float64() < 0.65:
					var p geometry.Point
					if rng.Float64() < 0.5 {
						p = clusteredPoint(rng, 2)
					} else {
						p = randPoint(rng, 2)
					}
					if err := tr.Insert(p, nextID); err != nil {
						t.Fatalf("op %d insert: %v", op, err)
					}
					live = append(live, rec{p: p, id: nextID})
					nextID++
				default:
					i := rng.Intn(len(live))
					ok, err := tr.Delete(live[i].p, live[i].id)
					if err != nil {
						t.Fatalf("op %d delete: %v", op, err)
					}
					if !ok {
						t.Fatalf("op %d: delete of live item %v/%d reported not found", op, live[i].p, live[i].id)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				if op%400 == 399 {
					if err := tr.Validate(true); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			if tr.Len() != len(live) {
				t.Fatalf("Len=%d want %d", tr.Len(), len(live))
			}
			if err := tr.Validate(true); err != nil {
				t.Fatal(err)
			}
			// Every live item findable.
			for _, r := range live {
				got, err := tr.Lookup(r.p)
				if err != nil {
					t.Fatal(err)
				}
				found := false
				for _, pl := range got {
					if pl == r.id {
						found = true
					}
				}
				if !found {
					t.Fatalf("live item %v/%d missing", r.p, r.id)
				}
			}
		})
	}
}

func TestRangeQueryAgainstBruteForce(t *testing.T) {
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var pts []geometry.Point
	for i := 0; i < 2500; i++ {
		p := clusteredPoint(rng, 2)
		pts = append(pts, p)
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 50; trial++ {
		a, b := randPoint(rng, 2), randPoint(rng, 2)
		min := geometry.Point{minu(a[0], b[0]), minu(a[1], b[1])}
		max := geometry.Point{maxu(a[0], b[0]), maxu(a[1], b[1])}
		rect, err := geometry.NewRect(min, max)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, p := range pts {
			if rect.Contains(p) {
				want++
			}
		}
		got, err := tr.Count(rect)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: range count %d, brute force %d", trial, got, want)
		}
	}
}

func minu(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func maxu(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// TestValidateFindsMisroutedItem: an item stored in a data page whose
// region encloses an inner data page's region, where the inner key also
// prefixes the item's address, breaks invariant 5 (the longest-prefix
// rule) while invariants 1 to 4 and 6 still hold, and Validate names the
// inner page.
func TestValidateFindsMisroutedItem(t *testing.T) {
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 500; i++ {
		if err := tr.Insert(randPoint(rng, 2), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var leaves []leafRef
	if err := tr.preorder(func(s *walkStep) error {
		if s.Level == 0 {
			leaves = append(leaves, leafRef{id: s.Child, key: s.Key})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, outer := range leaves {
		for _, inner := range leaves {
			if !outer.key.IsProperPrefixOf(inner.key) {
				continue
			}
			in, err := tr.fetchData(inner.id)
			if err != nil {
				t.Fatal(err)
			}
			p := in.Item(0).Point
			out, err := tr.wData(outer.id)
			if err != nil {
				t.Fatal(err)
			}
			out.Insert(p, 1000)
			if err := tr.paged.SaveData(outer.id, out); err != nil {
				t.Fatal(err)
			}
			tr.size++
			want := fmt.Sprintf("stored in page %d (region %v) but longest-prefix region is page %d", outer.id, outer.key, inner.id)
			if err := tr.Validate(false); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Validate of a tree holding %v in page %d = %v, want an error containing %q", p, outer.id, err, want)
			}
			return
		}
	}
	t.Fatal("no data page's region encloses another's")
}
