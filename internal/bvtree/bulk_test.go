package bvtree

import (
	"math/rand"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/storage"
)

func TestBulkLoadEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := make([]geometry.Point, 5000)
	ids := make([]uint64, len(pts))
	for i := range pts {
		pts[i] = clusteredPoint(rng, 2)
		ids[i] = uint64(i)
	}
	opt := Options{Dims: 2, DataCapacity: 8, Fanout: 8}

	bulk, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BulkLoad(pts, ids); err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != len(pts) {
		t.Fatalf("Len=%d", bulk.Len())
	}
	if err := bulk.Validate(true); err != nil {
		t.Fatal(err)
	}
	for i := range pts[:500] {
		got, err := bulk.Lookup(pts[i])
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, v := range got {
			if v == ids[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("bulk-loaded point %d missing", i)
		}
	}
	if err := bulk.BulkLoad(pts[:3], ids[:2]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestBulkLoadImprovesPagedLocality loads a paged tree whose decoded
// cache is far smaller than the load. One BulkLoad is one write, so the
// cache is trimmed once, at its end: the load reads nothing back from the
// store, where the same points inserted one call at a time read nodes
// back after every trim.
func TestBulkLoadImprovesPagedLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := make([]geometry.Point, 8000)
	ids := make([]uint64, len(pts))
	for i := range pts {
		pts[i] = randPoint(rng, 2)
		ids[i] = uint64(i)
	}
	opt := Options{Dims: 2, DataCapacity: 16, Fanout: 16, CacheNodes: 32}

	missRate := func(bulk bool) float64 {
		st := storage.NewMemStore()
		tr, err := Open(st, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		if bulk {
			if err := tr.BulkLoad(pts, ids); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := range pts {
				if err := tr.Insert(pts[i], ids[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		s := st.Stats()
		return float64(s.NodeReads) / float64(len(pts))
	}

	random := missRate(false)
	bulk := missRate(true)
	// Loading must not read more store nodes than one-by-one inserting;
	// with a small decoded cache it should read strictly fewer.
	if bulk > random {
		t.Fatalf("bulk load reads more store nodes per insert (%.2f) than random order (%.2f)", bulk, random)
	}
}
