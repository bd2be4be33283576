package bvtree

import (
	"math/rand"
	"testing"
)

func TestMaintainAfterChurn(t *testing.T) {
	tr, err := New(Options{Dims: 2, DataCapacity: 6, Fanout: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(81))
	type rec struct {
		p  [2]uint64
		id uint64
	}
	var live []rec
	next := uint64(0)
	// Heavy mixed churn to strand guards.
	for op := 0; op < 12000; op++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			p := clusteredPoint(rng, 2)
			if err := tr.Insert(p, next); err != nil {
				t.Fatal(err)
			}
			live = append(live, rec{p: [2]uint64{p[0], p[1]}, id: next})
			next++
		} else {
			i := rng.Intn(len(live))
			ok, err := tr.Delete([]uint64{live[i].p[0], live[i].p[1]}, live[i].id)
			if err != nil || !ok {
				t.Fatalf("op %d: delete %v %v", op, ok, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	before, err := tr.CollectStats()
	if err != nil {
		t.Fatal(err)
	}
	demoted, err := tr.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	after, err := tr.CollectStats()
	if err != nil {
		t.Fatal(err)
	}
	if after.TotalGuards > before.TotalGuards {
		t.Fatalf("Maintain increased guards: %d -> %d", before.TotalGuards, after.TotalGuards)
	}
	if demoted > 0 && tr.Stats().Demotions == 0 {
		t.Fatal("demotions not counted")
	}
	// Absolute requirement: identical correctness afterwards.
	if err := tr.Validate(true); err != nil {
		t.Fatalf("after Maintain: %v", err)
	}
	for _, r := range live[:min(len(live), 500)] {
		got, err := tr.Lookup([]uint64{r.p[0], r.p[1]})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, v := range got {
			if v == r.id {
				found = true
			}
		}
		if !found {
			t.Fatalf("item %d lost by Maintain", r.id)
		}
	}
	// Idempotence: a second pass finds nothing (or at most a handful
	// unlocked by the first pass).
	again, err := tr.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	if again > demoted {
		t.Fatalf("second Maintain demoted more (%d) than first (%d)", again, demoted)
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
}

func TestMaintainEmptyAndTiny(t *testing.T) {
	tr, _ := New(Options{Dims: 2})
	if n, err := tr.Maintain(); err != nil || n != 0 {
		t.Fatalf("empty: %d %v", n, err)
	}
	_ = tr.Insert([]uint64{1, 2}, 1)
	if n, err := tr.Maintain(); err != nil || n != 0 {
		t.Fatalf("tiny: %d %v", n, err)
	}
}
