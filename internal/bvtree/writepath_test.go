package bvtree

// Tests of the one write path: every item enters a data page through put
// (insert.go), whatever the tree's height and whichever of Insert,
// ApplyBatch or a merge's refill put it there.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"bvtree/internal/fault"
	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// oracleItem mirrors one stored item in the linear-scan oracle.
type oracleItem struct {
	p       geometry.Point
	payload uint64
}

func oracleDelete(items []oracleItem, p geometry.Point, payload uint64) ([]oracleItem, bool) {
	for i, it := range items {
		if it.payload == payload && it.p.Equal(p) {
			return append(items[:i], items[i+1:]...), true
		}
	}
	return items, false
}

// oracleKeys lists the oracle's items in the form and order of collect.
func oracleKeys(items []oracleItem) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = fmt.Sprintf("%v/%d", it.p, it.payload)
	}
	sort.Strings(out)
	return out
}

// checkAgainstOracle is the per-step check of the write-path table: the
// structure validates, Len agrees, and a full scan returns exactly the
// oracle's multiset.
func checkAgainstOracle(t *testing.T, tr *Tree, oracle []oracleItem, step string) {
	t.Helper()
	if err := tr.Validate(true); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if tr.Len() != len(oracle) {
		t.Fatalf("%s: Len=%d, oracle holds %d", step, tr.Len(), len(oracle))
	}
	got, want := collect(t, tr.Scan), oracleKeys(oracle)
	if len(got) != len(want) {
		t.Fatalf("%s: scan returns %d items, oracle holds %d", step, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: scan and oracle differ at %d: %s vs %s", step, i, got[i], want[i])
		}
	}
}

// TestWritePathAtEveryHeight drives each way of changing a tree from each
// shape the root can have. The rows that start on an empty tree or on a
// root that is still a data page are the ones four rootLevel == 0 branches
// used to serve; they now take the same descent as the tall tree.
func TestWritePathAtEveryHeight(t *testing.T) {
	opt := Options{Dims: 2, DataCapacity: 4, Fanout: 4}
	starts := []struct {
		name      string
		n         int
		minHeight int
	}{
		{"empty", 0, 0},
		{"root-is-data", 3, 0},
		{"tall", 160, 2},
	}
	backends := []struct {
		name string
		mk   func() (*Tree, error)
	}{
		{"mem", func() (*Tree, error) { return New(opt) }},
		{"paged", func() (*Tree, error) { return Open(storage.NewMemStore(), nil, opt) }},
	}
	type state struct {
		t      *testing.T
		tr     *Tree
		rng    *rand.Rand
		oracle []oracleItem
		next   uint64
	}
	insert := func(s *state, step string) {
		p := clusteredPoint(s.rng, 2)
		if err := s.tr.Insert(p, s.next); err != nil {
			s.t.Fatalf("%s: %v", step, err)
		}
		s.oracle = append(s.oracle, oracleItem{p, s.next})
		s.next++
		checkAgainstOracle(s.t, s.tr, s.oracle, step)
	}
	// remove deletes a random stored item, or — on an empty tree, and now
	// and then — one that is not there.
	remove := func(s *state, step string) {
		victim := oracleItem{clusteredPoint(s.rng, 2), 1 << 40}
		if len(s.oracle) > 0 && s.rng.Intn(8) != 0 {
			victim = s.oracle[s.rng.Intn(len(s.oracle))]
		}
		var want bool
		s.oracle, want = oracleDelete(s.oracle, victim.p, victim.payload)
		got, err := s.tr.Delete(victim.p, victim.payload)
		if err != nil || got != want {
			s.t.Fatalf("%s: Delete = (%v, %v), want %v", step, got, err, want)
		}
		checkAgainstOracle(s.t, s.tr, s.oracle, step)
	}
	drives := []struct {
		name string
		run  func(*state)
	}{
		{"insert", func(s *state) {
			for i := 0; i < 60; i++ {
				insert(s, fmt.Sprintf("insert %d", i))
			}
		}},
		{"delete", func(s *state) {
			for i := 0; i < 40; i++ {
				remove(s, fmt.Sprintf("delete %d", i))
			}
		}},
		{"delete-until-merge", func(s *state) {
			for i := 0; len(s.oracle) > 0; i++ {
				remove(s, fmt.Sprintf("delete %d", i))
			}
			// Only the tall start has pages to merge; a root page has no
			// neighbour.
			if merges := s.tr.Stats().Merges; (merges > 0) != (s.next > 100) {
				s.t.Fatalf("%d merges while emptying a tree of %d items", merges, s.next)
			}
		}},
	}
	for _, be := range backends {
		for _, st := range starts {
			for _, dr := range drives {
				t.Run(be.name+"/"+st.name+"/"+dr.name, func(t *testing.T) {
					tr, err := be.mk()
					if err != nil {
						t.Fatal(err)
					}
					s := &state{t: t, tr: tr, rng: rand.New(rand.NewSource(int64(7 + st.n)))}
					for i := 0; i < st.n; i++ {
						p := clusteredPoint(s.rng, 2)
						if err := tr.Insert(p, s.next); err != nil {
							t.Fatal(err)
						}
						s.oracle = append(s.oracle, oracleItem{p, s.next})
						s.next++
					}
					if h := tr.Height(); h < st.minHeight || (st.minHeight == 0 && h != 0) {
						t.Fatalf("start %s has height %d", st.name, h)
					}
					checkAgainstOracle(t, tr, s.oracle, "start")
					dr.run(s)
				})
			}
		}
	}
}

// TestMergeRefillOverflows pins the refill: items a merge re-homes go
// through put marked moved, so Len does not move and a page they overflow
// is split again and counted as a Resplit.
func TestMergeRefillOverflows(t *testing.T) {
	tr, err := New(Options{Dims: 2, DataCapacity: 4, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(workload.Clustered, 2, 3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	order := rand.New(rand.NewSource(12)).Perm(len(pts))
	deleted := 0
	for _, i := range order {
		if s := tr.Stats(); s.Merges > 0 && s.Resplits > 0 {
			break
		}
		if ok, err := tr.Delete(pts[i], uint64(i)); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
		deleted++
	}
	s := tr.Stats()
	if s.Merges == 0 || s.Resplits == 0 {
		t.Fatalf("after %d deletes: %d merges, %d resplits; the refill never overflowed a page", deleted, s.Merges, s.Resplits)
	}
	if tr.Len() != len(pts)-deleted {
		t.Fatalf("Len=%d after %d of %d items were deleted", tr.Len(), deleted, len(pts))
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
}

// buildTwice runs build on two fresh trees and requires them to be the
// same tree: the same Dump and, when paged, the same bytes in every page.
func buildTwice(t *testing.T, paged bool, opt Options, build func(*Tree) error) {
	t.Helper()
	var dumps [2]string
	var stores [2]*storage.MemStore
	for i := range dumps {
		var tr *Tree
		var err error
		if paged {
			stores[i] = storage.NewMemStore()
			tr, err = Open(stores[i], nil, opt)
		} else {
			tr, err = New(opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := build(tr); err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if dumps[i], err = tr.Dump(); err != nil {
			t.Fatal(err)
		}
		if s := tr.Stats(); i == 0 && s.IndexSplits < 200 {
			t.Fatalf("only %d index splits: too few for the split chooser's ties to show", s.IndexSplits)
		}
	}
	if dumps[0] != dumps[1] {
		t.Fatalf("the same program built two different trees (dumps of %d and %d bytes differ)", len(dumps[0]), len(dumps[1]))
	}
	if !paged {
		return
	}
	allocs := stores[0].Stats().Allocs
	if other := stores[1].Stats().Allocs; other != allocs {
		t.Fatalf("%d pages allocated against %d", allocs, other)
	}
	for id := page.ID(0); id <= page.ID(allocs)+1; id++ {
		a, errA := stores[0].ReadNode(id)
		b, errB := stores[1].ReadNode(id)
		if (errA == nil) != (errB == nil) || !bytes.Equal(a, b) {
			t.Fatalf("page %d differs between the two builds", id)
		}
	}
}

// TestBuildIsDeterministic pins that a tree is a function of the program
// that built it. chooseIndexSplit used to range over a map of candidate
// prefixes with an order that left ties, so the same inserts split index
// nodes differently from run to run — and with them every batch and
// BulkLoad, which are the same inserts.
func TestBuildIsDeterministic(t *testing.T) {
	opt := Options{Dims: 2, DataCapacity: 4, Fanout: 4}
	pts, err := workload.Generate(workload.Clustered, 2, 6000, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = uint64(i)
	}
	builds := []struct {
		name  string
		build func(*Tree) error
	}{
		{"Insert", func(tr *Tree) error {
			for i, p := range pts {
				if err := tr.Insert(p, ids[i]); err != nil {
					return err
				}
			}
			return nil
		}},
		{"ApplyBatch", func(tr *Tree) error {
			ops := make([]BatchOp, 0, 256)
			for i, p := range pts {
				ops = append(ops, BatchOp{Point: p, Payload: ids[i]})
				// Every fifth point leaves again in the batch after its own.
				if i >= 256 && i%5 == 0 {
					ops = append(ops, BatchOp{Delete: true, Point: pts[i-256], Payload: ids[i-256]})
				}
				if len(ops) >= 256 || i == len(pts)-1 {
					if err := tr.ApplyBatch(ops); err != nil {
						return err
					}
					ops = ops[:0]
				}
			}
			return nil
		}},
		{"BulkLoad", func(tr *Tree) error { return tr.BulkLoad(pts, ids) }},
	}
	for _, paged := range []bool{false, true} {
		for _, b := range builds {
			name := "mem/" + b.name
			if paged {
				name = "paged/" + b.name
			}
			t.Run(name, func(t *testing.T) { buildTwice(t, paged, opt, b.build) })
		}
	}
}

// TestDeleteReportsRemovalDespiteError sweeps a store failure over every
// store operation of a delete-until-merge and pins what Delete's bool means
// beside an error: whether the item left the tree, which is whether Len
// dropped. A fault inside the merge or the root contraction that follows a
// removal used to come back as (false, err) — "not found" about an item
// that was gone. A save only reaches the store through write-back, so the
// sweep runs twice: with the default cache, where the deletes' store
// operations are frees alone, and with 8 nodes cached, where the
// write-back that ends nearly every delete is swept too.
func TestDeleteReportsRemovalDespiteError(t *testing.T) {
	// Eviction is deterministic, so each arm sweeps the same faults on
	// every run.
	for _, arm := range []struct{ cache, faults int }{{0, 45}, {8, 844}} {
		t.Run(fmt.Sprintf("cache-%d", arm.cache), func(t *testing.T) { deleteFaultSweep(t, arm.cache, arm.faults) })
	}
}

func deleteFaultSweep(t *testing.T, cache, faults int) {
	opt := Options{Dims: 2, DataCapacity: 4, Fanout: 4, CacheNodes: cache}
	pts, err := workload.Generate(workload.Clustered, 2, 160, 9)
	if err != nil {
		t.Fatal(err)
	}
	order := rand.New(rand.NewSource(10)).Perm(len(pts))
	build := func() (*Tree, *fault.Store) {
		fst := fault.NewStore(storage.NewMemStore(), 0)
		tr, err := Open(fst, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if err := tr.Insert(p, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tr, fst
	}
	// drain deletes every item and returns the first failing Delete's
	// answer, the number of items that left Len during that call, and
	// whether the call had got as far as dissolving a page.
	drain := func(tr *Tree) (removed bool, dropped int, merging bool, err error) {
		for _, i := range order {
			size, merges := tr.Len(), tr.Stats().Merges
			removed, err = tr.Delete(pts[i], uint64(i))
			if err != nil {
				return removed, size - tr.Len(), tr.Stats().Merges > merges, err
			}
			if !removed {
				t.Fatalf("delete %d: not found", i)
			}
		}
		return false, 0, false, nil
	}
	// The k-th store operation of the drain fails, for every k until a
	// drain runs out of operations first.
	inMerge, inWrite, k := 0, 0, 1
	for ; ; k++ {
		tr, fst := build()
		fst.Arm(k)
		removed, dropped, merging, err := drain(tr)
		if !fst.Tripped() {
			if tr.Stats().Merges == 0 {
				t.Fatal("emptying the tree merged no page")
			}
			break
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("k=%d: drain = %v, want the injected failure", k, err)
		}
		if dropped != 0 && dropped != 1 || removed != (dropped == 1) {
			t.Fatalf("k=%d: Delete = (%v, %v) while Len dropped by %d", k, removed, err, dropped)
		}
		if merging {
			inMerge++
		}
		if strings.Contains(err.Error(), "storage write") {
			inWrite++
		}
	}
	if inMerge == 0 {
		t.Fatalf("none of %d faults landed inside a merge's refill", k-1)
	}
	if cache != 0 && inWrite == 0 {
		t.Fatalf("none of %d faults landed in a write-back", k-1)
	}
	if k-1 != faults {
		t.Fatalf("swept %d faults, want %d", k-1, faults)
	}
	t.Logf("swept %d faults: %d inside a merge, %d in a write-back", k-1, inMerge, inWrite)
}
