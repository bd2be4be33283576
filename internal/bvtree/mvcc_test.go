package bvtree

// Differential proof of the MVCC snapshot contract. The TestSnapshot*
// name prefix is load-bearing — `make verify` runs this subset under the
// race detector on every tier-1 verify.
//
// The core test serialises writers against a shadow map only at their
// commit points (one mutex around tree-op + shadow-op), takes snapshots
// at arbitrary moments between commits, and then scans each snapshot
// concurrently with continued heavy writing: the scan must equal the
// shadow copied at the snapshot's commit point, exactly — and must equal
// it again after every writer has finished, proving the pinned view is
// both correct and frozen.

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// scanSet collects a tree-or-snapshot scan into payload -> point.
func scanSet(t *testing.T, scan func(Visitor) error) map[uint64]geometry.Point {
	t.Helper()
	got := map[uint64]geometry.Point{}
	if err := scan(func(p geometry.Point, payload uint64) bool {
		got[payload] = p.Clone()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func diffSets(want, got map[uint64]geometry.Point) error {
	if len(want) != len(got) {
		return fmt.Errorf("snapshot holds %d items, shadow says %d", len(got), len(want))
	}
	for payload, p := range want {
		q, ok := got[payload]
		if !ok {
			return fmt.Errorf("payload %d missing from snapshot", payload)
		}
		if !q.Equal(p) {
			return fmt.Errorf("payload %d at %v in snapshot, shadow says %v", payload, q, p)
		}
	}
	return nil
}

// snapshotDifferential is the harness: nWriters goroutines churn points
// through tr while snapshots taken mid-churn are scanned concurrently
// and compared against the shadow state captured at their commit point.
// It returns the final shadow: the items tr must hold.
func snapshotDifferential(t *testing.T, tr *Tree, pts []geometry.Point, nWriters int) map[uint64]geometry.Point {
	t.Helper()

	// shadowMu serialises commit points only: each writer holds it for
	// one tree op + the matching shadow update, and the snapshot taker
	// holds it across Snapshot() + shadow copy. Snapshot *scans* run
	// outside it, fully concurrent with ongoing writes.
	var shadowMu sync.Mutex
	shadow := map[uint64]geometry.Point{}
	// progress wakes the snapshot takers as the churn advances: committed
	// counts the writers' inserts, exited the writers that have returned.
	progress := sync.NewCond(&shadowMu)
	committed, exited := 0, 0

	base := pts[:len(pts)/4]
	churn := pts[len(pts)/4:]
	for i, p := range base {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		shadow[uint64(i)] = p
	}

	var (
		stop     atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			stop.Store(true)
		}
		errMu.Unlock()
	}

	var writers sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			defer func() {
				shadowMu.Lock()
				exited++
				progress.Broadcast()
				shadowMu.Unlock()
			}()
			for i := w; i < len(churn); i += nWriters {
				if stop.Load() {
					return
				}
				payload := uint64(len(base) + i)
				shadowMu.Lock()
				err := tr.Insert(churn[i], payload)
				if err == nil {
					shadow[payload] = churn[i]
					committed++
					progress.Broadcast()
				}
				shadowMu.Unlock()
				if err != nil {
					fail(fmt.Errorf("writer %d: insert: %w", w, err))
					return
				}
				if i%3 == 0 {
					shadowMu.Lock()
					ok, err := tr.Delete(churn[i], payload)
					if err == nil && ok {
						delete(shadow, payload)
					}
					shadowMu.Unlock()
					if err != nil || !ok {
						fail(fmt.Errorf("writer %d: delete: ok=%v err=%v", w, ok, err))
						return
					}
				}
			}
		}(w)
	}

	// Snapshot takers: pin, copy the shadow at the same commit point,
	// then verify the pinned view twice — once while writers are still
	// running, once after they have all finished — against that copy.
	type pinned struct {
		s    *Snapshot
		want map[uint64]geometry.Point
	}
	var taken []pinned
	var takers sync.WaitGroup
	for g := 0; g < 2; g++ {
		takers.Add(1)
		go func(g int) {
			defer takers.Done()
			for k := 0; k < 4; k++ {
				// The eight pins are spread over the churn, at 1/9 … 8/9 of
				// its inserts (or wherever the writers stopped).
				shadowMu.Lock()
				for committed < (2*k+g+1)*len(churn)/9 && exited < nWriters {
					progress.Wait()
				}
				s, err := tr.Snapshot()
				want := make(map[uint64]geometry.Point, len(shadow))
				for payload, p := range shadow {
					want[payload] = p
				}
				shadowMu.Unlock()
				if err != nil {
					fail(err)
					return
				}
				if got := s.Len(); got != len(want) {
					fail(fmt.Errorf("snapshot Len=%d, shadow has %d", got, len(want)))
					s.Release()
					return
				}
				got := map[uint64]geometry.Point{}
				if err := s.Scan(func(p geometry.Point, payload uint64) bool {
					got[payload] = p.Clone()
					return true
				}); err != nil {
					fail(err)
					s.Release()
					return
				}
				if err := diffSets(want, got); err != nil {
					fail(fmt.Errorf("mid-churn snapshot scan: %w", err))
					s.Release()
					return
				}
				// Spot-check the other read paths on the pinned view.
				if n, err := s.Count(UniverseRectFor(tr)); err != nil || n != len(want) {
					fail(fmt.Errorf("snapshot Count=%d err=%v, want %d", n, err, len(want)))
					s.Release()
					return
				}
				errMu.Lock()
				taken = append(taken, pinned{s: s, want: want})
				errMu.Unlock()
			}
		}(g)
	}

	writers.Wait()
	takers.Wait()
	stop.Store(true)
	if firstErr != nil {
		for _, pn := range taken {
			pn.s.Release()
		}
		t.Fatal(firstErr)
	}

	// Re-verify every snapshot after all writes have committed: the
	// pinned views must not have moved.
	for _, pn := range taken {
		got := scanSet(t, pn.s.Scan)
		if err := diffSets(pn.want, got); err != nil {
			t.Fatalf("post-churn snapshot re-scan: %v", err)
		}
		if err := pn.s.Validate(true); err != nil {
			t.Fatalf("snapshot validate: %v", err)
		}
		pn.s.Release()
	}

	// All pins drained: epoch reclamation must leave nothing behind.
	if err := tr.CheckSnapshots(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	got := scanSet(t, tr.Scan)
	if err := diffSets(shadow, got); err != nil {
		t.Fatalf("final live scan: %v", err)
	}
	return shadow
}

// UniverseRectFor returns the universe rectangle of tr's dimensionality.
func UniverseRectFor(tr *Tree) geometry.Rect { return geometry.UniverseRect(tr.Options().Dims) }

// TestSnapshotDifferentialMem proves the snapshot contract on the
// in-memory store with 4 concurrent writers.
func TestSnapshotDifferentialMem(t *testing.T) {
	pts, err := workload.Generate(workload.Clustered, 2, 4000, 31)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	snapshotDifferential(t, tr, pts, 4)
}

// TestSnapshotDifferentialPaged proves the snapshot contract over a
// paged tree whose decoded-node cache is sized small enough that
// snapshot reads continually miss it and hit the chain/recheck paths:
// over an on-disk FileStore with 48 nodes cached, and with 8 over a
// FileStore and a MemStore, where nearly every write ends in a
// write-back of dirty nodes while pinned readers resolve pages beside
// it. Each tree is then flushed and reopened, and must hold exactly the
// shadow's items.
func TestSnapshotDifferentialPaged(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 3000, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		file  bool
		cache int
	}{{"file-48", true, 48}, {"file-8", true, 8}, {"mem-8", false, 8}} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "snap.bv")
			var st storage.Store = storage.NewMemStore()
			if tc.file {
				if st, err = storage.OpenFileStore(path, storage.FileStoreOptions{SlotSize: 512}); err != nil {
					t.Fatal(err)
				}
			}
			tr, err := Open(st, nil, Options{Dims: 2, DataCapacity: 8, Fanout: 8, CacheNodes: tc.cache})
			if err != nil {
				t.Fatal(err)
			}
			shadow := snapshotDifferential(t, tr, pts, 4)
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			if tc.file {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if st, err = storage.OpenFileStore(path, storage.FileStoreOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			defer st.Close()
			re, err := Open(st, nil, Options{CacheNodes: tc.cache})
			if err != nil {
				t.Fatal(err)
			}
			if err := re.Validate(true); err != nil {
				t.Fatalf("reopened: %v", err)
			}
			if err := diffSets(shadow, scanSet(t, re.Scan)); err != nil {
				t.Fatalf("reopened scan: %v", err)
			}
		})
	}
}

// TestSnapshotSlowVisitorDoesNotBlockInsert is the lock-drop regression
// test: a range query whose visitor parks indefinitely must not hold the
// tree lock, so a concurrent Insert completes while the visitor sleeps.
func TestSnapshotSlowVisitorDoesNotBlockInsert(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 400, 34)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts[:len(pts)-1] {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	visiting := make(chan struct{})
	proceed := make(chan struct{})
	queryDone := make(chan error, 1)
	go func() {
		first := true
		queryDone <- tr.RangeQuery(UniverseRectFor(tr), func(geometry.Point, uint64) bool {
			if first {
				first = false
				close(visiting)
				<-proceed // park mid-scan, holding only the epoch pin
			}
			return true
		})
	}()
	<-visiting
	inserted := make(chan error, 1)
	go func() {
		inserted <- tr.Insert(pts[len(pts)-1], uint64(len(pts)-1))
	}()
	select {
	case err := <-inserted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Insert blocked behind a parked range-query visitor")
	}
	close(proceed)
	if err := <-queryDone; err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckSnapshots(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReclamation verifies the epoch reclamation ledger: while a
// snapshot is pinned, superseded versions and deferred frees accumulate;
// the moment the last pin drains they are all reclaimed, and the
// invariant checker certifies a zero balance.
func TestSnapshotReclamation(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 2000, 35)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts[:1000] {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantLen := s.Len()
	// Heavy churn under the pin: inserts split pages, deletes merge and
	// free them — both capture versions and defer frees.
	for i, p := range pts[1000:] {
		if err := tr.Insert(p, uint64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range pts[:500] {
		if ok, err := tr.Delete(p, uint64(i)); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	m := tr.Metrics()
	if m.MVCC == nil || m.MVCC.Captures == 0 {
		t.Fatalf("expected captured versions under an active pin, metrics=%+v", m.MVCC)
	}
	if got := s.Len(); got != wantLen {
		t.Fatalf("pinned Len moved: %d -> %d", wantLen, got)
	}
	if err := s.Validate(true); err != nil {
		t.Fatalf("pinned view validate after churn: %v", err)
	}
	s.Release()
	if err := tr.CheckSnapshots(); err != nil {
		t.Fatal(err)
	}
	m = tr.Metrics()
	if m.MVCC.Versions != 0 || m.MVCC.PinnedEpochs != 0 {
		t.Fatalf("retained versions after drain: %+v", m.MVCC)
	}
	if m.MVCC.FreesDeferred > 0 && m.MVCC.FreesReclaimed != m.MVCC.FreesDeferred {
		t.Fatalf("deferred frees not fully reclaimed: %+v", m.MVCC)
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotOfSnapshotFails pins the API contract: views cannot be
// re-snapshotted, and every mutating entry point of a view is refused
// before it touches a node — a view's write choke points would hand it
// the owner's live page, so a refusal that came only from the save would
// leave the owner's tree already changed.
func TestSnapshotOfSnapshotFails(t *testing.T) {
	opt := Options{Dims: 2, DataCapacity: 8, Fanout: 8}
	for _, backend := range []string{"mem", "paged"} {
		t.Run(backend, func(t *testing.T) {
			tr, err := New(opt)
			if backend == "paged" {
				tr, err = Open(storage.NewMemStore(), nil, opt)
			}
			if err != nil {
				t.Fatal(err)
			}
			kept, rejected := geometry.Point{1, 2}, geometry.Point{3, 4}
			if err := tr.Insert(kept, 7); err != nil {
				t.Fatal(err)
			}
			s, err := tr.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Release()
			if _, err := s.v.Snapshot(); err == nil {
				t.Fatal("snapshot of a snapshot view unexpectedly succeeded")
			}
			_, delErr := s.v.Delete(kept, 7)
			_, maintErr := s.v.Maintain()
			for what, err := range map[string]error{
				"Insert":     s.v.Insert(rejected, 8),
				"Delete":     delErr,
				"ApplyBatch": s.v.ApplyBatch([]BatchOp{{Point: rejected, Payload: 8}}),
				"BulkLoad":   s.v.BulkLoad([]geometry.Point{rejected}, []uint64{8}),
				"Maintain":   maintErr,
				"Flush":      s.v.Flush(),
			} {
				if !errors.Is(err, errSnapshotReadOnly) {
					t.Errorf("%s through a snapshot view: %v, want errSnapshotReadOnly", what, err)
				}
			}
			// The owner is exactly as it was.
			if got, err := tr.Lookup(rejected); err != nil || len(got) != 0 {
				t.Fatalf("owner holds the rejected insert: %v err=%v", got, err)
			}
			if got, err := tr.Lookup(kept); err != nil || len(got) != 1 || got[0] != 7 {
				t.Fatalf("owner lost the item a view tried to delete: %v err=%v", got, err)
			}
			if tr.Len() != 1 {
				t.Fatalf("owner Len() = %d after rejected view writes, want 1", tr.Len())
			}
			if err := tr.Validate(true); err != nil {
				t.Fatalf("owner invariants after rejected view writes: %v", err)
			}
			got, err := s.Lookup(kept)
			if err != nil || len(got) != 1 || got[0] != 7 {
				t.Fatalf("snapshot lookup: got %v err=%v", got, err)
			}
			if nbrs, err := s.Nearest(kept, 1); err != nil || len(nbrs) != 1 || nbrs[0].Dist != 0 {
				t.Fatalf("snapshot nearest: got %v err=%v", nbrs, err)
			}
			s.Release() // idempotent
		})
	}
}

// TestPinsReleaseOutOfOrder: three snapshots taken with writes between
// them — inserts that split pages and deletes that merge and free them —
// and released in each of the six orders: a release from the middle or
// the back of the pin list must keep the oldest pin's entries, and one
// from the front must drop exactly those no later pin needs. After each
// release the versions and graves the tree retains are
// exactly those a model keeps: an entry tagged with epoch e while some
// live pin p < e remains. Each snapshot reads its own state until it is
// released, and CheckSnapshots is clean once all are.
func TestPinsReleaseOutOfOrder(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 1600, 41)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		id    uint64
		epoch uint64
		grave bool
	}
	retained := func(tr *Tree) map[entry]bool {
		v := tr.mv
		v.mu.Lock()
		defer v.mu.Unlock()
		out := make(map[entry]bool)
		for id, versions := range v.chain {
			for _, pv := range versions {
				out[entry{id: uint64(id), epoch: pv.epoch}] = true
			}
		}
		for id, e := range v.grave {
			out[entry{id: uint64(id), epoch: e, grave: true}] = true
		}
		return out
	}
	for _, order := range [][3]int{{1, 2, 0}, {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {2, 0, 1}, {2, 1, 0}} {
		t.Run(fmt.Sprintf("release-%d-%d-%d", order[0], order[1], order[2]), func(t *testing.T) {
			tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pts[:1000] {
				if err := tr.Insert(p, uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			var snaps [3]*Snapshot
			var lens [3]int
			for k := range snaps {
				if snaps[k], err = tr.Snapshot(); err != nil {
					t.Fatal(err)
				}
				lens[k] = snaps[k].Len()
				for i := 1000 + 200*k; i < 1200+200*k; i++ {
					if err := tr.Insert(pts[i], uint64(i)); err != nil {
						t.Fatal(err)
					}
				}
				for i := 300 * k; i < 300*k+300; i++ {
					if ok, err := tr.Delete(pts[i], uint64(i)); err != nil || !ok {
						t.Fatalf("delete %d: %v, %v", i, ok, err)
					}
				}
			}
			all := retained(tr)
			for k, s := range snaps {
				tagged, graves := 0, 0
				for e := range all {
					if e.epoch == s.pin+1 {
						tagged++
						if e.grave {
							graves++
						}
					}
				}
				if tagged == 0 || graves == 0 {
					t.Fatalf("the writes after snapshot %d retained %d entries, %d of them graves: the model is not exercised", k, tagged, graves)
				}
			}
			live := map[int]bool{0: true, 1: true, 2: true}
			for _, k := range order {
				snaps[k].Release()
				delete(live, k)
				want := make(map[entry]bool)
				for e := range all {
					for j := range live {
						if snaps[j].pin < e.epoch {
							want[e] = true
						}
					}
				}
				got := retained(tr)
				for e := range want {
					if !got[e] {
						t.Fatalf("after releasing snapshot %d: %+v was reclaimed, but a live pin needs it", k, e)
					}
				}
				for e := range got {
					if !want[e] {
						t.Fatalf("after releasing snapshot %d: %+v is retained, but no live pin needs it", k, e)
					}
				}
				for j := range live {
					if got := snaps[j].Len(); got != lens[j] {
						t.Fatalf("snapshot %d: Len %d, pinned %d", j, got, lens[j])
					}
					if err := snaps[j].Validate(true); err != nil {
						t.Fatalf("snapshot %d after releasing %d: %v", j, k, err)
					}
				}
			}
			if err := tr.CheckSnapshots(); err != nil {
				t.Fatal(err)
			}
			if n := tr.mv.nOld.Load(); n != 0 {
				t.Fatalf("%d versions and graves left after the last release", n)
			}
		})
	}
}
