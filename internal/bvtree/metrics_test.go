package bvtree

import (
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bvtree/internal/geometry"
	"bvtree/internal/obs"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// TestMetricsSnapshot drives every instrumented operation on a tree with
// metrics enabled and checks that each histogram saw its operations and
// that the counter section agrees with Stats().
func TestMetricsSnapshot(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	tr.EnableMetrics()
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pts[:100] {
		if _, err := tr.Lookup(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Delete(pts[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.RangeQuery(geometry.UniverseRect(2), func(geometry.Point, uint64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Nearest(pts[1], 5); err != nil {
		t.Fatal(err)
	}
	batch := []BatchOp{{Point: pts[2], Payload: 99}, {Delete: true, Point: pts[2], Payload: 99}}
	if err := tr.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}

	s := tr.Metrics()
	if !s.Tree.MetricsEnabled {
		t.Fatal("MetricsEnabled = false on a Metrics:true tree")
	}
	if s.WAL != nil {
		t.Fatal("in-memory tree reported a WAL section")
	}
	// An in-memory tree's store is its MemStore, which only Flush writes:
	// the tree's root page and meta page at construction.
	if s.Store == nil || s.Store.NodeWrites != 2 {
		t.Fatalf("in-memory tree store section = %+v, want the 2 writes of its construction", s.Store)
	}
	checks := []struct {
		name string
		h    obs.HistogramSnapshot
		want uint64
	}{
		{"lookup", s.Tree.LookupNs, 100},
		{"insert", s.Tree.InsertNs, 2000},
		{"delete", s.Tree.DeleteNs, 1},
		{"range_query", s.Tree.RangeQueryNs, 1},
		{"nearest", s.Tree.NearestNs, 1},
		{"batch", s.Tree.BatchNs, 1},
		{"batch_size", s.Tree.BatchSize, 1},
	}
	for _, c := range checks {
		if c.h.Count != c.want {
			t.Errorf("%s histogram count = %d, want %d", c.name, c.h.Count, c.want)
		}
	}
	// Every insert, delete, lookup and batched op runs one descent.
	if s.Tree.DescentDepth.Count == 0 || s.Tree.GuardSet.Count == 0 {
		t.Fatalf("descent shape histograms empty: depth=%d guards=%d",
			s.Tree.DescentDepth.Count, s.Tree.GuardSet.Count)
	}
	if s.Tree.Counters != tr.Stats() {
		t.Fatalf("Metrics counters %+v disagree with Stats %+v — they must be the same counters",
			s.Tree.Counters, tr.Stats())
	}
	if s.Tree.Counters.DataSplits == 0 || s.Tree.Counters.NodeAccesses == 0 {
		t.Fatalf("structural counters not live: %+v", s.Tree.Counters)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
}

// TestMetricsDisabledByDefault checks the off state: histograms stay
// empty and report MetricsEnabled=false, while the structural counters
// (shared with Stats) are live regardless.
func TestMetricsDisabledByDefault(t *testing.T) {
	tr, err := New(Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(geometry.Point{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Lookup(geometry.Point{1, 2}); err != nil {
		t.Fatal(err)
	}
	s := tr.Metrics()
	if s.Tree.MetricsEnabled {
		t.Fatal("MetricsEnabled = true without opt-in")
	}
	if s.Tree.LookupNs.Count != 0 || s.Tree.InsertNs.Count != 0 {
		t.Fatal("histograms recorded while disabled")
	}
	if s.Tree.Counters.NodeAccesses == 0 {
		t.Fatal("structural counters must be on even with metrics disabled")
	}
	tr.EnableMetrics()
	if _, err := tr.Lookup(geometry.Point{1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Metrics().Tree.LookupNs.Count; got != 1 {
		t.Fatalf("lookup count after EnableMetrics = %d, want 1", got)
	}
}

// TestDurableMetrics exercises the full stack: a durable tree over a
// file store with EnableMetrics must report all three sections —
// tree histograms, WAL write-path histograms, and page-store counters.
func TestDurableMetrics(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenFileStore(filepath.Join(dir, "tree.db"), storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d, err := openLogged(st, filepath.Join(dir, "tree.wal"), Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	d.EnableMetrics()
	pts, err := workload.Generate(workload.Uniform, 2, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := d.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	s := d.Metrics()
	if !s.Tree.MetricsEnabled || s.Tree.InsertNs.Count != 500 {
		t.Fatalf("tree section: enabled=%v inserts=%d, want true/500",
			s.Tree.MetricsEnabled, s.Tree.InsertNs.Count)
	}
	if s.WAL == nil {
		t.Fatal("durable tree reported no WAL section")
	}
	if s.WAL.AppendNs.Count == 0 || s.WAL.FsyncNs.Count == 0 {
		t.Fatalf("WAL histograms empty: appends=%d fsyncs=%d",
			s.WAL.AppendNs.Count, s.WAL.FsyncNs.Count)
	}
	if s.WAL.GroupWaitNs.Count != 500 {
		t.Fatalf("group waits = %d, want 500 (one per committed insert)", s.WAL.GroupWaitNs.Count)
	}
	if s.WAL.Checkpoints != 1 || s.WAL.CheckpointNs.Count != 1 || s.WAL.CheckpointBytes == 0 {
		t.Fatalf("checkpoint metrics: n=%d dur-count=%d bytes=%d",
			s.WAL.Checkpoints, s.WAL.CheckpointNs.Count, s.WAL.CheckpointBytes)
	}
	if s.Store == nil {
		t.Fatal("paged tree reported no store section")
	}
	if s.Store.Allocs == 0 || s.Store.NodeWrites == 0 || s.Store.SlotWrites == 0 {
		t.Fatalf("store section not live: %+v", *s.Store)
	}
	raw, err := json.Marshal(s.Store)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"allocs", "frees", "node_reads", "node_writes", "slot_reads", "slot_writes", "free_slots"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("store section lacks %q", k)
		}
		delete(keys, k)
	}
	if len(keys) != 0 {
		t.Errorf("store section has unexpected keys %v", keys)
	}
}

// TestConcurrentMetrics hammers a tree from parallel readers and a writer
// while snapshots are taken — the -race smoke for the whole
// instrumentation path (it runs in `make verify`'s race subset). The tree
// starts with metrics off; EnableMetrics mid-flight exercises the lock
// discipline around the metrics field, and the histograms then count
// exactly the inserts made after it, compared with the off phase, where
// they count none.
func TestConcurrentMetrics(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 3000, 13)
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
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := tr.Lookup(pts[(r*777+i)%1000]); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() { // snapshotter
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = tr.Metrics()
				_ = tr.Stats()
			}
		}
	}()
	for i, p := range pts[1000:2000] {
		if err := tr.Insert(p, uint64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if off := tr.Metrics().Tree; off.MetricsEnabled || off.InsertNs.Count != 0 {
		t.Fatalf("metrics off: enabled=%v, insert histogram count = %d, want 0", off.MetricsEnabled, off.InsertNs.Count)
	}
	tr.EnableMetrics()
	for i, p := range pts[2000:] {
		if err := tr.Insert(p, uint64(2000+i)); err != nil {
			t.Fatal(err)
		}
	}
	// On a busy host the readers may not have run since EnableMetrics
	// while the inserts did: give them up to five seconds to record one.
	for deadline := time.Now().Add(5 * time.Second); tr.Metrics().Tree.LookupNs.Count == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	s := tr.Metrics()
	if s.Tree.InsertNs.Count != 1000 {
		t.Fatalf("insert histogram count = %d, want 1000 (the inserts after EnableMetrics)", s.Tree.InsertNs.Count)
	}
	if s.Tree.LookupNs.Count == 0 {
		t.Fatal("lookup histogram empty after EnableMetrics beside running readers")
	}
}
