// Benchmarks: one per table/figure of the paper (wrapping the experiment
// registry in internal/bench, so `go test -bench .` regenerates every
// artifact) plus per-operation micro-benchmarks of the BV-tree itself.
package bvtree_test

import (
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"bvtree"
	"bvtree/internal/bench"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// benchExperiment runs a registered experiment once per iteration with
// output discarded; run cmd/bvbench to see the tables.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(id, io.Discard, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact (see DESIGN.md's experiment index).

func BenchmarkFig12KDBCascade(b *testing.B) { benchExperiment(b, "fig1-2") }
func BenchmarkFig13Spanning(b *testing.B)   { benchExperiment(b, "fig1-3") }
func BenchmarkEq19Model(b *testing.B)       { benchExperiment(b, "eq") }
func BenchmarkFig71(b *testing.B)           { benchExperiment(b, "fig7-1") }
func BenchmarkFig72(b *testing.B)           { benchExperiment(b, "fig7-2") }
func BenchmarkEq1018(b *testing.B)          { benchExperiment(b, "eq73") }
func BenchmarkTab73Capacity(b *testing.B)   { benchExperiment(b, "tab7-3") }
func BenchmarkEmpOccupancy(b *testing.B)    { benchExperiment(b, "emp-occ") }
func BenchmarkEmpSearchPath(b *testing.B)   { benchExperiment(b, "emp-path") }
func BenchmarkEmp1D(b *testing.B)           { benchExperiment(b, "emp-1d") }
func BenchmarkCmpInsert(b *testing.B)       { benchExperiment(b, "cmp-insert") }
func BenchmarkCmpQuery(b *testing.B)        { benchExperiment(b, "cmp-query") }
func BenchmarkAblPageSize(b *testing.B)     { benchExperiment(b, "abl-pagesize") }
func BenchmarkExtSpatial(b *testing.B)      { benchExperiment(b, "ext-spatial") }
func BenchmarkCmpSplitPolicy(b *testing.B)  { benchExperiment(b, "cmp-split-policy") }

// --- per-operation micro-benchmarks ---

func buildTree(b *testing.B, kind workload.Kind, n int) (*bvtree.Tree, []bvtree.Point) {
	b.Helper()
	pts, err := workload.Generate(kind, 2, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := bvtree.New(bvtree.Options{Dims: 2, DataCapacity: 32, Fanout: 24})
	if err != nil {
		b.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	return tr, pts
}

// BenchmarkInsertUniform, BenchmarkInsertNested and BenchmarkDelete
// price the in-memory write path in the steady state of steadyTree and
// steadyOps: an op is one Insert and one Delete on a tree held at
// steadyN points of their point set.
func BenchmarkInsertUniform(b *testing.B) { benchSteadyWrites(b, workload.Uniform) }
func BenchmarkInsertNested(b *testing.B)  { benchSteadyWrites(b, workload.Nested) }
func BenchmarkDelete(b *testing.B)        { benchSteadyWrites(b, workload.Clustered) }

// steadyChunk is how many ops benchSteadyWrites times on one tree. What
// an op costs drifts along the op sequence (on nested points an op
// makes 8 node accesses at first and 10 after 20k ops), so the benchmark
// rebuilds the tree with the timer stopped every steadyChunk ops: each
// chunk runs the same ops on the same tree, and ns/op is the same at
// any b.N that is a multiple of it.
const steadyChunk = 2000

// benchSteadyWrites times steady-state ops on an in-memory tree of
// kind's points, each chunk on a tree warmed by steadyN ops first, so
// that no chunk times the split burst that follows a preload, and on a
// heap just collected.
func benchSteadyWrites(b *testing.B, kind workload.Kind) {
	pts := benchPoints(b, kind)
	var (
		tr   *bvtree.Tree
		next *atomic.Uint64
		err  error
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%steadyChunk == 0 {
			b.StopTimer()
			if tr, err = bvtree.New(bvtree.Options{Dims: 2, DataCapacity: 32, Fanout: 24}); err != nil {
				b.Fatal(err)
			}
			next = steadyTree(b, tr, pts)
			for j := 0; j < steadyN; j++ {
				steadyWrite(b, tr, pts, next.Add(1))
			}
			runtime.GC() // the chunk before and the rebuild leave their garbage out of this chunk
			b.StartTimer()
		}
		steadyWrite(b, tr, pts, next.Add(1))
	}
}

// steadyWrite applies op i of the steady state to tr as an Insert and a
// Delete.
func steadyWrite(b *testing.B, tr *bvtree.Tree, pts []bvtree.Point, i uint64) {
	ins, del := steadyOps(pts, i)
	if err := tr.Insert(ins.Point, ins.Payload); err != nil {
		b.Fatal(err)
	}
	if ok, err := tr.Delete(del.Point, del.Payload); err != nil || !ok {
		b.Fatalf("delete %d: %v %v", del.Payload, ok, err)
	}
}

func BenchmarkLookup(b *testing.B) {
	tr, pts := buildTree(b, workload.Clustered, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Lookup(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeQuery1pc(b *testing.B) {
	tr, _ := buildTree(b, workload.Clustered, 100000)
	rects := workload.QueryRects(2, 256, 0.01, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := tr.RangeQuery(rects[i%len(rects)], func(bvtree.Point, uint64) bool {
			n++
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- system benchmarks: the seams benchmark/ has no workload for ---
//
// Arms are sub-benchmarks and ns/op is per point in every arm; writers
// and readers scale with -cpu (b.RunParallel). Compare with
// `-count 10` and benchstat; EXPERIMENTS.md has the one-line recipes.

// benchPoints returns the shared point pool of the parallel benchmarks;
// goroutines draw from it through one counter, which doubles as payload.
func benchPoints(b *testing.B, kind workload.Kind) []bvtree.Point {
	b.Helper()
	pts, err := workload.Generate(kind, 2, 1<<16, 5)
	if err != nil {
		b.Fatal(err)
	}
	return pts
}

// newBenchDurable opens a durable tree over a file-backed store in a
// directory the benchmark removes, so fsyncs are the device's own.
func newBenchDurable(b *testing.B, opt bvtree.Options) *bvtree.Tree {
	b.Helper()
	dir := b.TempDir()
	st, err := bvtree.OpenFileStore(filepath.Join(dir, "t.db"), bvtree.FileStoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	l, err := bvtree.OpenWAL(filepath.Join(dir, "t.wal"))
	if err != nil {
		b.Fatal(err)
	}
	d, err := bvtree.Open(st, l, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := d.Close(); err != nil {
			b.Error(err)
		}
		st.Close()
	})
	return d
}

// BenchmarkInstrumented prices the observability layer: Lookup and Insert
// with the histograms off and on (budget: ≤ 5 % per enabled op,
// DESIGN.md §10).
func BenchmarkInstrumented(b *testing.B) {
	for _, arm := range []string{"off", "metrics"} {
		tr, pts := buildTree(b, workload.Uniform, 50000)
		if arm == "metrics" {
			tr.EnableMetrics()
		}
		b.Run(arm+"/lookup", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tr.Lookup(pts[i%len(pts)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(arm+"/insert", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := tr.Insert(pts[i%len(pts)], uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// steadyN is the size of the steady-state tree the write benchmarks
// run on: op i inserts point i and deletes point i-steadyN,
// so what an op costs does not grow with b.N.
const steadyN = 4096

// steadyTree preloads d with points 1..steadyN of pts, payload = index,
// and checkpoints, so the log starts empty. It returns the counter the
// ops draw from: the last preloaded index.
func steadyTree(b *testing.B, d *bvtree.Tree, pts []bvtree.Point) *atomic.Uint64 {
	b.Helper()
	ids := make([]uint64, steadyN)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	if err := d.BulkLoad(pts[1:steadyN+1], ids); err != nil {
		b.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		b.Fatal(err)
	}
	var next atomic.Uint64
	next.Store(steadyN)
	return &next
}

// steadyOps returns op i of the steady state: the insert of point i and
// the delete of point i-steadyN, each with its index as payload.
func steadyOps(pts []bvtree.Point, i uint64) (ins, del bvtree.BatchOp) {
	n := uint64(len(pts))
	return bvtree.BatchOp{Point: pts[i%n], Payload: i},
		bvtree.BatchOp{Delete: true, Point: pts[(i-steadyN)%n], Payload: i - steadyN}
}

// BenchmarkDurableInsert compares the durable write disciplines on one
// file-backed tree per arm, held at steadyN points: group commit (an op's
// insert and delete are one commit, and the writers of -cpu share
// fsyncs) and 64-op batches (one commit of 128 records). ns/op is per
// op. commits/sync is GroupStats' ratio, the log records each fsync
// carried: two per op.
func BenchmarkDurableInsert(b *testing.B) {
	pts := benchPoints(b, workload.Uniform)
	for _, arm := range []struct {
		name  string
		batch int
	}{
		{"group", 1},
		{"batch64", 64},
	} {
		b.Run(arm.name, func(b *testing.B) {
			d := newBenchDurable(b, bvtree.Options{Dims: 2})
			next := steadyTree(b, d, pts)
			c0, s0 := d.GroupStats()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				ops := make([]bvtree.BatchOp, 0, 2*arm.batch)
				for pb.Next() {
					ins, del := steadyOps(pts, next.Add(1))
					ops = append(ops, ins, del)
					if len(ops) < 2*arm.batch {
						continue
					}
					if err := d.ApplyBatch(ops); err != nil {
						b.Error(err)
						return
					}
					ops = ops[:0]
				}
				if err := d.ApplyBatch(ops); err != nil { // the short last batch
					b.Error(err)
				}
			})
			c1, s1 := d.GroupStats()
			b.ReportMetric(float64(c1-c0)/float64(max(s1-s0, 1)), "commits/sync")
		})
	}
}

// BenchmarkInsertUnderBackup prices an online backup for the writers it
// runs beside: durable Inserts and Deletes on a tree held at steadyN
// points, alone and while another goroutine streams online backups back
// to back. An op is one Insert and one Delete, two commits. p99-apply-ns
// is the tree's own insert histogram, where the copy-on-write captures
// for the pinned backup show.
func BenchmarkInsertUnderBackup(b *testing.B) {
	pts := benchPoints(b, workload.Clustered)
	for _, arm := range []string{"alone", "under-backup"} {
		b.Run(arm, func(b *testing.B) {
			d := newBenchDurable(b, bvtree.Options{Dims: 2})
			next := steadyTree(b, d, pts)
			d.EnableMetrics()
			stop, backups := make(chan struct{}), make(chan error, 1)
			if arm == "alone" {
				backups <- nil
			} else {
				go func() { backups <- backupUntil(d, stop) }()
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					ins, del := steadyOps(pts, next.Add(1))
					if err := d.Insert(ins.Point, ins.Payload); err != nil {
						b.Error(err)
						return
					}
					if _, err := d.Delete(del.Point, del.Payload); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			close(stop)
			if err := <-backups; err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(d.Metrics().Tree.InsertNs.P99, "p99-apply-ns")
		})
	}
}

// backupUntil streams online backups back to back until stop closes.
func backupUntil(d *bvtree.Tree, stop <-chan struct{}) error {
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		if _, err := d.SnapshotBackup(io.Discard); err != nil {
			return err
		}
	}
}

// BenchmarkMixedRead is the reader-scaling measurement: 80 % Lookup,
// 15 % one-percent RangeQuery and 5 % Nearest(k=4) against one in-memory
// tree from -cpu goroutines.
func BenchmarkMixedRead(b *testing.B) {
	tr, pts := buildTree(b, workload.Uniform, 100000)
	rects := workload.QueryRects(2, 256, 0.01, 43)
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			var err error
			switch r := rng.Intn(100); {
			case r < 80:
				_, err = tr.Lookup(pts[rng.Intn(len(pts))])
			case r < 95:
				err = tr.RangeQuery(rects[rng.Intn(len(rects))], func(bvtree.Point, uint64) bool { return true })
			default:
				_, err = tr.Nearest(pts[rng.Intn(len(pts))], 4)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// pagedFileTree builds a paged tree of pts (payload = index) through
// ApplyBatch over a FileStore at a fresh path, with a cache large enough
// to hold all of it, and flushes it: cached as it stands, and
// reopenable from path once the caller has closed the store.
func pagedFileTree(b *testing.B, pts []bvtree.Point) (string, *storage.FileStore, *bvtree.Tree) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "t.db")
	st, err := bvtree.OpenFileStore(path, bvtree.FileStoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := bvtree.Open(st, nil, bvtree.Options{Dims: 2, CacheNodes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	ops := make([]bvtree.BatchOp, 0, 4096)
	for lo := 0; lo < len(pts); lo += cap(ops) {
		ops = ops[:0]
		for i := lo; i < lo+cap(ops) && i < len(pts); i++ {
			ops = append(ops, bvtree.BatchOp{Point: pts[i], Payload: uint64(i)})
		}
		if err := tr.ApplyBatch(ops); err != nil {
			b.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		b.Fatal(err)
	}
	return path, st, tr
}

// reopenCold closes st and reopens the tree at path with a decoded-node
// cache of 128 against a few thousand nodes, so page reads, decodes and
// evictions dominate whatever runs next.
func reopenCold(b *testing.B, path string, st *storage.FileStore) *bvtree.Tree {
	b.Helper()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	st, err := bvtree.OpenFileStore(path, bvtree.FileStoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	tr, err := bvtree.Open(st, nil, bvtree.Options{CacheNodes: 128})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkColdLookup is the profilable replica of the benchmark's
// point-cold workload: 100k clustered points, flushed and reopened cold.
// The 1000 seeded lookups cycle as the workload's rounds do.
func BenchmarkColdLookup(b *testing.B) {
	pts, err := workload.Generate(workload.Clustered, 2, 100_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	path, st, _ := pagedFileTree(b, pts)
	tr := reopenCold(b, path, st)
	rng := rand.New(rand.NewSource(1))
	probes := make([]bvtree.Point, 1000)
	for i := range probes {
		probes[i] = pts[rng.Intn(len(pts))]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := tr.Lookup(probes[i%len(probes)]); err != nil || len(got) == 0 {
			b.Fatalf("lookup %d: %v %v", i, got, err)
		}
	}
}

// windowsOf returns count square windows holding exactly k of pts each:
// the k nearest, by Chebyshev distance, of a point drawn from pts.
func windowsOf(pts []bvtree.Point, k, count int, rng *rand.Rand) []bvtree.Rect {
	dist := make([]uint64, len(pts))
	var out []bvtree.Rect
	for len(out) < count {
		c := pts[rng.Intn(len(pts))]
		for i, p := range pts {
			dist[i] = 0
			for d := range p {
				dist[i] = max(dist[i], max(p[d], c[d])-min(p[d], c[d]))
			}
		}
		slices.Sort(dist)
		r := dist[k-1]
		if dist[k] == r {
			continue // a tie on the edge: the square would hold more than k
		}
		w := bvtree.UniverseRect(len(c))
		for d := range c {
			if c[d] > r {
				w.Min[d] = c[d] - r
			}
			if c[d] < math.MaxUint64-r {
				w.Max[d] = c[d] + r
			}
		}
		out = append(out, w)
	}
	return out
}

// tinyHalf is the half side of the benchmark's range-tiny windows: half
// of 1e-10 of the domain side.
const tinyHalf uint64 = 922_337_203

// tinyWindows returns count squares of half side tinyHalf, each centred
// on a point drawn from pts and holding that point alone, as the
// benchmark's range-tiny windows do.
func tinyWindows(pts []bvtree.Point, count int, rng *rand.Rand) []bvtree.Rect {
	var out []bvtree.Rect
	for len(out) < count {
		c := pts[rng.Intn(len(pts))]
		w := bvtree.UniverseRect(len(c))
		for d := range c {
			w.Min[d] = c[d] - min(c[d], tinyHalf)
			w.Max[d] = c[d] + min(math.MaxUint64-c[d], tinyHalf)
		}
		in := 0
		for _, p := range pts {
			if w.Contains(p) {
				in++
			}
		}
		if in == 1 {
			out = append(out, w)
		}
	}
	return out
}

// BenchmarkRangeDrive measures the range walk on the windows of
// EXPERIMENTS.md's "one range walk" record: visiting and counting windows
// of 4097 items and of a third of a 100k-point clustered tree, fully
// cached and reopened cold. Its items=1 arm, windows holding one item,
// is the profilable replica of the benchmark's range-tiny workload.
// Beside the time and allocations it reports the walk's cost against the
// O(log n + k) yardstick: nodes fetched per item delivered, and data
// pages fetched that gave the window no item.
func BenchmarkRangeDrive(b *testing.B) {
	const n = 100_000
	pts, err := workload.Generate(workload.Clustered, 2, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sizes := []struct {
		name  string
		items int
		wins  []bvtree.Rect
	}{
		{"items=4097", 4097, windowsOf(pts, 4097, 16, rng)},
		{"items=33333", n / 3, windowsOf(pts, n/3, 4, rng)},
		{"items=1", 1, tinyWindows(pts, 256, rng)},
	}
	path, st, tr := pagedFileTree(b, pts)
	for _, state := range []string{"cached", "reopened"} {
		if state == "reopened" {
			tr = reopenCold(b, path, st)
		}
		for _, sz := range sizes {
			for _, op := range []string{"visit", "count"} {
				b.Run(state+"/"+sz.name+"/"+op, func(b *testing.B) {
					b.ReportAllocs()
					before := tr.Stats()
					for i := 0; i < b.N; i++ {
						var err error
						got, w := 0, sz.wins[i%len(sz.wins)]
						if op == "count" {
							got, err = tr.Count(w)
						} else {
							err = tr.RangeQuery(w, func(bvtree.Point, uint64) bool { got++; return true })
						}
						if err != nil || got != sz.items {
							b.Fatalf("%d items, want %d: %v", got, sz.items, err)
						}
					}
					after := tr.Stats()
					b.ReportMetric(float64(after.NodeAccesses-before.NodeAccesses)/float64(b.N*sz.items), "nodes/item")
					b.ReportMetric(float64(after.RangeEmptyPages-before.RangeEmptyPages)/float64(b.N), "empty-pages/op")
				})
			}
		}
	}
}
