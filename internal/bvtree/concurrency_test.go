package bvtree

// Race-hardened stress suite for the reader–writer concurrency contract:
// several mutator goroutines and several query goroutines share one tree,
// and after the dust settles the full structural invariant check must
// pass and every surviving item must be findable. The TestConcurrent*
// name prefix is load-bearing — `make verify` runs exactly this subset
// under the race detector on every tier-1 verify.

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// stressTree drives nWriters mutators and nReaders query goroutines over
// tr. pts[:len(pts)/2] is pre-inserted (payload = index) and never
// mutated, so readers can assert exact-match hits while writers churn the
// second half. Returns the set of second-half indices that remain live.
func stressTree(t *testing.T, tr *Tree, pts []geometry.Point, nWriters, nReaders int) map[int]bool {
	t.Helper()
	stable := pts[: len(pts)/2 : len(pts)/2]
	churn := pts[len(pts)/2:]
	for i, p := range stable {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
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

	// Writers: each owns an interleaved slice of the churn half. Every
	// third insert is deleted again, so the workload exercises promotion
	// and demotion/merge paths while it runs.
	live := make(map[int]bool)
	var liveMu sync.Mutex
	var writers sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := w; i < len(churn); i += nWriters {
				if stop.Load() {
					return
				}
				payload := uint64(len(stable) + i)
				if err := tr.Insert(churn[i], payload); err != nil {
					fail(fmt.Errorf("writer %d: insert %d: %w", w, i, err))
					return
				}
				if i%3 == 0 {
					if ok, err := tr.Delete(churn[i], payload); err != nil || !ok {
						fail(fmt.Errorf("writer %d: delete %d: ok=%v err=%v", w, i, ok, err))
						return
					}
				} else {
					liveMu.Lock()
					live[i] = true
					liveMu.Unlock()
				}
				if i%257 == 0 {
					if _, err := tr.Maintain(); err != nil {
						fail(fmt.Errorf("writer %d: maintain: %w", w, err))
						return
					}
				}
			}
		}(w)
	}

	// Readers: mixed query loop over the stable half, where results are
	// predictable regardless of writer progress.
	var readers sync.WaitGroup
	for r := 0; r < nReaders; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			src := workload.NewSource(uint64(7000 + r))
			for i := 0; !stop.Load(); i++ {
				idx := int(src.Uint64() % uint64(len(stable)))
				p := stable[idx]
				switch i % 5 {
				case 0:
					payloads, err := tr.Lookup(p)
					if err != nil {
						fail(fmt.Errorf("reader %d: lookup: %w", r, err))
						return
					}
					if !containsPayload(payloads, uint64(idx)) {
						fail(fmt.Errorf("reader %d: lookup of stable point %d missed payload %d (got %v)", r, idx, idx, payloads))
						return
					}
				case 1:
					rect := pointRect(p)
					hit := false
					err := tr.RangeQuery(rect, func(q geometry.Point, payload uint64) bool {
						if payload == uint64(idx) {
							hit = true
						}
						return true
					})
					if err != nil {
						fail(fmt.Errorf("reader %d: range: %w", r, err))
						return
					}
					if !hit {
						fail(fmt.Errorf("reader %d: degenerate rect at stable point %d missed it", r, idx))
						return
					}
				case 2:
					nbrs, err := tr.Nearest(p, 3)
					if err != nil {
						fail(fmt.Errorf("reader %d: nearest: %w", r, err))
						return
					}
					if len(nbrs) == 0 || nbrs[0].Dist != 0 {
						fail(fmt.Errorf("reader %d: nearest at stable point %d: no zero-distance hit", r, idx))
						return
					}
				case 3:
					if _, _, err := tr.SearchCost(p); err != nil {
						fail(fmt.Errorf("reader %d: search cost: %w", r, err))
						return
					}
					if n := tr.Len(); n < len(stable) {
						fail(fmt.Errorf("reader %d: Len %d below stable floor %d", r, n, len(stable)))
						return
					}
				default:
					st := tr.Stats()
					if st.NodeAccesses == 0 {
						fail(fmt.Errorf("reader %d: stats snapshot has zero node accesses", r))
						return
					}
					_ = tr.Height()
					_ = tr.LSN()
				}
			}
		}(r)
	}

	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// Quiescent verification: structure intact, every stable and
	// surviving churn item findable, every deleted payload gone.
	if err := tr.Validate(true); err != nil {
		t.Fatalf("post-stress validate: %v", err)
	}
	for i, p := range stable {
		payloads, err := tr.Lookup(p)
		if err != nil || !containsPayload(payloads, uint64(i)) {
			t.Fatalf("stable point %d lost after stress (err=%v payloads=%v)", i, err, payloads)
		}
	}
	for i, p := range churn {
		payloads, err := tr.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		want := live[i]
		if got := containsPayload(payloads, uint64(len(stable)+i)); got != want {
			t.Fatalf("churn point %d: live=%v but lookup found=%v", i, want, got)
		}
	}
	wantLen := len(stable) + len(live)
	if got := tr.Len(); got != wantLen {
		t.Fatalf("Len=%d after stress, want %d", got, wantLen)
	}
	return live
}

func containsPayload(payloads []uint64, want uint64) bool {
	for _, p := range payloads {
		if p == want {
			return true
		}
	}
	return false
}

// pointRect is the zero-area rectangle containing exactly p.
func pointRect(p geometry.Point) geometry.Rect {
	return geometry.Rect{Min: p.Clone(), Max: p.Clone()}
}

// TestConcurrentReadWriteMem runs the stress mix against the in-memory
// tree for each workload distribution: 2 concurrent writers, 4 concurrent
// readers.
func TestConcurrentReadWriteMem(t *testing.T) {
	for _, kind := range []workload.Kind{workload.Uniform, workload.Clustered, workload.Skewed} {
		t.Run(string(kind), func(t *testing.T) {
			pts, err := workload.Generate(kind, 2, 2400, 21)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
			if err != nil {
				t.Fatal(err)
			}
			stressTree(t, tr, pts, 2, 4)
		})
	}
}

// TestConcurrentReadWritePaged runs the stress mix against a paged tree
// over a real on-disk FileStore, with the decoded-node cache sized small
// enough that readers continually evict and refetch — the hostile regime
// for the sharded cache.
func TestConcurrentReadWritePaged(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 1600, 22)
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.OpenFileStore(filepath.Join(t.TempDir(), "stress.bv"), storage.FileStoreOptions{SlotSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr, err := Open(st, nil, Options{Dims: 2, DataCapacity: 8, Fanout: 8, CacheNodes: 48})
	if err != nil {
		t.Fatal(err)
	}
	stressTree(t, tr, pts, 2, 3)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDurableReads verifies that a durable tree's reads run
// while writers sit inside the WAL append+fsync path: queries must never
// touch the log mutex.
func TestConcurrentDurableReads(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 1200, 23)
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewMemStore()
	d, err := openLogged(st, filepath.Join(t.TempDir(), "stress.wal"), Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	stable := pts[:600]
	churn := pts[600:]
	for i, p := range stable {
		if err := d.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
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
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := w; i < len(churn); i += 2 {
				if stop.Load() {
					return
				}
				if err := d.Insert(churn[i], uint64(600+i)); err != nil {
					fail(err)
					return
				}
				if i%101 == 0 {
					if err := d.Flush(); err != nil {
						fail(err)
						return
					}
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			src := workload.NewSource(uint64(9000 + r))
			for !stop.Load() {
				idx := int(src.Uint64() % uint64(len(stable)))
				payloads, err := d.Lookup(stable[idx])
				if err != nil {
					fail(err)
					return
				}
				if !containsPayload(payloads, uint64(idx)) {
					fail(fmt.Errorf("durable reader %d: stable point %d missing", r, idx))
					return
				}
				_ = d.Stats()
			}
		}(r)
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if err := d.Validate(true); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Len(), len(pts); got != want {
		t.Fatalf("Len=%d, want %d", got, want)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStatsSnapshot hammers the Stats/Len/Height/LSN
// accessors from several goroutines while a writer mutates, verifying the
// atomic counter snapshots are race-free and monotonic.
func TestConcurrentStatsSnapshot(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 3000, 24)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var prev uint64
			for !stop.Load() {
				st := tr.Stats()
				total := st.DataSplits + st.IndexSplits + st.Promotions
				if total < prev {
					panic(fmt.Sprintf("stats went backwards: %d < %d", total, prev))
				}
				prev = total
				_ = tr.Len()
				_ = tr.Height()
				_ = tr.LSN()
			}
		}()
	}
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	readers.Wait()
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPooledViews drives the pooled views traversal reads pin
// through: four readers run one-point RangeQuery, Count and Nearest on a
// reopened tree whose cache holds 8 nodes, beside a writer that deletes
// and reinserts the even points (capturing versions and deferring frees
// under the readers' pins) and a goroutine that takes and releases
// Snapshots. Every odd point, which nothing writes, must always be found
// by all three reads, and once all are done no epoch may be pinned and
// no version or grave left (CheckSnapshots).
func TestConcurrentPooledViews(t *testing.T) {
	pts, err := workload.Generate(workload.Clustered, 2, 3000, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, _ := reopenedFileTree(t, pts, Options{DataCapacity: 16, Fanout: 8}, 8)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for round := 0; round < 3; round++ {
			for i := 0; i < len(pts); i += 2 {
				if ok, err := tr.Delete(pts[i], uint64(i)); err != nil || !ok {
					errs <- fmt.Errorf("writer: delete %d = %v, %v", i, ok, err)
					return
				}
				if err := tr.Insert(pts[i], uint64(i)); err != nil {
					errs <- fmt.Errorf("writer: insert %d: %v", i, err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			s := tr.Snapshot()
			n, err := s.Count(geometry.UniverseRect(2))
			size := s.Len()
			s.Release()
			if err != nil || n != size {
				errs <- fmt.Errorf("snapshot: Count %d, Len %d, %v", n, size, err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 1 + 2*r; !stop.Load(); i = (i + 8) % len(pts) {
				p, rect := pts[i], pointRect(pts[i])
				found := false
				if err := tr.RangeQuery(rect, func(_ geometry.Point, payload uint64) bool {
					found = found || payload == uint64(i)
					return true
				}); err != nil || !found {
					errs <- fmt.Errorf("reader %d: RangeQuery(%v) found payload %d: %v, %v", r, p, i, found, err)
					return
				}
				if n, err := tr.Count(rect); err != nil || n == 0 {
					errs <- fmt.Errorf("reader %d: Count(%v) = %d, %v", r, p, n, err)
					return
				}
				if nb, err := tr.Nearest(p, 1); err != nil || len(nb) != 1 || nb[0].Dist != 0 {
					errs <- fmt.Errorf("reader %d: Nearest(%v) = %v, %v", r, p, nb, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// CheckSnapshots excuses what live pins retain, so first make sure
	// that every read released its pin.
	m := tr.Metrics()
	if m.MVCC.PinnedEpochs != 0 {
		t.Fatalf("%d epochs still pinned after every read returned", m.MVCC.PinnedEpochs)
	}
	if err := tr.CheckSnapshots(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	if m.MVCC.Captures == 0 || m.Cache.DataReads == 0 {
		t.Fatalf("%d captures, %d data pages read: the writer never ran under a pin, or the reads were not cold", m.MVCC.Captures, m.Cache.DataReads)
	}
}
