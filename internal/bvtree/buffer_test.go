package bvtree

// Differential battery for the buffered write path: random interleaved
// insert/delete/query/nearest programs run in lockstep against a
// buffered tree, an unbuffered tree, and a linear-scan oracle, across
// the in-memory, paged and durable backends. Any divergence — a lookup
// missing a pending insert, a count double-suppressing a delete, a
// nearest merge losing a candidate — fails with the op index that
// exposed it. Every test here is named TestBuffered* so the Makefile's
// race smoke subset picks the battery up.

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/storage"
)

// bufAPI is the surface the battery drives; *Tree and *DurableTree both
// provide it.
type bufAPI interface {
	Insert(p geometry.Point, payload uint64) error
	Delete(p geometry.Point, payload uint64) (bool, error)
	Lookup(p geometry.Point) ([]uint64, error)
	Count(rect geometry.Rect) (int, error)
	RangeQuery(rect geometry.Rect, visit Visitor) error
	Nearest(p geometry.Point, k int) ([]Neighbor, error)
	Len() int
}

// oracleItem mirrors one stored item in the linear-scan oracle.
type oracleItem struct {
	p       geometry.Point
	payload uint64
}

func oracleLookup(items []oracleItem, p geometry.Point) []uint64 {
	var out []uint64
	for _, it := range items {
		if it.p.Equal(p) {
			out = append(out, it.payload)
		}
	}
	return out
}

func oracleDelete(items []oracleItem, p geometry.Point, payload uint64) ([]oracleItem, bool) {
	for i, it := range items {
		if it.payload == payload && it.p.Equal(p) {
			return append(items[:i], items[i+1:]...), true
		}
	}
	return items, false
}

func oracleCount(items []oracleItem, rect geometry.Rect) int {
	n := 0
	for _, it := range items {
		if rect.Contains(it.p) {
			n++
		}
	}
	return n
}

func oracleNearestDists(items []oracleItem, p geometry.Point, k int) []float64 {
	ds := make([]float64, len(items))
	for i, it := range items {
		ds[i] = pointDist(p, it.p)
	}
	sort.Float64s(ds)
	if len(ds) > k {
		ds = ds[:k]
	}
	return ds
}

func sortedU64(xs []uint64) []uint64 {
	out := append([]uint64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func u64Equal(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// collectRange gathers (point,payload) pairs of a range query as sorted
// payload-tagged keys, so multiset comparison is order-independent.
func collectBufRange(api bufAPI, rect geometry.Rect) ([]string, error) {
	var out []string
	err := api.RangeQuery(rect, func(p geometry.Point, payload uint64) bool {
		out = append(out, fmt.Sprintf("%v/%d", p, payload))
		return true
	})
	sort.Strings(out)
	return out, err
}

func oracleRangeKeys(items []oracleItem, rect geometry.Rect) []string {
	var out []string
	for _, it := range items {
		if rect.Contains(it.p) {
			out = append(out, fmt.Sprintf("%v/%d", it.p, it.payload))
		}
	}
	sort.Strings(out)
	return out
}

// poolPoint draws from a small coordinate pool so the program produces
// duplicate points, annihilating delete/insert pairs, and deletes of
// absent items.
func poolPoint(rng *rand.Rand, pool []geometry.Point) geometry.Point {
	return pool[rng.Intn(len(pool))]
}

func poolRect(rng *rand.Rand, pool []geometry.Point) geometry.Rect {
	a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
	r := geometry.Rect{Min: a.Clone(), Max: b.Clone()}
	for d := range r.Min {
		if r.Min[d] > r.Max[d] {
			r.Min[d], r.Max[d] = r.Max[d], r.Min[d]
		}
	}
	return r
}

// runBufferedDifferential drives one random program against buffered,
// unbuffered and oracle in lockstep.
func runBufferedDifferential(t *testing.T, buffered, plain bufAPI, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pool := make([]geometry.Point, 48)
	for i := range pool {
		pool[i] = randPoint(rng, 2)
	}
	var oracle []oracleItem
	nextPayload := uint64(1)

	check := func(i int, what string, ok bool, detail string) {
		if !ok {
			t.Fatalf("op %d: %s diverged: %s", i, what, detail)
		}
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 45: // insert
			p := poolPoint(rng, pool)
			pay := nextPayload
			nextPayload++
			if err := buffered.Insert(p, pay); err != nil {
				t.Fatalf("op %d: buffered insert: %v", i, err)
			}
			if err := plain.Insert(p, pay); err != nil {
				t.Fatalf("op %d: plain insert: %v", i, err)
			}
			oracle = append(oracle, oracleItem{p: p.Clone(), payload: pay})
		case r < 70: // delete (sometimes of an absent item)
			p := poolPoint(rng, pool)
			var pay uint64
			if len(oracle) > 0 && rng.Intn(4) > 0 {
				pick := oracle[rng.Intn(len(oracle))]
				p, pay = pick.p, pick.payload
			} else {
				pay = uint64(rng.Intn(int(nextPayload)) + 1)
			}
			bok, err := buffered.Delete(p, pay)
			if err != nil {
				t.Fatalf("op %d: buffered delete: %v", i, err)
			}
			pok, err := plain.Delete(p, pay)
			if err != nil {
				t.Fatalf("op %d: plain delete: %v", i, err)
			}
			var ook bool
			oracle, ook = oracleDelete(oracle, p, pay)
			check(i, "delete found-flag", bok == ook && pok == ook,
				fmt.Sprintf("buffered=%v plain=%v oracle=%v", bok, pok, ook))
		case r < 80: // lookup
			p := poolPoint(rng, pool)
			bg, err := buffered.Lookup(p)
			if err != nil {
				t.Fatalf("op %d: buffered lookup: %v", i, err)
			}
			pg, err := plain.Lookup(p)
			if err != nil {
				t.Fatalf("op %d: plain lookup: %v", i, err)
			}
			og := oracleLookup(oracle, p)
			check(i, "lookup", u64Equal(sortedU64(bg), sortedU64(og)) && u64Equal(sortedU64(pg), sortedU64(og)),
				fmt.Sprintf("buffered=%v plain=%v oracle=%v", bg, pg, og))
		case r < 88: // range + count
			rect := poolRect(rng, pool)
			bk, err := collectBufRange(buffered, rect)
			if err != nil {
				t.Fatalf("op %d: buffered range: %v", i, err)
			}
			pk, err := collectBufRange(plain, rect)
			if err != nil {
				t.Fatalf("op %d: plain range: %v", i, err)
			}
			ok := oracleRangeKeys(oracle, rect)
			check(i, "range", fmt.Sprint(bk) == fmt.Sprint(ok) && fmt.Sprint(pk) == fmt.Sprint(ok),
				fmt.Sprintf("buffered=%d plain=%d oracle=%d items", len(bk), len(pk), len(ok)))
			bc, err := buffered.Count(rect)
			if err != nil {
				t.Fatalf("op %d: buffered count: %v", i, err)
			}
			check(i, "count", bc == oracleCount(oracle, rect),
				fmt.Sprintf("buffered=%d oracle=%d", bc, oracleCount(oracle, rect)))
		case r < 96: // nearest
			p := poolPoint(rng, pool)
			k := 1 + rng.Intn(6)
			bn, err := buffered.Nearest(p, k)
			if err != nil {
				t.Fatalf("op %d: buffered nearest: %v", i, err)
			}
			od := oracleNearestDists(oracle, p, k)
			bd := make([]float64, len(bn))
			for j := range bn {
				bd[j] = bn[j].Dist
			}
			same := len(bd) == len(od)
			for j := 0; same && j < len(bd); j++ {
				same = bd[j] == od[j]
			}
			check(i, "nearest", same, fmt.Sprintf("buffered=%v oracle=%v", bd, od))
		default: // explicit flush, if the backend supports it
			type flusher interface{ FlushBuffer() error }
			if f, ok := buffered.(flusher); ok {
				if err := f.FlushBuffer(); err != nil {
					t.Fatalf("op %d: flush: %v", i, err)
				}
			}
		}
		if buffered.Len() != len(oracle) {
			t.Fatalf("op %d: buffered Len=%d, oracle=%d", i, buffered.Len(), len(oracle))
		}
	}
	// Final flush, full structural check, and a last full-content sweep.
	type flusher interface{ FlushBuffer() error }
	if f, ok := buffered.(flusher); ok {
		if err := f.FlushBuffer(); err != nil {
			t.Fatal(err)
		}
	}
	type validator interface{ Validate(full bool) error }
	if v, ok := buffered.(validator); ok {
		if err := v.Validate(true); err != nil {
			t.Fatalf("invariants after program: %v", err)
		}
	}
	uni := geometry.UniverseRect(2)
	bk, err := collectBufRange(buffered, uni)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(bk) != fmt.Sprint(oracleRangeKeys(oracle, uni)) {
		t.Fatalf("final content diverges: %d items vs oracle %d", len(bk), len(oracle))
	}
}

// TestBufferedDifferentialMem runs the battery on in-memory trees.
func TestBufferedDifferentialMem(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			opt := Options{Dims: 2, DataCapacity: 8, Fanout: 8}
			plain, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.BufferOps = 6
			buffered, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			runBufferedDifferential(t, buffered, plain, seed, 700)
		})
	}
}

// TestBufferedDifferentialPaged runs the battery on file-backed paged
// trees, so flushes cross the page cache and store.
func TestBufferedDifferentialPaged(t *testing.T) {
	for seed := int64(4); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			newStore := func(name string) *storage.FileStore {
				st, err := storage.CreateFileStore(filepath.Join(dir, name),
					storage.FileStoreOptions{PinDirty: true})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { st.Close() })
				return st
			}
			opt := Options{Dims: 2, DataCapacity: 8, Fanout: 8}
			plain, err := NewPaged(newStore("plain.db"), opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.BufferOps = 6
			buffered, err := NewPaged(newStore("buffered.db"), opt)
			if err != nil {
				t.Fatal(err)
			}
			runBufferedDifferential(t, buffered, plain, seed, 500)
		})
	}
}

// TestBufferedDifferentialDurable runs the battery on durable trees, so
// every buffered op also crosses the WAL group commit.
func TestBufferedDifferentialDurable(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, bufferOps int) *DurableTree {
		st, err := storage.CreateFileStore(filepath.Join(dir, name+".db"),
			storage.FileStoreOptions{PinDirty: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		d, err := NewDurable(st, filepath.Join(dir, name+".wal"),
			Options{Dims: 2, DataCapacity: 8, Fanout: 8, BufferOps: bufferOps})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	runBufferedDifferential(t, mk("buffered", 6), mk("plain", 0), 6, 400)
}

// TestBufferedFlushTriggerAndCounters pins the buffer's observable
// mechanics: ops stage without applying, the group-capacity trigger
// flushes inline, counters and the flush-batch histogram advance, and an
// explicit FlushBuffer drains the rest.
func TestBufferedFlushTriggerAndCounters(t *testing.T) {
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8, BufferOps: 4, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	// Three ops stage: nothing applied yet, Len sees them.
	var pts []geometry.Point
	for i := 0; i < 3; i++ {
		p := randPoint(rng, 2)
		pts = append(pts, p)
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 3 {
		t.Fatalf("Len=%d with 3 buffered inserts", tr.Len())
	}
	if tr.size != 0 {
		t.Fatalf("applied size=%d before any flush", tr.size)
	}
	st := tr.Stats()
	if st.BufferedOps != 3 || st.BufferFlushes != 0 {
		t.Fatalf("BufferedOps=%d BufferFlushes=%d, want 3/0", st.BufferedOps, st.BufferFlushes)
	}
	// Fourth op fills the (single, root-routed) group and flushes inline.
	if err := tr.Insert(randPoint(rng, 2), 3); err != nil {
		t.Fatal(err)
	}
	st = tr.Stats()
	if st.BufferFlushes == 0 {
		t.Fatal("group capacity reached but no flush recorded")
	}
	if tr.size == 0 {
		t.Fatal("flush applied nothing")
	}
	hist := tr.Metrics().Tree.FlushBatch
	if hist.Count == 0 {
		t.Fatal("FlushBatch histogram empty after a flush")
	}
	// Lookups see applied items after the flush.
	for i, p := range pts {
		found, err := contains(tr, p, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("item %d missing after flush", i)
		}
	}
	if err := tr.FlushBuffer(); err != nil {
		t.Fatal(err)
	}
	if !tr.buf.empty() {
		t.Fatal("buffer not empty after FlushBuffer")
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
}

// TestBufferedAnnihilationAndCappedDeletes pins the buffer's delete
// semantics: a delete cancels the latest matching pending insert without
// ever touching the tree, and deletes of items with no applied or
// pending match report false instead of staging an unsatisfiable op.
func TestBufferedAnnihilationAndCappedDeletes(t *testing.T) {
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8, BufferOps: 64})
	if err != nil {
		t.Fatal(err)
	}
	p := geometry.Point{1 << 40, 1 << 41}
	if err := tr.Insert(p, 7); err != nil {
		t.Fatal(err)
	}
	ok, err := tr.Delete(p, 7)
	if err != nil || !ok {
		t.Fatalf("delete of pending insert: ok=%v err=%v", ok, err)
	}
	if got := tr.Len(); got != 0 {
		t.Fatalf("Len=%d after annihilating pair", got)
	}
	if st := tr.Stats(); st.BufferFlushes != 0 {
		t.Fatal("annihilation should not flush")
	}
	// No applied match, no pending insert: the delete must report false.
	ok, err = tr.Delete(p, 7)
	if err != nil || ok {
		t.Fatalf("delete of absent item: ok=%v err=%v", ok, err)
	}
	// One applied + one pending delete: a second pending delete of the
	// same (point,payload) has nothing left to consume.
	if err := tr.Insert(p, 9); err != nil {
		t.Fatal(err)
	}
	if err := tr.FlushBuffer(); err != nil {
		t.Fatal(err)
	}
	ok, err = tr.Delete(p, 9)
	if err != nil || !ok {
		t.Fatalf("first delete of applied item: ok=%v err=%v", ok, err)
	}
	ok, err = tr.Delete(p, 9)
	if err != nil || ok {
		t.Fatalf("capped delete accepted: ok=%v err=%v", ok, err)
	}
	if err := tr.FlushBuffer(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Len(); got != 0 {
		t.Fatalf("Len=%d after flushing the delete", got)
	}
}

// TestBufferedSnapshotPinsPendingState pins a snapshot while operations
// sit in the buffer and checks it against a shadow of the commit-point
// content: later inserts, flushes and deletes must never leak in.
func TestBufferedSnapshotPinsPendingState(t *testing.T) {
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8, BufferOps: 32})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	var shadow []oracleItem
	for i := 0; i < 40; i++ {
		p := randPoint(rng, 2)
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		shadow = append(shadow, oracleItem{p: p, payload: uint64(i)})
	}
	if tr.buf.empty() {
		t.Fatal("test needs pending ops at the pin")
	}
	s, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()

	// Mutate past the pin: more inserts, a flush (rewrites the pages the
	// overlay's applied part resolves through), then deletes of pinned
	// items.
	for i := 100; i < 140; i++ {
		if err := tr.Insert(randPoint(rng, 2), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.FlushBuffer(); err != nil {
		t.Fatal(err)
	}
	for _, it := range shadow[:10] {
		if _, err := tr.Delete(it.p, it.payload); err != nil {
			t.Fatal(err)
		}
	}

	if got := s.Len(); got != len(shadow) {
		t.Fatalf("snapshot Len=%d, shadow=%d", got, len(shadow))
	}
	uni := geometry.UniverseRect(2)
	keys, err := collectBufRange(s.v, uni)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != fmt.Sprint(oracleRangeKeys(shadow, uni)) {
		t.Fatalf("snapshot content diverged from commit-point shadow: %d vs %d items", len(keys), len(shadow))
	}
	for _, it := range shadow {
		got, err := s.Lookup(it.p)
		if err != nil {
			t.Fatal(err)
		}
		if !u64Equal(sortedU64(got), sortedU64(oracleLookup(shadow, it.p))) {
			t.Fatalf("snapshot lookup %v diverged", it.p)
		}
	}
	n, err := s.Count(uni)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(shadow) {
		t.Fatalf("snapshot Count=%d, want %d", n, len(shadow))
	}
	nb, err := s.Nearest(shadow[0].p, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleNearestDists(shadow, shadow[0].p, 3)
	for j := range nb {
		if nb[j].Dist != want[j] {
			t.Fatalf("snapshot nearest diverged at %d: %v vs %v", j, nb[j].Dist, want[j])
		}
	}
	if err := tr.CheckSnapshots(); err != nil {
		t.Fatal(err)
	}
}

// TestBufferedSnapshotBackupObservesBuffered is the regression pin for
// the backup path: SnapshotBackup must include buffered-but-unflushed
// entries (it drains the buffer inside the pin's critical section), and
// a user-pinned snapshot that still carries pending ops must refuse to
// stream rather than silently drop them.
func TestBufferedSnapshotBackupObservesBuffered(t *testing.T) {
	st, err := storage.CreateFileStore(filepath.Join(t.TempDir(), "t.db"),
		storage.FileStoreOptions{PinDirty: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr, err := NewPaged(st, Options{Dims: 2, DataCapacity: 8, Fanout: 8, BufferOps: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	var items []oracleItem
	for i := 0; i < 50; i++ {
		p := randPoint(rng, 2)
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		items = append(items, oracleItem{p: p, payload: uint64(i)})
	}
	if tr.buf.empty() {
		t.Fatal("test needs pending ops at backup time")
	}

	// A plain snapshot with pending ops cannot stream.
	s, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Backup(&bytes.Buffer{}); err == nil {
		t.Fatal("Backup of a pending-op snapshot succeeded; buffered entries would be dropped")
	}
	s.Release()

	// SnapshotBackup flushes inside the pin and must capture everything.
	var blob bytes.Buffer
	if err := tr.SnapshotBackup(&blob); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.CreateFileStore(filepath.Join(t.TempDir(), "r.db"),
		storage.FileStoreOptions{PinDirty: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	re, err := RestoreSnapshot(st2, &blob)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != len(items) {
		t.Fatalf("restored Len=%d, want %d", re.Len(), len(items))
	}
	for _, it := range items {
		found, err := contains(re, it.p, it.payload)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("buffered item payload %d missing from backup", it.payload)
		}
	}
	if err := re.Validate(true); err != nil {
		t.Fatal(err)
	}
}

// TestBufferedEnableDrainDisable exercises the runtime knob: enabling on
// a live tree, resizing, and disabling (which drains).
func TestBufferedEnableDrainDisable(t *testing.T) {
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tr.buf != nil {
		t.Fatal("buffer present without BufferOps")
	}
	if err := tr.EnableBuffer(16); err != nil {
		t.Fatal(err)
	}
	p := geometry.Point{5 << 30, 9 << 30}
	if err := tr.Insert(p, 1); err != nil {
		t.Fatal(err)
	}
	if tr.size != 0 {
		t.Fatal("insert applied despite enabled buffer")
	}
	if err := tr.EnableBuffer(0); err != nil {
		t.Fatal(err)
	}
	if tr.buf != nil {
		t.Fatal("buffer still attached after disable")
	}
	if tr.size != 1 {
		t.Fatalf("disable did not drain: size=%d", tr.size)
	}
	if _, err := New(Options{Dims: 2, BufferOps: -1}); err == nil {
		t.Fatal("negative BufferOps accepted")
	}
}

// TestBufferedConcurrentAccess is the -race smoke: writers mutate a
// buffered tree while readers look up, scan, count, search nearest and
// pin snapshots. Correctness here is freedom from races plus a final
// differential sweep.
func TestBufferedConcurrentAccess(t *testing.T) {
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8, BufferOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers, perWriter = 4, 4, 300
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWriter; i++ {
				p := randPoint(rng, 2)
				pay := uint64(w*perWriter + i)
				if err := tr.Insert(p, pay); err != nil {
					errs <- err
					return
				}
				if i%3 == 0 {
					if _, err := tr.Delete(p, pay); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < perWriter; i++ {
				p := randPoint(rng, 2)
				switch i % 4 {
				case 0:
					if _, err := tr.Lookup(p); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := tr.Count(geometry.UniverseRect(2)); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := tr.Nearest(p, 3); err != nil {
						errs <- err
						return
					}
				default:
					s, err := tr.Snapshot()
					if err != nil {
						errs <- err
						return
					}
					if _, err := s.Count(geometry.UniverseRect(2)); err != nil {
						s.Release()
						errs <- err
						return
					}
					s.Release()
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := tr.FlushBuffer(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	// Writers inserted writers*perWriter items and deleted a third each.
	want := writers * perWriter * 2 / 3
	if tr.Len() != want {
		t.Fatalf("Len=%d, want %d", tr.Len(), want)
	}
	if err := tr.CheckSnapshots(); err != nil {
		t.Fatal(err)
	}
}
