package bvtree

// Invariant battery for BulkLoad, which is a batch of inserts in the
// caller's order: full structural invariants, the paper's 1/3 data-page
// occupancy floor, exact content equality with the input (as a multiset,
// duplicates included), loading into a non-empty tree, durability of a
// logged bulk batch, and that every entry point builds the one tree the
// insertion algorithm builds.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// scanTriples drains the tree into sortable (coords..., payload) rows.
func scanTriples(t *testing.T, tr *Tree) [][]uint64 {
	t.Helper()
	var out [][]uint64
	if err := tr.Scan(func(p geometry.Point, payload uint64) bool {
		row := make([]uint64, 0, len(p)+1)
		row = append(row, p...)
		row = append(row, payload)
		out = append(out, row)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sortTriples(out)
	return out
}

func sortTriples(rows [][]uint64) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

func inputTriples(pts []geometry.Point, payloads []uint64) [][]uint64 {
	rows := make([][]uint64, len(pts))
	for i := range pts {
		row := make([]uint64, 0, len(pts[i])+1)
		row = append(row, pts[i]...)
		row = append(row, payloads[i])
		rows[i] = row
	}
	sortTriples(rows)
	return rows
}

func triplesEqual(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// checkBulkTree asserts the full post-BulkLoad contract: structural
// invariants, the occupancy floor, and content == input.
func checkBulkTree(t *testing.T, tr *Tree, pts []geometry.Point, payloads []uint64) {
	t.Helper()
	if tr.Len() != len(pts) {
		t.Fatalf("Len=%d, want %d", tr.Len(), len(pts))
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	st, err := tr.CollectStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != len(pts) {
		t.Fatalf("walked %d items, loaded %d", st.Items, len(pts))
	}
	if st.DataPages > 1 && st.DataMinItems*3 < tr.Options().DataCapacity {
		t.Fatalf("data page with %d/%d items: below the 1/3 guarantee",
			st.DataMinItems, tr.Options().DataCapacity)
	}
	if got, want := scanTriples(t, tr), inputTriples(pts, payloads); !triplesEqual(got, want) {
		t.Fatalf("scan after BulkLoad does not match the loaded multiset (%d vs %d rows)",
			len(got), len(want))
	}
}

func TestBulkLoadPackedInvariants(t *testing.T) {
	for _, n := range []int{1, 7, 1000, 10000} {
		for _, kind := range []workload.Kind{workload.Uniform, workload.Clustered, workload.Skewed} {
			t.Run(fmt.Sprintf("%s-%d", kind, n), func(t *testing.T) {
				pts, err := workload.Generate(kind, 2, n, uint64(n)*7+uint64(len(kind)))
				if err != nil {
					t.Fatal(err)
				}
				payloads := make([]uint64, n)
				for i := range payloads {
					payloads[i] = uint64(i)
				}
				tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.BulkLoad(pts, payloads); err != nil {
					t.Fatal(err)
				}
				checkBulkTree(t, tr, pts, payloads)
			})
		}
	}
}

// TestBulkLoadLargeScale loads a few hundred thousand points in one call.
// Validate walks the full structure but the content sweep uses
// CollectStats + scan, which stay linear.
func TestBulkLoadLargeScale(t *testing.T) {
	n := 200_000
	if !testing.Short() {
		n = 1_000_000
	}
	pts, err := workload.Generate(workload.Uniform, 2, n, 99)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([]uint64, n)
	for i := range payloads {
		payloads[i] = uint64(i)
	}
	tr, err := New(Options{Dims: 2, DataCapacity: 32, Fanout: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(pts, payloads); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("Len=%d, want %d", tr.Len(), n)
	}
	st, err := tr.CollectStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != n {
		t.Fatalf("walked %d items, loaded %d", st.Items, n)
	}
	if st.DataPages > 1 && st.DataMinItems*3 < tr.Options().DataCapacity {
		t.Fatalf("data page with %d/%d items: below the 1/3 guarantee",
			st.DataMinItems, tr.Options().DataCapacity)
	}
	if got, want := scanTriples(t, tr), inputTriples(pts, payloads); !triplesEqual(got, want) {
		t.Fatal("scan after large BulkLoad does not match the loaded multiset")
	}
}

// TestBulkLoadDuplicates drives the soft-overflow escape: identical
// addresses admit no region split, so the load must leave oversized pages
// rather than fail, and every copy must survive.
func TestBulkLoadDuplicates(t *testing.T) {
	const n = 500
	p := geometry.Point{1 << 40, 1 << 41}
	pts := make([]geometry.Point, n)
	payloads := make([]uint64, n)
	for i := range pts {
		pts[i] = p.Clone()
		payloads[i] = uint64(i)
	}
	// Salt in a handful of distinct points so the load still has splits
	// to attempt around the duplicate block.
	for i := 0; i < n; i += 50 {
		pts[i] = geometry.Point{uint64(i+1) << 32, uint64(n-i) << 35}
	}
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(pts, payloads); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("Len=%d, want %d", tr.Len(), n)
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	if got, want := scanTriples(t, tr), inputTriples(pts, payloads); !triplesEqual(got, want) {
		t.Fatal("duplicate-heavy BulkLoad lost or invented items")
	}
	if tr.Stats().SoftOverflows == 0 {
		t.Fatal("expected the duplicate block to trip the soft-overflow escape")
	}
}

// burstStream is the point stream of a bursty writer: n nested-cluster
// points of seed, in arrival order. However a writer deals the stream
// into bursts, the bursts in order are this stream, and the tests that
// use it feed it whole.
func burstStream(t *testing.T, dims, n int, seed uint64) []geometry.Point {
	t.Helper()
	pts, err := workload.Generate(workload.Nested, dims, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestBulkLoadBurstSkew feeds a bursty writer's point stream through
// BulkLoad in one shot.
func TestBulkLoadBurstSkew(t *testing.T) {
	pts := burstStream(t, 2, 30000, 7)
	payloads := make([]uint64, len(pts))
	for i := range payloads {
		payloads[i] = uint64(i)
	}
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(pts, payloads); err != nil {
		t.Fatal(err)
	}
	checkBulkTree(t, tr, pts, payloads)
}

// TestBulkLoadNonEmptyFallback loads into a tree that already holds
// items: the result must equal the union of both loads.
func TestBulkLoadNonEmptyFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	var allPts []geometry.Point
	var allPays []uint64
	for i := 0; i < 200; i++ {
		p := randPoint(rng, 2)
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		allPts = append(allPts, p)
		allPays = append(allPays, uint64(i))
	}
	bulkPts := make([]geometry.Point, 2000)
	bulkPays := make([]uint64, len(bulkPts))
	for i := range bulkPts {
		bulkPts[i] = randPoint(rng, 2)
		bulkPays[i] = uint64(1000 + i)
	}
	if err := tr.BulkLoad(bulkPts, bulkPays); err != nil {
		t.Fatal(err)
	}
	allPts = append(allPts, bulkPts...)
	allPays = append(allPays, bulkPays...)
	if tr.Len() != len(allPts) {
		t.Fatalf("Len=%d, want %d", tr.Len(), len(allPts))
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	if got, want := scanTriples(t, tr), inputTriples(allPts, allPays); !triplesEqual(got, want) {
		t.Fatal("BulkLoad into a non-empty tree diverged from insert union")
	}
}

// TestBulkLoadDurablePersistence proves a logged bulk batch survives a
// clean close and reopen, both via checkpointed pages and WAL replay.
func TestBulkLoadDurablePersistence(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.CreateFileStore(filepath.Join(dir, "t.db"),
		storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(st, filepath.Join(dir, "t.wal"),
		Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	pts, err := workload.Generate(workload.Clustered, 2, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([]uint64, n)
	for i := range payloads {
		payloads[i] = uint64(i)
	}
	if err := d.BulkLoad(pts, payloads); err != nil {
		t.Fatal(err)
	}
	checkBulkTree(t, d.Tree, pts, payloads)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.OpenFileStore(filepath.Join(dir, "t.db"),
		storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	re, err := OpenDurable(st2, filepath.Join(dir, "t.wal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != n {
		t.Fatalf("reopened Len=%d, want %d", re.Len(), n)
	}
	if err := re.Validate(true); err != nil {
		t.Fatal(err)
	}
	if got, want := scanTriples(t, re.Tree), inputTriples(pts, payloads); !triplesEqual(got, want) {
		t.Fatal("bulk batch diverged across close+reopen")
	}
}

// FuzzBulkLoad decodes arbitrary bytes into points, loads them into a
// fresh tree, and demands the scan return exactly the input multiset
// under full invariants.
func FuzzBulkLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(bytes.Repeat([]byte{0xAB}, 200))
	seed := make([]byte, 0, 400)
	for i := 0; i < 25; i++ {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], uint64(i)*0x9E3779B97F4A7C15)
		binary.LittleEndian.PutUint64(b[8:], uint64(i)<<40)
		seed = append(seed, b[:]...)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 16
		if n > 4096 {
			n = 4096
		}
		pts := make([]geometry.Point, n)
		payloads := make([]uint64, n)
		for i := 0; i < n; i++ {
			pts[i] = geometry.Point{
				binary.LittleEndian.Uint64(data[i*16:]),
				binary.LittleEndian.Uint64(data[i*16+8:]),
			}
			payloads[i] = uint64(i)
		}
		tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(pts, payloads); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n {
			t.Fatalf("Len=%d, want %d", tr.Len(), n)
		}
		if err := tr.Validate(true); err != nil {
			t.Fatal(err)
		}
		if got, want := scanTriples(t, tr), inputTriples(pts, payloads); !triplesEqual(got, want) {
			t.Fatal("fuzzed BulkLoad scan does not match the input multiset")
		}
	})
}

// backupOf returns tr's SnapshotBackup stream.
func backupOf(t *testing.T, tr *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.SnapshotBackup(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// backupFrames is a backup stream without its header and trailer: the
// tree's pages alone, renumbered canonically, with no LSN or epoch.
func backupFrames(stream []byte) []byte {
	return stream[backupHeaderSize : len(stream)-16]
}

// TestBulkLoadBuildsTheInsertionTree pins that a tree has one build: the
// paper's insertion algorithm, in the caller's order. BulkLoad, ApplyBatch
// and per-point Insert of the same points, on an in-memory and on a
// durable tree, must give byte-identical backups (canonical: pages are
// renumbered in level order) and the same height. A logged ApplyBatch
// must leave the caller's ops as they were, and a large durable
// InsertBatch must keep the height of the unlogged build. At the time
// BulkLoad packed a z-sorted run and logged batches were z-sorted before
// they applied, none of this held.
func TestBulkLoadBuildsTheInsertionTree(t *testing.T) {
	opt := Options{Dims: 2, DataCapacity: 8, Fanout: 8}
	newTree := func(t *testing.T, logged bool, opt Options) *Tree {
		t.Helper()
		if !logged {
			tr, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		d, err := NewDurable(storage.NewMemStore(), filepath.Join(t.TempDir(), "t.wal"), opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d.Tree
	}
	for _, kind := range []workload.Kind{workload.Clustered, workload.Uniform, workload.Nested} {
		t.Run(string(kind), func(t *testing.T) {
			pts, err := workload.Generate(kind, 2, 2000, 13)
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
				{"BulkLoad", func(tr *Tree) error { return tr.BulkLoad(pts, ids) }},
				{"ApplyBatch", func(tr *Tree) error {
					ops := make([]BatchOp, len(pts))
					for i := range pts {
						ops[i] = BatchOp{Point: pts[i], Payload: ids[i]}
					}
					given := append([]BatchOp(nil), ops...)
					if err := tr.ApplyBatch(ops); err != nil {
						return err
					}
					for i := range ops {
						if !ops[i].Point.Equal(given[i].Point) || ops[i].Payload != given[i].Payload {
							return fmt.Errorf("ApplyBatch moved op %d: payload %d is now %d", i, given[i].Payload, ops[i].Payload)
						}
					}
					return nil
				}},
				{"Insert", func(tr *Tree) error {
					for i := range pts {
						if err := tr.Insert(pts[i], ids[i]); err != nil {
							return err
						}
					}
					return nil
				}},
			}
			var ref, refFrames []byte
			refHeight := -1
			for _, logged := range []bool{false, true} {
				var same []byte // the first stream of this arm
				for _, b := range builds {
					tr := newTree(t, logged, opt)
					if err := b.build(tr); err != nil {
						t.Fatalf("logged=%v %s: %v", logged, b.name, err)
					}
					got := backupOf(t, tr)
					if ref == nil {
						ref, refFrames, refHeight = got, backupFrames(got), tr.Height()
					}
					if same == nil {
						same = got
					}
					// The header differs between the arms only in the LSN.
					if !bytes.Equal(got, same) || !bytes.Equal(backupFrames(got), refFrames) {
						t.Fatalf("logged=%v %s: backup differs from unlogged BulkLoad's", logged, b.name)
					}
					if tr.Height() != refHeight {
						t.Fatalf("logged=%v %s: height %d, unlogged BulkLoad %d", logged, b.name, tr.Height(), refHeight)
					}
				}
			}
		})
	}

	t.Run("InsertBatch-large", func(t *testing.T) {
		const n = 20000
		pts, err := workload.Generate(workload.Clustered, 2, n, 5)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, n)
		opt := Options{Dims: 2}
		plain := newTree(t, false, opt)
		for i := range pts {
			if err := plain.Insert(pts[i], ids[i]); err != nil {
				t.Fatal(err)
			}
		}
		d, err := NewDurable(storage.NewMemStore(), filepath.Join(t.TempDir(), "t.wal"), opt)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := d.InsertBatch(pts, ids); err != nil {
			t.Fatal(err)
		}
		if d.Height() != plain.Height() {
			t.Fatalf("durable InsertBatch built height %d, the unlogged build %d", d.Height(), plain.Height())
		}
		if !bytes.Equal(backupFrames(backupOf(t, d.Tree)), backupFrames(backupOf(t, plain))) {
			t.Fatal("durable InsertBatch built other pages than the unlogged build")
		}
	})
}
