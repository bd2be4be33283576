package bvtree

// Invariant battery for the sampling-based packed BulkLoad. The packed
// build takes a different path to the same structure as incremental
// inserts — z-sort, region packing, index assembly — so these tests pin
// the claims that make it interchangeable: full structural invariants,
// the paper's 1/3 data-page occupancy floor, exact content equality with
// the input (as a multiset, duplicates included), graceful degradation on
// a non-empty tree, and durability of a logged bulk batch.

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

// checkPackedTree asserts the full post-BulkLoad contract: structural
// invariants, the occupancy floor, and content == input.
func checkPackedTree(t *testing.T, tr *Tree, pts []geometry.Point, payloads []uint64) {
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
				checkPackedTree(t, tr, pts, payloads)
			})
		}
	}
}

// TestBulkLoadLargeScale loads the parallel path well past the 4096-point
// threshold. Validate walks the full structure but the content sweep uses
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
// addresses admit no region split, so the packer must emit oversized
// pages rather than fail, and every copy must survive.
func TestBulkLoadDuplicates(t *testing.T) {
	const n = 500
	p := geometry.Point{1 << 40, 1 << 41}
	pts := make([]geometry.Point, n)
	payloads := make([]uint64, n)
	for i := range pts {
		pts[i] = p.Clone()
		payloads[i] = uint64(i)
	}
	// Salt in a handful of distinct points so the packer still has splits
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

// TestBulkLoadBurstSkew feeds the heavy-tailed burst schedule's point
// stream — the adversarial arrival pattern from the backup experiments —
// through the packed build in one shot.
func TestBulkLoadBurstSkew(t *testing.T) {
	bursts, err := workload.Bursts(workload.Nested, 2, 30000, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	var pts []geometry.Point
	for _, b := range bursts {
		pts = append(pts, b...)
	}
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
	checkPackedTree(t, tr, pts, payloads)
}

// TestBulkLoadNonEmptyFallback pins the degraded path: on a tree that
// already holds items, BulkLoad is a z-sorted batch apply and the result
// must equal the union of both loads.
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
		t.Fatal("fallback BulkLoad diverged from insert union")
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
	checkPackedTree(t, d.Tree, pts, payloads)
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

// FuzzBulkLoad decodes arbitrary bytes into points, packs them into a
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
