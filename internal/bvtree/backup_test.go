package bvtree

// Proof of the backup/restore subsystem: byte-identical round trips,
// online backup consistency against a commit-point shadow, point-in-time
// restore to arbitrary LSNs, a kill-point sweep over the backup writer,
// and damage sweeps (truncation, bit flips) over the restore reader. The
// TestSnapshot* prefix keeps the concurrent cases in the `make verify`
// race subset.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/storage"
	"bvtree/internal/wal"
	"bvtree/internal/workload"
)

// buildTree inserts pts into a fresh in-memory tree with small pages (so
// even modest point counts exercise splits, promotions and guards).
func buildTree(t *testing.T, pts []geometry.Point) *Tree {
	t.Helper()
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func backupBytes(t *testing.T, tr *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.SnapshotBackup(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBackupRestoreRoundTrip pins the core contract: restore(backup(T))
// holds exactly T's items, and backup(restore(backup(T))) is
// byte-identical to backup(T) — the ID normalisation makes the stream a
// canonical form of the logical state.
func TestBackupRestoreRoundTrip(t *testing.T) {
	for _, kind := range []workload.Kind{workload.Uniform, workload.Clustered, workload.Skewed} {
		t.Run(string(kind), func(t *testing.T) {
			pts, err := workload.Generate(kind, 2, 1500, 41)
			if err != nil {
				t.Fatal(err)
			}
			tr := buildTree(t, pts)
			// Delete a third so the backed-up tree carries merge scars
			// (guards, dissolved regions), not just fresh splits.
			for i := 0; i < len(pts); i += 3 {
				if ok, err := tr.Delete(pts[i], uint64(i)); err != nil || !ok {
					t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
				}
			}
			b1 := backupBytes(t, tr)

			rt, err := RestoreSnapshot(storage.NewMemStore(), bytes.NewReader(b1))
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Validate(true); err != nil {
				t.Fatalf("restored tree validate: %v", err)
			}
			if got, want := rt.Len(), tr.Len(); got != want {
				t.Fatalf("restored Len=%d, want %d", got, want)
			}
			if err := diffSets(scanSet(t, tr.Scan), scanSet(t, rt.Scan)); err != nil {
				t.Fatalf("restored content: %v", err)
			}
			b2 := backupBytes(t, rt)
			if !bytes.Equal(b1, b2) {
				t.Fatalf("backup of restored tree differs: %d vs %d bytes", len(b1), len(b2))
			}
			// The restored tree is a live tree: it must accept writes.
			if err := rt.Insert(geometry.Point{3, 5}, 999999); err != nil {
				t.Fatal(err)
			}
			if err := rt.Validate(true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBackupRestoreEmptyTree round-trips the degenerate single-data-page
// tree.
func TestBackupRestoreEmptyTree(t *testing.T) {
	tr, err := New(Options{Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	b := backupBytes(t, tr)
	rt, err := RestoreSnapshot(storage.NewMemStore(), bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Len() != 0 || rt.Options().Dims != 3 {
		t.Fatalf("restored empty tree: Len=%d Dims=%d", rt.Len(), rt.Options().Dims)
	}
	if !bytes.Equal(b, backupBytes(t, rt)) {
		t.Fatal("empty-tree backup not canonical")
	}
}

// TestRestoreRefusesOtherPrecision: a backup header whose address
// precision is not 64 bits per dimension, under a valid header checksum,
// is refused with ErrCorrupt before any page is restored.
func TestRestoreRefusesOtherPrecision(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 100, 47)
	if err != nil {
		t.Fatal(err)
	}
	b := backupBytes(t, buildTree(t, pts))
	for _, bits := range []uint32{0, 32, 65} {
		dam := bytes.Clone(b)
		binary.LittleEndian.PutUint32(dam[20:], bits)
		binary.LittleEndian.PutUint32(dam[backupHeaderSize-4:],
			crc32.Checksum(dam[:backupHeaderSize-4], backupCRCTable))
		st := storage.NewMemStore()
		_, err := RestoreSnapshot(st, bytes.NewReader(dam))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bits per dimension") {
			t.Fatalf("backup with %d bits per dimension: %v, want ErrCorrupt naming the precision", bits, err)
		}
		if n := st.Stats().NodeWrites; n != 0 {
			t.Fatalf("backup with %d bits per dimension: refused after %d page writes", bits, n)
		}
	}
}

// TestRestoreRefusesVersion1: streams of the earlier formats, under a
// valid checksum, are refused with ErrCorrupt naming their version
// before any page is written: version 1, whose 68-byte header also
// declared a checkpoint epoch and the page count, and version 2, whose
// 60-byte header also declared the epoch.
func TestRestoreRefusesVersion1(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 100, 47)
	if err != nil {
		t.Fatal(err)
	}
	b := backupBytes(t, buildTree(t, pts))
	for ver, extra := range map[uint32][]uint64{
		1: {3, 0, 7}, // epoch, LSN, page count
		2: {3, 0},    // epoch, LSN
	} {
		old := bytes.Clone(b[:40]) // magic through the item count
		binary.LittleEndian.PutUint32(old[4:], ver)
		for _, v := range extra {
			old = binary.LittleEndian.AppendUint64(old, v)
		}
		old = binary.LittleEndian.AppendUint32(old, crc32.Checksum(old, backupCRCTable))
		old = append(old, b[backupHeaderSize:]...)
		st := storage.NewMemStore()
		_, err = RestoreSnapshot(st, bytes.NewReader(old))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", ver)) {
			t.Fatalf("version-%d stream: %v, want ErrCorrupt naming the version", ver, err)
		}
		if n := st.Stats().NodeWrites; n != 0 {
			t.Fatalf("version-%d stream: refused after %d page writes", ver, n)
		}
	}
}

// TestRestoreRefusesForgedStructure: streams whose every checksum is
// valid but whose level order does not describe one tree are refused
// with ErrCorrupt, each by the check that reads the structure from the
// frame order or from the entry that names the frame.
func TestRestoreRefusesForgedStructure(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 300, 49)
	if err != nil {
		t.Fatal(err)
	}
	b := backupBytes(t, buildTree(t, pts))
	hdr := b[:backupHeaderSize]
	var frames [][]byte
	for rest := b[backupHeaderSize : len(b)-backupTrailerSize]; len(rest) > 0; {
		n := 4 + binary.LittleEndian.Uint32(rest)
		frames = append(frames, rest[4:n])
		rest = rest[n:]
	}
	// stream re-signs a header and frames: header CRC, then stream CRC.
	stream := func(hdr []byte, frames [][]byte) []byte {
		out := bytes.Clone(hdr)
		binary.LittleEndian.PutUint32(out[backupHeaderSize-4:], crc32.Checksum(out[:backupHeaderSize-4], backupCRCTable))
		for _, f := range frames {
			out = binary.LittleEndian.AppendUint32(out, uint32(len(f)))
			out = append(out, f...)
		}
		out = binary.LittleEndian.AppendUint32(out, trailerMagic)
		return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, backupCRCTable))
	}
	if !bytes.Equal(stream(hdr, frames), b) {
		t.Fatal("re-signing the unchanged frames does not give the backup back")
	}
	root, err := page.DecodeIndex(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	swapped := root.Clone()
	swapped.SetChild(0, root.Cols().Child(1))
	swapped.SetChild(1, root.Cols().Child(0))
	taller := bytes.Clone(hdr)
	binary.LittleEndian.PutUint32(taller[28:], uint32(root.Level+1))
	with := func(i int, f []byte) [][]byte {
		out := slices.Clone(frames)
		out[i] = f
		return out
	}
	// The last two frames are data pages of the deepest level: swapped,
	// every kind, level and child number still checks, but each page
	// sits under the other's entry.
	last := len(frames) - 1
	for _, f := range frames[last-1:] {
		if k, _ := page.DecodeKind(f); k != page.KindData {
			t.Fatalf("frame of kind %d among the last two", k)
		}
	}
	dataSwapped := with(last, frames[last-1])
	dataSwapped[last-1] = frames[last]
	cases := []struct {
		name, want string
		stream     []byte
	}{
		{"children-swapped", "child reference", stream(hdr, with(0, page.EncodeIndex(swapped)))},
		{"root-level-lies", "index level", stream(taller, frames)},
		{"data-frame-as-root", "expected index page", stream(hdr, with(0, frames[len(frames)-1]))},
		{"last-frame-missing", "frame", stream(hdr, frames[:len(frames)-1])},
		{"extra-frame", "trailer magic", stream(hdr, append(slices.Clone(frames), frames[len(frames)-1]))},
		{"data-frames-swapped", "region", stream(hdr, dataSwapped)},
	}
	for _, c := range cases {
		_, err := RestoreSnapshot(storage.NewMemStore(), bytes.NewReader(c.stream))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want ErrCorrupt naming %q", c.name, err, c.want)
		}
	}
}

// TestSnapshotBackupVisitsEachNodeOnce pins the backup's one pass: it
// fetches every index node and every data page exactly once, so its
// NodeAccesses delta is the tree's node count, on an in-memory tree and
// on a reopened FileStore tree whose cache is far smaller than the tree.
func TestSnapshotBackupVisitsEachNodeOnce(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 3000, 48)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.db")
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	built, err := Open(st, nil, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := built.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := built.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reopened, err := Open(st, nil, Options{CacheNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Tree{"mem": buildTree(t, pts), "reopened": reopened} {
		s, err := tr.CollectStats()
		if err != nil {
			t.Fatal(err)
		}
		index := 0
		for _, ls := range s.IndexLevels {
			index += ls.Nodes
		}
		before := tr.Stats().NodeAccesses
		backupBytes(t, tr)
		if got, want := tr.Stats().NodeAccesses-before, uint64(index+s.DataPages); got != want {
			t.Fatalf("%s: backup made %d node accesses, want %d (%d index nodes + %d data pages)",
				name, got, want, index, s.DataPages)
		}
	}
}

// TestSnapshotBackupReadsPagesAlone pins that a tree's pages are its
// whole state: after a random insert/delete program Len is the number of
// items a walk of the pages finds, Snapshot().Backup and SnapshotBackup
// stream the same bytes, SnapshotBackup returns the tree's LSN (0
// without a log), and neither needs the tree to itself — both
// complete while the test holds the tree's shared lock, as a Lookup
// inside its shared-lock section would, and another goroutine keeps
// looking up.
func TestSnapshotBackupReadsPagesAlone(t *testing.T) {
	opt := Options{Dims: 2, DataCapacity: 8, Fanout: 8}
	for _, backend := range []string{"mem", "paged", "durable"} {
		t.Run(backend, func(t *testing.T) {
			var (
				tr  *Tree
				err error
			)
			switch backend {
			case "mem":
				tr, err = New(opt)
			case "paged":
				tr, err = Open(storage.NewMemStore(), nil, opt)
			case "durable":
				tr, err = openLogged(storage.NewMemStore(), filepath.Join(t.TempDir(), "p.wal"), opt)
			}
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tr.Close() })
			// The program draws from a small pool, so points repeat and some
			// deletes name an item that is not there.
			rng := rand.New(rand.NewSource(31))
			pool := make([]geometry.Point, 64)
			for i := range pool {
				pool[i] = clusteredPoint(rng, 2)
			}
			var stored []oracleItem
			for i := 0; i < 900; i++ {
				p := pool[rng.Intn(len(pool))]
				if rng.Intn(5) < 3 {
					if err := tr.Insert(p, uint64(i)); err != nil {
						t.Fatal(err)
					}
					stored = append(stored, oracleItem{p, uint64(i)})
					continue
				}
				victim := oracleItem{p, uint64(rng.Intn(i + 1))}
				if len(stored) > 0 && rng.Intn(4) != 0 {
					victim = stored[rng.Intn(len(stored))]
				}
				var want bool
				stored, want = oracleDelete(stored, victim.p, victim.payload)
				if got, err := tr.Delete(victim.p, victim.payload); err != nil || got != want {
					t.Fatalf("op %d: Delete = (%v, %v), want %v", i, got, err, want)
				}
			}
			if err := tr.Validate(true); err != nil {
				t.Fatal(err)
			}
			cs, err := tr.CollectStats()
			if err != nil {
				t.Fatal(err)
			}
			if tr.Len() != len(stored) || cs.Items != len(stored) {
				t.Fatalf("Len=%d, the pages hold %d items, the program left %d", tr.Len(), cs.Items, len(stored))
			}

			tr.mu.RLock()
			lookups := make(chan error, 1)
			stop, looped := make(chan struct{}), make(chan struct{}, 1)
			go func() {
				for i := 0; ; i++ {
					select {
					case <-stop:
						lookups <- nil
						return
					default:
					}
					if _, err := tr.Lookup(pool[i%len(pool)]); err != nil {
						lookups <- err
						return
					}
					select {
					case looped <- struct{}{}:
					default:
					}
				}
			}()

			snap := tr.Snapshot()
			var viaSnapshot bytes.Buffer
			if err := snap.Backup(&viaSnapshot); err != nil {
				t.Fatalf("Snapshot.Backup refused: %v", err)
			}
			snap.Release()
			// Error, not Fatal: the shared lock must still be released.
			var direct bytes.Buffer
			if lsn, err := tr.SnapshotBackup(&direct); err != nil || lsn != tr.lsn {
				t.Errorf("SnapshotBackup = %d, %v at LSN %d", lsn, err, tr.lsn)
			}
			if !bytes.Equal(viaSnapshot.Bytes(), direct.Bytes()) {
				t.Error("Snapshot().Backup and SnapshotBackup streamed different bytes for one state")
			}
			<-looped // a Lookup ran beside the backups
			close(stop)
			tr.mu.RUnlock()
			if err := <-lookups; err != nil {
				t.Fatal(err)
			}
			if err := tr.CheckSnapshots(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotBackupOnline is the online-backup differential: four
// writers commit through a durable tree while backups stream concurrently;
// each restored backup must equal the shadow state at the backup's
// commit point, and the reported LSN must equal the number of operations
// committed by then.
func TestSnapshotBackupOnline(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 2400, 42)
	if err != nil {
		t.Fatal(err)
	}
	d, err := openLogged(storage.NewMemStore(), filepath.Join(t.TempDir(), "b.wal"), Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var shadowMu sync.Mutex
	shadow := map[uint64]geometry.Point{}
	ops := uint64(0)

	var writers sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := w; i < len(pts); i += 4 {
				shadowMu.Lock()
				err := d.Insert(pts[i], uint64(i))
				if err == nil {
					shadow[uint64(i)] = pts[i]
					ops++
				}
				shadowMu.Unlock()
				if err != nil {
					errs <- err
					return
				}
				if i%5 == 0 {
					shadowMu.Lock()
					ok, err := d.Delete(pts[i], uint64(i))
					if err == nil && ok {
						delete(shadow, uint64(i))
						ops++
					}
					shadowMu.Unlock()
					if err != nil || !ok {
						errs <- fmt.Errorf("delete %d: ok=%v err=%v", i, ok, err)
						return
					}
				}
			}
		}(w)
	}

	type taken struct {
		stream  []byte
		want    map[uint64]geometry.Point
		wantLSN uint64
	}
	var backups []taken
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 6; k++ {
			var buf bytes.Buffer
			shadowMu.Lock()
			// The shadow copy and the backup pin happen at the same
			// commit point: no writer can commit in between.
			want := make(map[uint64]geometry.Point, len(shadow))
			for pl, p := range shadow {
				want[pl] = p
			}
			wantLSN := ops
			lsn, err := d.SnapshotBackup(&buf)
			shadowMu.Unlock()
			if err != nil {
				errs <- err
				return
			}
			if lsn != wantLSN {
				errs <- fmt.Errorf("backup LSN %d, %d operations committed", lsn, wantLSN)
				return
			}
			backups = append(backups, taken{stream: buf.Bytes(), want: want, wantLSN: lsn})
		}
	}()
	writers.Wait()
	<-done
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	for k, bk := range backups {
		rt, err := RestoreSnapshot(storage.NewMemStore(), bytes.NewReader(bk.stream))
		if err != nil {
			t.Fatalf("backup %d: %v", k, err)
		}
		if err := diffSets(bk.want, scanSet(t, rt.Scan)); err != nil {
			t.Fatalf("backup %d (lsn %d): %v", k, bk.wantLSN, err)
		}
		if err := rt.Validate(true); err != nil {
			t.Fatalf("backup %d: restored validate: %v", k, err)
		}
	}
	if err := d.CheckSnapshots(); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(true); err != nil {
		t.Fatal(err)
	}
}

// logicalOp mirrors one committed durable operation for shadow replay.
type logicalOp struct {
	del     bool
	p       geometry.Point
	payload uint64
}

// shadowAt replays the first n ops logically.
func shadowAt(ops []logicalOp, n uint64) map[uint64]geometry.Point {
	m := map[uint64]geometry.Point{}
	for i := uint64(0); i < n; i++ {
		if ops[i].del {
			delete(m, ops[i].payload)
		} else {
			m[ops[i].payload] = ops[i].p
		}
	}
	return m
}

// TestRestoreToLSN drives a durable tree through a scripted op sequence,
// backs up mid-stream, and then point-in-time-restores to a sweep of
// target LSNs — each restored tree must equal the logical prefix state,
// and restoring to the backup's own LSN must reproduce the backup
// byte-identically.
func TestRestoreToLSN(t *testing.T) {
	pts, err := workload.Generate(workload.Clustered, 2, 900, 43)
	if err != nil {
		t.Fatal(err)
	}
	var script []logicalOp
	for i, p := range pts {
		script = append(script, logicalOp{p: p, payload: uint64(i)})
		if i%4 == 0 {
			script = append(script, logicalOp{del: true, p: p, payload: uint64(i)})
		}
	}

	dir := t.TempDir()
	walPath := filepath.Join(dir, "pitr.wal")
	d, err := openLogged(storage.NewMemStore(), walPath, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}

	backupAt := uint64(len(script) / 2)
	var backup []byte
	for i, op := range script {
		if op.del {
			if _, err := d.Delete(op.p, op.payload); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := d.Insert(op.p, op.payload); err != nil {
				t.Fatal(err)
			}
		}
		if uint64(i+1) == backupAt {
			var buf bytes.Buffer
			lsn, err := d.SnapshotBackup(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if lsn != backupAt {
				t.Fatalf("backup LSN %d, want %d", lsn, backupAt)
			}
			backup = buf.Bytes()
		}
	}
	total := uint64(len(script))
	if got := d.LSN(); got != total {
		t.Fatalf("LSN=%d after %d ops", got, total)
	}

	// Every acknowledged record is fsynced, so a second handle on the
	// log file sees the full committed history (this is exactly the
	// "WAL archive" a point-in-time restore reads).
	openLog := func() *wal.Log {
		l, err := wal.Open(walPath)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	for _, target := range []uint64{backupAt, backupAt + 1, backupAt + 7, total - 1, total} {
		l := openLog()
		rt, err := RestoreToLSN(storage.NewMemStore(), bytes.NewReader(backup), l, target)
		l.Close()
		if err != nil {
			t.Fatalf("restore to %d: %v", target, err)
		}
		if err := diffSets(shadowAt(script, target), scanSet(t, rt.Scan)); err != nil {
			t.Fatalf("restore to %d: %v", target, err)
		}
		if err := rt.Validate(true); err != nil {
			t.Fatalf("restore to %d: validate: %v", target, err)
		}
		if target == backupAt {
			// Replaying zero records must reproduce the backup exactly.
			if !bytes.Equal(backup, backupBytes(t, rt)) {
				t.Fatal("restore-to-backup-LSN is not byte-identical to the backup")
			}
		}
	}

	// Error contracts: a target before the backup, and a target beyond
	// the log's end, both fail loudly.
	l := openLog()
	if _, err := RestoreToLSN(storage.NewMemStore(), bytes.NewReader(backup), l, backupAt-1); err == nil {
		t.Fatal("restore to pre-backup LSN unexpectedly succeeded")
	}
	l.Close()
	l = openLog()
	if _, err := RestoreToLSN(storage.NewMemStore(), bytes.NewReader(backup), l, total+5); err == nil {
		t.Fatal("restore past the log's end unexpectedly succeeded")
	}
	l.Close()

	// A checkpoint resets the log; restoring through the gap must be
	// refused (the archive no longer covers backup..target).
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(geometry.Point{1, 1}, 1<<40); err != nil {
		t.Fatal(err)
	}
	l = openLog()
	if l.BaseLSN() != total {
		t.Fatalf("post-checkpoint log base LSN %d, want %d", l.BaseLSN(), total)
	}
	if _, err := RestoreToLSN(storage.NewMemStore(), bytes.NewReader(backup), l, total+1); err == nil {
		t.Fatal("restore across a checkpointed-away log gap unexpectedly succeeded")
	}
	l.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotBackupStampsPinnedLSN pins that a snapshot of a durable tree
// carries the LSN of the state it pinned. A backup stamped with an older
// LSN would make RestoreToLSN replay records the backup already holds:
// n inserts restored as 2n items.
func TestSnapshotBackupStampsPinnedLSN(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "s.wal")
	d, err := openLogged(storage.NewMemStore(), walPath, Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 10
	for i := 0; i < n; i++ {
		if err := d.Insert(geometry.Point{uint64(i+1) << 40, 7}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := d.Snapshot()
	var backup bytes.Buffer
	err = snap.Backup(&backup)
	snap.Release()
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rt, err := RestoreToLSN(storage.NewMemStore(), &backup, l, d.LSN())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Len() != n {
		t.Fatalf("restored Len=%d from a backup at LSN %d, want %d", rt.Len(), d.LSN(), n)
	}
	if err := rt.Validate(true); err != nil {
		t.Fatal(err)
	}
}

// TestDurableLSNAcrossReopen verifies the LSN stream is continuous over
// checkpoint, crashless close and reopen.
func TestDurableLSNAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "l.wal")
	st := storage.NewMemStore()
	d, err := openLogged(st, walPath, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(workload.Uniform, 2, 64, 44)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts[:40] {
		if err := d.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pts[40:] {
		if err := d.Insert(p, uint64(40+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.LSN(); got != 64 {
		t.Fatalf("LSN=%d, want 64", got)
	}
	if err := d.Close(); err != nil { // checkpoints and resets the log
		t.Fatal(err)
	}
	d2, err := openLogged(st, walPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.LSN(); got != 64 {
		t.Fatalf("LSN=%d after reopen, want 64", got)
	}
	if err := d2.Insert(geometry.Point{9, 9}, 999); err != nil {
		t.Fatal(err)
	}
	if got := d2.LSN(); got != 65 {
		t.Fatalf("LSN=%d after one more op, want 65", got)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// failAfter is an io.Writer that fails once n bytes have been accepted —
// the backup-side kill point.
type failAfter struct {
	n       int
	written int
}

var errKilled = errors.New("backup writer killed")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) <= f.n {
		f.written += len(p)
		return len(p), nil
	}
	take := f.n - f.written
	f.written = f.n
	return take, errKilled
}

// TestSnapshotBackupCrashMatrix sweeps kill points over both directions:
// the backup writer dying at byte n (the tree must be unharmed and the
// next backup byte-identical), and the restore reader seeing a stream
// truncated at byte n or bit-flipped at byte n (the restore must fail
// with ErrCorrupt, never succeed short).
func TestSnapshotBackupCrashMatrix(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 800, 45)
	if err != nil {
		t.Fatal(err)
	}
	tr := buildTree(t, pts)
	want := backupBytes(t, tr)
	stride := len(want) / 64
	if stride < 1 {
		stride = 1
	}

	// Writer kill points.
	for n := 0; n < len(want); n += stride {
		if _, err := tr.SnapshotBackup(&failAfter{n: n}); !errors.Is(err, errKilled) {
			t.Fatalf("kill at byte %d: err=%v, want errKilled", n, err)
		}
		if err := tr.CheckSnapshots(); err != nil {
			t.Fatalf("kill at byte %d: %v", n, err)
		}
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	if got := backupBytes(t, tr); !bytes.Equal(want, got) {
		t.Fatal("backup changed after writer-kill sweep")
	}

	// Truncation sweep: every prefix must fail, and must fail as
	// corruption (not panic, not a short tree).
	for n := 0; n < len(want); n += stride {
		_, err := RestoreSnapshot(storage.NewMemStore(), bytes.NewReader(want[:n]))
		if err == nil {
			t.Fatalf("restore of %d-byte prefix unexpectedly succeeded", n)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("restore of %d-byte prefix: %v, want ErrCorrupt", n, err)
		}
	}

	// Bit-flip sweep: single-bit damage anywhere must be detected.
	for n := 0; n < len(want); n += stride {
		dam := bytes.Clone(want)
		dam[n] ^= 0x10
		rt, err := RestoreSnapshot(storage.NewMemStore(), bytes.NewReader(dam))
		if err == nil {
			// The only acceptable "success" would be a byte-identical
			// state, which a flip cannot produce.
			_ = rt
			t.Fatalf("restore with bit flip at byte %d unexpectedly succeeded", n)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("restore with bit flip at byte %d: %v, want ErrCorrupt", n, err)
		}
	}

	// Mid-restore kill: the target store dies partway. The restore must
	// fail; the damage stays confined to the scratch store.
	for _, failAt := range []int{1, 3, 7} {
		st := &failingStore{Store: storage.NewMemStore(), failAt: failAt}
		if _, err := RestoreSnapshot(st, bytes.NewReader(want)); err == nil {
			t.Fatalf("restore over store failing at write %d unexpectedly succeeded", failAt)
		}
	}
}

// failingStore fails the failAt-th WriteNode.
type failingStore struct {
	storage.Store
	failAt int
	writes int
}

func (f *failingStore) WriteNode(id page.ID, b []byte) error {
	f.writes++
	if f.writes >= f.failAt {
		return errKilled
	}
	return f.Store.WriteNode(id, b)
}

// FuzzRestore feeds arbitrary streams to RestoreSnapshot. The contract
// under fuzz: never panic; on success the tree must pass the full
// invariant check and re-backup to a canonical stream that restores to
// the same bytes (fixed point).
func FuzzRestore(f *testing.F) {
	pts, err := workload.Generate(workload.Uniform, 2, 300, 46)
	if err != nil {
		f.Fatal(err)
	}
	tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		f.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := tr.SnapshotBackup(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:backupHeaderSize-1])
	f.Add([]byte{})
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		rt, err := RestoreSnapshot(storage.NewMemStore(), bytes.NewReader(data))
		if err != nil {
			return // rejection is always acceptable; panics are not
		}
		if err := rt.Validate(true); err != nil {
			t.Fatalf("restore accepted a stream yielding an invalid tree: %v", err)
		}
		var b1 bytes.Buffer
		if _, err := rt.SnapshotBackup(&b1); err != nil {
			t.Fatalf("re-backup of accepted restore failed: %v", err)
		}
		rt2, err := RestoreSnapshot(storage.NewMemStore(), bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("canonical re-backup failed to restore: %v", err)
		}
		var b2 bytes.Buffer
		if _, err := rt2.SnapshotBackup(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("canonical backup is not a fixed point")
		}
	})
}
