package bvtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"bvtree/internal/page"
	"bvtree/internal/storage"
	"bvtree/internal/wal"
)

// This file implements online backup and point-in-time restore on top of
// the MVCC snapshot machinery (mvcc.go).
//
// A backup streams one pinned epoch: SnapshotBackup pins the tree, so
// writers keep committing while the backup's view streams out unchanged.
// The stream is self-describing and self-verifying:
//
//	header  | magic, version, tree geometry (dims, capacities, address
//	        | precision), root level, item count, checkpoint epoch, base
//	        | LSN, page count, header CRC
//	frames  | one per page, level order (root first), each
//	        | `length(4) | page blob` — the blob is the page encoding of
//	        | internal/page, which carries its own CRC
//	trailer | magic, page count again, and a running CRC32-C over every
//	        | preceding byte of the stream
//
// Page IDs are normalised: the root becomes page 2 (page 1 is the meta
// page) and descendants are numbered in level order, exactly the order
// their frames appear — so a restore into a fresh store allocates the
// matching ID for each frame with no translation table, and two backups
// of identical logical states are byte-identical regardless of the ID
// churn history of their source stores. That gives the round-trip
// invariant the tests pin down: backup(restore(backup(T))) ==
// backup(T).
//
// Damage handling on restore is never silent. Every blob must decode
// (page CRC), the page graph must be exactly a tree over the declared
// page count, the item total must match the declared size, and the
// stream CRC must match. A truncated or bit-flipped stream fails with
// ErrCorrupt — a restore can produce a short tree only by saying so.

// ErrCorrupt is returned by RestoreSnapshot and RestoreToLSN when the
// backup stream is damaged: truncated, bit-flipped, or structurally
// inconsistent with its own header. Classify with errors.Is.
var ErrCorrupt = errors.New("bvtree: corrupt backup stream")

const (
	backupMagic  = 0x42535642 // "BVSB"
	trailerMagic = 0x45535642 // "BVSE"
	backupVer    = 1

	// backupHeaderSize is the fixed header: magic(4) version(4) dims(4)
	// dataCapacity(4) fanout(4) bitsPerDim(4) levelScaled(4) rootLevel(4)
	// size(8) epoch(8) baseLSN(8) pageCount(8) crc(4).
	backupHeaderSize = 68

	// maxBackupFrame bounds a frame length read from the stream so a
	// damaged length field cannot force a huge allocation.
	maxBackupFrame = 1 << 28
)

var backupCRCTable = crc32.MakeTable(crc32.Castagnoli)

// crcWriter wraps the destination, accumulating the stream CRC and the
// byte count as frames are written.
type crcWriter struct {
	w   io.Writer
	sum uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.sum = crc32.Update(cw.sum, backupCRCTable, p[:n])
	cw.n += int64(n)
	return n, err
}

// crcReader mirrors crcWriter on the restore side.
type crcReader struct {
	r   io.Reader
	sum uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.sum = crc32.Update(cr.sum, backupCRCTable, p[:n])
	return n, err
}

// readBlob reads n bytes in bounded chunks: the frame length field is
// only validated by the trailing stream CRC, so a damaged value must
// exhaust the reader, not allocate n bytes up front.
func readBlob(r io.Reader, n uint32) ([]byte, error) {
	const chunk = 1 << 16
	buf := make([]byte, 0, min(int(n), chunk))
	for len(buf) < int(n) {
		k := min(int(n)-len(buf), chunk)
		off := len(buf)
		buf = append(buf, make([]byte, k)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// SnapshotBackup streams a consistent backup of the tree's current state
// to w — the bytes Snapshot().Backup streams — and returns the LSN it
// captures: the backup holds every logged operation through that LSN and
// nothing after (0 on a tree with no log history). The state is pinned
// first (see Snapshot), so concurrent writers are never blocked and never
// observed: the backup is exactly the tree at the moment of the call.
func (t *Tree) SnapshotBackup(w io.Writer) (uint64, error) {
	s, err := t.Snapshot()
	if err != nil {
		return 0, err
	}
	defer s.Release()
	if err := s.Backup(w); err != nil {
		return 0, err
	}
	return s.v.lsn, nil
}

// qent is one queued page of the backup's level-order walk.
type qent struct {
	id    page.ID
	level int
}

// Backup streams the snapshot's pinned state to w in the backup format,
// with the LSN the state had at pin time in the header. Taking one
// Snapshot and both scanning and backing it up observes a single
// consistent state.
func (s *Snapshot) Backup(w io.Writer) error {
	v := s.v
	met := s.owner.mv.met
	start := time.Now()

	// Counting pass: the header declares the page count up front so the
	// restore side knows exactly how many frames to expect (a truncation
	// can then never read as a complete small tree).
	pageCount := uint64(0)
	queue := []qent{{id: v.root, level: v.rootLevel}}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		pageCount++
		if e.level == 0 {
			continue
		}
		n, err := v.fetchIndex(e.id)
		if err != nil {
			return err
		}
		for c, i := n.Cols(), 0; i < c.Len(); i++ {
			queue = append(queue, qent{id: c.Child(i), level: c.Level(i)})
		}
	}

	cw := &crcWriter{w: w}
	hdr := make([]byte, 0, backupHeaderSize)
	hdr = binary.LittleEndian.AppendUint32(hdr, backupMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, backupVer)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(v.opt.Dims))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(v.opt.DataCapacity))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(v.opt.Fanout))
	hdr = binary.LittleEndian.AppendUint32(hdr, bitsPerDim)
	var scaled uint32
	if v.opt.LevelScaledPages {
		scaled = 1
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, scaled)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(v.rootLevel))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(v.size))
	hdr = binary.LittleEndian.AppendUint64(hdr, v.epoch)
	hdr = binary.LittleEndian.AppendUint64(hdr, v.lsn)
	hdr = binary.LittleEndian.AppendUint64(hdr, pageCount)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, backupCRCTable))
	if _, err := cw.Write(hdr); err != nil {
		return err
	}

	// Streaming pass: frames in level order. Children are renumbered
	// sequentially as their parent is encoded; the walk dequeues in the
	// same order, so frame i always carries normalised ID 2+i.
	var lenBuf [4]byte
	writeFrame := func(blob []byte) error {
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(blob)))
		if _, err := cw.Write(lenBuf[:]); err != nil {
			return err
		}
		_, err := cw.Write(blob)
		return err
	}
	next := metaPageID + 2 // root is metaPageID+1; children follow
	queue = append(queue[:0], qent{id: v.root, level: v.rootLevel})
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		var blob []byte
		if e.level == 0 {
			dp, err := v.fetchData(e.id)
			if err != nil {
				return err
			}
			blob = page.EncodeData(dp, v.opt.Dims)
		} else {
			n, err := v.fetchIndex(e.id)
			if err != nil {
				return err
			}
			c := n.Clone()
			cols := c.Cols()
			for i := 0; i < cols.Len(); i++ {
				queue = append(queue, qent{id: cols.Child(i), level: cols.Level(i)})
				c.SetChild(i, next)
				next++
			}
			blob = page.EncodeIndex(c)
		}
		if err := writeFrame(blob); err != nil {
			return err
		}
	}

	var tr [16]byte
	binary.LittleEndian.PutUint32(tr[:4], trailerMagic)
	binary.LittleEndian.PutUint64(tr[4:12], pageCount)
	if _, err := cw.Write(tr[:12]); err != nil {
		return err
	}
	// The stream CRC itself is written outside the CRC accumulation.
	binary.LittleEndian.PutUint32(tr[12:], cw.sum)
	if _, err := w.Write(tr[12:]); err != nil {
		return err
	}
	met.Backups.Inc()
	met.BackupBytes.Add(uint64(cw.n) + 4)
	met.BackupNs.ObserveSince(start)
	return nil
}

// RestoreSnapshot rebuilds a tree from a backup stream into st, which
// must be a freshly created store (the restored pages reuse the stream's
// normalised IDs, so the store's allocation sequence must be virgin).
// The restored tree is flushed and ready for use — or for WAL replay,
// see RestoreToLSN. Any damage to the stream fails with ErrCorrupt;
// a restore never silently yields a shorter tree than the backup held.
func RestoreSnapshot(st storage.Store, r io.Reader) (*Tree, error) {
	cr := &crcReader{r: r}
	hdr := make([]byte, backupHeaderSize)
	if _, err := io.ReadFull(cr, hdr); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(hdr) != backupMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if crc32.Checksum(hdr[:backupHeaderSize-4], backupCRCTable) != binary.LittleEndian.Uint32(hdr[backupHeaderSize-4:]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	if ver := binary.LittleEndian.Uint32(hdr[4:]); ver != backupVer {
		return nil, fmt.Errorf("%w: unsupported backup version %d", ErrCorrupt, ver)
	}
	opt := Options{
		Dims:             int(binary.LittleEndian.Uint32(hdr[8:])),
		DataCapacity:     int(binary.LittleEndian.Uint32(hdr[12:])),
		Fanout:           int(binary.LittleEndian.Uint32(hdr[16:])),
		LevelScaledPages: binary.LittleEndian.Uint32(hdr[24:]) == 1,
	}
	rootLevel := int(binary.LittleEndian.Uint32(hdr[28:]))
	size := binary.LittleEndian.Uint64(hdr[32:])
	epoch := binary.LittleEndian.Uint64(hdr[40:])
	baseLSN := binary.LittleEndian.Uint64(hdr[48:])
	pageCount := binary.LittleEndian.Uint64(hdr[56:])
	if err := opt.fill(0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if bits := binary.LittleEndian.Uint32(hdr[20:]); bits != bitsPerDim {
		return nil, fmt.Errorf("%w: %d bits per dimension, want %d", ErrCorrupt, bits, bitsPerDim)
	}
	if pageCount == 0 || pageCount > 1<<40 {
		return nil, fmt.Errorf("%w: implausible page count %d", ErrCorrupt, pageCount)
	}

	metaID, err := st.Alloc()
	if err != nil {
		return nil, err
	}
	if metaID != metaPageID {
		return nil, fmt.Errorf("bvtree: restore store is not fresh (first page is %d)", metaID)
	}

	// levels[i] is the index level of page metaPageID+1+i, or -1 for a
	// data page; refs collects every child reference for the structural
	// check below.
	type ref struct {
		child page.ID
		level int
	}
	// levels grows per decoded frame rather than being sized from the
	// header: the count is CRC-protected, but a stream that lies about it
	// must run out of frames, not out of memory.
	levels := make([]int, 0, 256)
	var refs []ref
	items := uint64(0)
	var lenBuf [4]byte
	for i := uint64(0); i < pageCount; i++ {
		if _, err := io.ReadFull(cr, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated at frame %d: %v", ErrCorrupt, i, err)
		}
		blen := binary.LittleEndian.Uint32(lenBuf[:])
		if blen < 8 || blen > maxBackupFrame {
			return nil, fmt.Errorf("%w: implausible frame length %d at frame %d", ErrCorrupt, blen, i)
		}
		blob, err := readBlob(cr, blen)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated at frame %d: %v", ErrCorrupt, i, err)
		}
		kind, err := page.DecodeKind(blob)
		if err != nil {
			return nil, fmt.Errorf("%w: frame %d: %v", ErrCorrupt, i, err)
		}
		switch kind {
		case page.KindIndex:
			n, err := page.DecodeIndex(blob)
			if err != nil {
				return nil, fmt.Errorf("%w: frame %d: %v", ErrCorrupt, i, err)
			}
			levels = append(levels, n.Level)
			for c, j := n.Cols(), 0; j < c.Len(); j++ {
				refs = append(refs, ref{child: c.Child(j), level: c.Level(j)})
			}
		case page.KindData:
			dp, dims, err := page.DecodeDataCols(blob)
			if err != nil {
				return nil, fmt.Errorf("%w: frame %d: %v", ErrCorrupt, i, err)
			}
			if dims != opt.Dims {
				return nil, fmt.Errorf("%w: frame %d: page dims %d, tree dims %d", ErrCorrupt, i, dims, opt.Dims)
			}
			levels = append(levels, -1)
			items += uint64(dp.Len())
		default:
			return nil, fmt.Errorf("%w: frame %d: unknown page kind %d", ErrCorrupt, i, kind)
		}
		id, err := st.Alloc()
		if err != nil {
			return nil, err
		}
		if want := metaPageID + 1 + page.ID(i); id != want {
			return nil, fmt.Errorf("bvtree: restore store is not fresh (allocated page %d, expected %d)", id, want)
		}
		if err := st.WriteNode(id, blob); err != nil {
			return nil, err
		}
	}

	// Structural check: the declared pages must form exactly one tree.
	// The root's level must match the header; every non-root page must be
	// referenced exactly once, by an entry whose level matches its kind
	// (and, for index children, its stored level); no reference may
	// escape the page range. Combined with the per-blob CRCs this makes a
	// silently short or tangled restore impossible.
	rootID := metaPageID + 1
	if rootLevel == 0 {
		if pageCount != 1 || levels[0] != -1 {
			return nil, fmt.Errorf("%w: header says data-page root but stream disagrees", ErrCorrupt)
		}
	} else if levels[0] != rootLevel {
		return nil, fmt.Errorf("%w: root level %d, header says %d", ErrCorrupt, levels[0], rootLevel)
	}
	if uint64(len(refs)) != pageCount-1 {
		return nil, fmt.Errorf("%w: %d child references for %d non-root pages", ErrCorrupt, len(refs), pageCount-1)
	}
	seen := make([]bool, pageCount)
	for _, rf := range refs {
		if rf.child <= rootID || rf.child >= rootID+page.ID(pageCount) {
			return nil, fmt.Errorf("%w: child reference %d out of range", ErrCorrupt, rf.child)
		}
		idx := uint64(rf.child - rootID) // position within levels
		if seen[idx] {
			return nil, fmt.Errorf("%w: page %d referenced twice", ErrCorrupt, rf.child)
		}
		seen[idx] = true
		got := levels[idx]
		switch {
		case rf.level == 0 && got != -1:
			return nil, fmt.Errorf("%w: level-0 entry references index page %d", ErrCorrupt, rf.child)
		case rf.level >= 1 && got != rf.level:
			return nil, fmt.Errorf("%w: level-%d entry references page %d at level %d", ErrCorrupt, rf.level, rf.child, got)
		}
	}
	if items != size {
		return nil, fmt.Errorf("%w: stream holds %d items, header says %d", ErrCorrupt, items, size)
	}

	var tr [12]byte
	if _, err := io.ReadFull(cr, tr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated trailer: %v", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(tr[:4]) != trailerMagic {
		return nil, fmt.Errorf("%w: bad trailer magic", ErrCorrupt)
	}
	if n := binary.LittleEndian.Uint64(tr[4:]); n != pageCount {
		return nil, fmt.Errorf("%w: trailer page count %d, header says %d", ErrCorrupt, n, pageCount)
	}
	want := cr.sum
	var sumBuf [4]byte
	if _, err := io.ReadFull(cr.r, sumBuf[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated stream checksum: %v", ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint32(sumBuf[:]); got != want {
		return nil, fmt.Errorf("%w: stream checksum mismatch: got %08x want %08x", ErrCorrupt, got, want)
	}

	m := &page.Meta{
		Dims:         opt.Dims,
		DataCapacity: opt.DataCapacity,
		Fanout:       opt.Fanout,
		BitsPerDim:   bitsPerDim,
		LevelScaled:  opt.LevelScaledPages,
		Root:         rootID,
		RootLevel:    rootLevel,
		Size:         size,
		Epoch:        epoch,
	}
	if err := st.WriteNode(metaPageID, page.EncodeMeta(m)); err != nil {
		return nil, err
	}
	if err := st.Sync(); err != nil {
		return nil, err
	}
	t, err := Open(st, nil, Options{})
	if err != nil {
		return nil, err
	}
	t.lsn = baseLSN
	return t, nil
}

// errStopReplay ends a WAL replay early once the requested LSN has been
// applied; it never escapes RestoreToLSN.
var errStopReplay = errors.New("bvtree: replay stop")

// RestoreToLSN is point-in-time restore: it rebuilds the backup into st
// (see RestoreSnapshot), then replays records from l on top until the
// state is exactly "every operation through upToLSN". The log must cover
// the gap: its base LSN must not exceed the backup's captured LSN, and
// it must actually contain records through upToLSN. Records the backup
// already contains are skipped, so any backup/log pair whose LSN ranges
// overlap replays correctly.
func RestoreToLSN(st storage.Store, backup io.Reader, l *wal.Log, upToLSN uint64) (*Tree, error) {
	t, err := RestoreSnapshot(st, backup)
	if err != nil {
		return nil, err
	}
	b := t.lsn
	if upToLSN < b {
		return nil, fmt.Errorf("bvtree: restore target LSN %d predates backup LSN %d", upToLSN, b)
	}
	if l.BaseLSN() > b {
		return nil, fmt.Errorf("bvtree: wal base LSN %d leaves a gap after backup LSN %d", l.BaseLSN(), b)
	}
	lsn := l.BaseLSN()
	err = l.Replay(func(rec []byte) error {
		lsn++
		if lsn <= b {
			return nil // already in the backup
		}
		if lsn > upToLSN {
			return errStopReplay
		}
		return applyRecord(t, rec)
	})
	if err != nil && !errors.Is(err, errStopReplay) {
		return nil, fmt.Errorf("bvtree: replay to LSN %d: %w", upToLSN, err)
	}
	if lsn < upToLSN {
		return nil, fmt.Errorf("bvtree: wal ends at LSN %d, before restore target %d", lsn, upToLSN)
	}
	t.lsn = upToLSN
	if err := t.Flush(); err != nil {
		return nil, err
	}
	return t, nil
}
