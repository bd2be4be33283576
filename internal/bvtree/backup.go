package bvtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"bvtree/internal/page"
	"bvtree/internal/region"
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
//	        | precision), root level, item count, LSN, header CRC
//	frames  | one per page, level order (root first), each
//	        | `length(4) | page blob` — the blob is the page encoding of
//	        | internal/page, which carries its own CRC
//	trailer | magic and a running CRC32-C over every preceding byte of
//	        | the stream
//
// Page IDs are normalised: the root becomes page 2 (page 1 is the meta
// page) and descendants are numbered in level order, exactly the order
// their frames appear. Every page hangs from exactly one parent entry, so
// that order is the whole structure: frame i is page 2+i, and the j-th
// child reference of the stream names page 3+j. A restore into a fresh
// store allocates the matching ID for each frame with no translation
// table, and two backups of identical logical states are byte-identical
// regardless of the ID churn history of their source stores. That gives
// the round-trip invariant the tests pin down: backup(restore(backup(T)))
// == backup(T).
//
// Damage handling on restore is never silent. Every blob must decode
// (page CRC) as the kind and level its parent entry gives it, with the
// region that entry's key names, every child reference must name the
// next page in level order, the frames must end when no page is still
// expected, and the stream CRC and the item total must match. A truncated or bit-flipped stream fails with
// ErrCorrupt — a restore can produce a short tree only by saying so.

// ErrCorrupt is returned by RestoreSnapshot and RestoreToLSN when the
// backup stream is damaged: truncated, bit-flipped, or structurally
// inconsistent with its own header. Classify with errors.Is.
var ErrCorrupt = errors.New("bvtree: corrupt backup stream")

const (
	backupMagic  = 0x42535642 // "BVSB"
	trailerMagic = 0x45535642 // "BVSE"
	// backupVer 4 is version 3's stream with the frames' pages in page
	// format 2 (column-major data pages): an earlier stream's pages
	// could not be decoded, so it is refused by its header.
	backupVer = 4

	// backupHeaderSize is the fixed header: magic(4) version(4) dims(4)
	// dataCapacity(4) fanout(4) bitsPerDim(4) levelScaled(4) rootLevel(4)
	// size(8) lsn(8) crc(4).
	backupHeaderSize = 52

	// backupTrailerSize is the trailer: magic(4) streamCRC(4).
	backupTrailerSize = 8

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
	s := t.Snapshot()
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
	met := s.owner.mv.met
	start := time.Now()
	n, err := s.v.backup(w)
	if err != nil {
		return err
	}
	met.Backups.Inc()
	met.BackupBytes.Add(uint64(n))
	met.BackupNs.ObserveSince(start)
	return nil
}

// backup writes v to w as a backup stream and returns its length. The
// frames follow the pages in level order, which the format needs, so
// this is a walk of its own rather than view.preorder.
func (v *view) backup(w io.Writer) (int64, error) {
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
	hdr = binary.LittleEndian.AppendUint64(hdr, v.lsn)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, backupCRCTable))
	if _, err := cw.Write(hdr); err != nil {
		return 0, err
	}

	// Frames in level order, in one pass. Children are renumbered
	// sequentially as their parent is encoded; the walk dequeues in the
	// same order, so frame i always carries normalised ID 2+i.
	var lenBuf [4]byte
	next := metaPageID + 2 // root is metaPageID+1; children follow
	queue := []qent{{id: v.root, level: v.rootLevel}}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		var blob []byte
		if e.level == 0 {
			dp, sc, err := v.borrowData(e.id, false)
			if err != nil {
				return 0, err
			}
			blob = page.EncodeData(dp, v.opt.Dims)
			v.paged.release(sc)
		} else {
			n, err := v.fetchIndex(e.id)
			if err != nil {
				return 0, err
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
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(blob)))
		if _, err := cw.Write(lenBuf[:]); err != nil {
			return 0, err
		}
		if _, err := cw.Write(blob); err != nil {
			return 0, err
		}
	}

	var tr [backupTrailerSize]byte
	binary.LittleEndian.PutUint32(tr[:4], trailerMagic)
	if _, err := cw.Write(tr[:4]); err != nil {
		return 0, err
	}
	// The stream CRC itself is written outside the CRC accumulation.
	binary.LittleEndian.PutUint32(tr[4:], cw.sum)
	if _, err := w.Write(tr[4:]); err != nil {
		return 0, err
	}
	return cw.n + 4, nil
}

// RestoreSnapshot rebuilds a tree from a backup stream into st, which
// must be a store that holds no tree, with no page allocated (the
// restored pages reuse the stream's normalised IDs, so the store's
// allocation sequence must be virgin).
// The restored tree is flushed as a checkpoint at the backup's LSN, which
// it reports, and which the store keeps: Open of the store with a log
// replays the log's records past that LSN to its end, and RestoreToLSN
// replays them to a target. Any damage to the stream fails with
// ErrCorrupt; a restore never silently yields a shorter tree than the
// backup held. Streams of versions 1 to 3 are refused before any page
// is written.
func RestoreSnapshot(st storage.Store, r io.Reader) (*Tree, error) {
	cr := &crcReader{r: r}
	hdr := make([]byte, backupHeaderSize)
	if _, err := io.ReadFull(cr, hdr); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(hdr) != backupMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	// The version is read before the header CRC: another version's
	// header need not end, or keep its CRC, where this one does.
	if ver := binary.LittleEndian.Uint32(hdr[4:]); ver != backupVer {
		return nil, fmt.Errorf("%w: unsupported backup version %d", ErrCorrupt, ver)
	}
	if crc32.Checksum(hdr[:backupHeaderSize-4], backupCRCTable) != binary.LittleEndian.Uint32(hdr[backupHeaderSize-4:]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	opt := Options{
		Dims:             int(binary.LittleEndian.Uint32(hdr[8:])),
		DataCapacity:     int(binary.LittleEndian.Uint32(hdr[12:])),
		Fanout:           int(binary.LittleEndian.Uint32(hdr[16:])),
		LevelScaledPages: binary.LittleEndian.Uint32(hdr[24:]) == 1,
	}
	rootLevel := int(binary.LittleEndian.Uint32(hdr[28:]))
	size := binary.LittleEndian.Uint64(hdr[32:])
	lsn := binary.LittleEndian.Uint64(hdr[40:])
	if err := opt.fill(0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if bits := binary.LittleEndian.Uint32(hdr[20:]); bits != bitsPerDim {
		return nil, fmt.Errorf("%w: %d bits per dimension, want %d", ErrCorrupt, bits, bitsPerDim)
	}

	metaID, err := st.Alloc()
	if err != nil {
		return nil, err
	}
	if metaID != metaPageID {
		return nil, fmt.Errorf("bvtree: restore store is not fresh (first page is %d)", metaID)
	}

	// The structure is checked as the frames arrive. want is the FIFO of
	// the entries that parents give the pages still to come, seeded with
	// the header's root level: frame i is page rootID+i and must be a data
	// page for level 0, an index node of that level otherwise, and its
	// region must be the entry's key (the root's region is the tree's
	// own, which no entry names); the next child reference must name page
	// next. The frames end exactly when want is empty. With the per-blob
	// CRCs this makes a silently short or tangled restore impossible.
	rootID := metaPageID + 1
	want := []page.Entry{{Level: rootLevel}}
	next := rootID + 1
	items := uint64(0)
	var lenBuf [4]byte
	for id := rootID; len(want) > 0; id++ {
		e, i := want[0], id-rootID
		want = want[1:]
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
		var reg region.BitString
		if e.Level == 0 {
			dp, dims, err := page.DecodeDataCols(blob, nil)
			if err != nil {
				return nil, fmt.Errorf("%w: frame %d: %v", ErrCorrupt, i, err)
			}
			if dims != opt.Dims {
				return nil, fmt.Errorf("%w: frame %d: page dims %d, tree dims %d", ErrCorrupt, i, dims, opt.Dims)
			}
			items += uint64(dp.Len())
			reg = dp.Region
		} else {
			n, err := page.DecodeIndex(blob)
			if err != nil {
				return nil, fmt.Errorf("%w: frame %d: %v", ErrCorrupt, i, err)
			}
			if n.Level != e.Level {
				return nil, fmt.Errorf("%w: frame %d: index level %d, its entry says %d", ErrCorrupt, i, n.Level, e.Level)
			}
			for _, c := range n.ReadEntries() {
				if c.Child != next {
					return nil, fmt.Errorf("%w: frame %d: child reference %d, want %d", ErrCorrupt, i, c.Child, next)
				}
				next++
				want = append(want, c)
			}
			reg = n.Region
		}
		if id != rootID && !reg.Equal(e.Key) {
			return nil, fmt.Errorf("%w: frame %d: region %v, its entry's key is %v", ErrCorrupt, i, reg, e.Key)
		}
		got, err := st.Alloc()
		if err != nil {
			return nil, err
		}
		if got != id {
			return nil, fmt.Errorf("bvtree: restore store is not fresh (allocated page %d, expected %d)", got, id)
		}
		if err := st.WriteNode(id, blob); err != nil {
			return nil, err
		}
	}

	var tr [backupTrailerSize]byte
	if _, err := io.ReadFull(cr, tr[:4]); err != nil {
		return nil, fmt.Errorf("%w: truncated trailer: %v", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(tr[:4]) != trailerMagic {
		return nil, fmt.Errorf("%w: bad trailer magic", ErrCorrupt)
	}
	sum := cr.sum
	if _, err := io.ReadFull(cr.r, tr[4:]); err != nil {
		return nil, fmt.Errorf("%w: truncated stream checksum: %v", ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint32(tr[4:]); got != sum {
		return nil, fmt.Errorf("%w: stream checksum mismatch: got %08x want %08x", ErrCorrupt, got, sum)
	}
	if items != size {
		return nil, fmt.Errorf("%w: stream holds %d items, header says %d", ErrCorrupt, items, size)
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
		LSN:          lsn,
	}
	if err := st.WriteNode(metaPageID, page.EncodeMeta(m)); err != nil {
		return nil, err
	}
	if err := st.Sync(); err != nil {
		return nil, err
	}
	return Open(st, nil, Options{})
}

// RestoreToLSN is point-in-time restore: it rebuilds the backup into st
// (see RestoreSnapshot), then replays l onto it by the rule Open
// recovers by (see Open), through upToLSN instead of to the log's end,
// so the state is exactly "every operation through upToLSN". The log
// must cover the gap: its base LSN must not exceed the backup's LSN
// (wal.ErrCorrupt otherwise), and it must actually contain records
// through upToLSN. Records the backup already holds are skipped, so any
// backup/log pair whose LSN ranges overlap replays correctly. The
// restored store is flushed at upToLSN.
func RestoreToLSN(st storage.Store, backup io.Reader, l *wal.Log, upToLSN uint64) (*Tree, error) {
	t, err := RestoreSnapshot(st, backup)
	if err != nil {
		return nil, err
	}
	if upToLSN < t.lsn {
		return nil, fmt.Errorf("bvtree: restore target LSN %d predates backup LSN %d", upToLSN, t.lsn)
	}
	if err := t.replay(l, upToLSN); err != nil {
		return nil, fmt.Errorf("bvtree: replay to LSN %d: %w", upToLSN, err)
	}
	if t.lsn < upToLSN {
		return nil, fmt.Errorf("bvtree: wal ends at LSN %d, before restore target %d", t.lsn, upToLSN)
	}
	if err := t.Flush(); err != nil {
		return nil, err
	}
	return t, nil
}
