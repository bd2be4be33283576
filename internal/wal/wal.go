// Package wal implements a minimal append-only write-ahead log with
// per-record checksums. The durable tree layer (bvtree.NewDurable) logs
// logical operations here and replays them on open, providing
// redo-from-checkpoint recovery on top of the page store — the
// "completely predictable all the time" operational requirement the
// paper's introduction motivates.
//
// On-disk layout: a 24-byte preamble (magic, checkpoint epoch, base LSN,
// CRC) followed by records, each `length(4) | crc32(4) | body`. The epoch
// in the preamble mirrors the store's checkpoint epoch and tells recovery
// whether the records postdate the last checkpoint (replay them) or were
// already absorbed by a checkpoint that crashed before resetting the log
// (discard them). The base LSN numbers the first record of the log: the
// i-th intact record (0-based) has LSN base+i+1, so point-in-time restore
// can address "replay through LSN n" across log resets.
//
// Replay distinguishes two kinds of damage. A torn *tail* — the expected
// residue of a crash mid-append — ends the replay cleanly and is
// truncated. A damaged record with *intact records beyond it* is mid-log
// corruption: truncating there would silently discard acknowledged,
// fsynced operations, so Replay refuses with ErrCorrupt instead.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
	"time"

	"bvtree/internal/obs"
	"bvtree/internal/vfs"
)

// Sentinel errors, classified with errors.Is.
var (
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrCorrupt is returned when the log is damaged in a way that cannot
	// be the residue of a clean crash: a broken record with intact records
	// behind it, or a damaged preamble in front of intact records.
	ErrCorrupt = errors.New("wal: corrupt log")
)

// Log is an append-only record log. Concurrent use must be serialised by
// the caller (the durable tree holds its own mutex).
type Log struct {
	f       vfs.File
	path    string
	size    atomic.Int64 // record bytes, excluding the preamble; atomic so Size() can be read concurrently with a group-commit leader's append
	epoch   uint64
	baseLSN uint64
	hdrOK   bool // preamble present and intact on disk
	synced  bool
	closed  bool

	frameBuf []byte // reusable Append framing scratch

	// m holds the optional latency metrics. It is an atomic pointer
	// because a group-commit leader appends outside the owner's mutex, so
	// SetMetrics may race with an in-flight append.
	m atomic.Pointer[obs.WALMetrics]
}

// SetMetrics directs the log's append and fsync latency recordings into m;
// nil disables recording. Safe to call at any time, including while a
// group commit is in flight.
func (l *Log) SetMetrics(m *obs.WALMetrics) { l.m.Store(m) }

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	recordHeader = 8 // length (4) + crc (4)

	preambleSize  = 24         // magic (4) + epoch (8) + base LSN (8) + crc (4)
	preambleMagic = 0x464C4157 // "WALF"

	// maxRecord bounds a record length read from disk so that a damaged
	// length field cannot force a huge allocation.
	maxRecord = 1 << 30
)

// Open opens (or creates) the log at path on the real filesystem.
// Existing records are preserved for Replay.
func Open(path string) (*Log, error) { return OpenFS(vfs.OS{}, path) }

// OpenFS is Open over an explicit filesystem seam.
func OpenFS(fs vfs.FS, path string) (*Log, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	l := &Log{f: f, path: path}
	if st.Size() > 0 {
		hdr := make([]byte, preambleSize)
		n, _ := f.ReadAt(hdr, 0)
		if n == preambleSize &&
			binary.LittleEndian.Uint32(hdr) == preambleMagic &&
			crc32.Checksum(hdr[:20], crcTable) == binary.LittleEndian.Uint32(hdr[20:]) {
			l.hdrOK = true
			l.epoch = binary.LittleEndian.Uint64(hdr[4:])
			l.baseLSN = binary.LittleEndian.Uint64(hdr[12:])
			l.size.Store(st.Size() - preambleSize)
		} else {
			// Damaged preamble. If an intact record survives beyond it we
			// must not silently discard it.
			if off, found, serr := scanIntact(f, 1, st.Size()); serr != nil {
				f.Close()
				return nil, serr
			} else if found {
				f.Close()
				return nil, fmt.Errorf("wal: %s: %w: preamble damaged but intact record at offset %d", path, ErrCorrupt, off)
			}
			// Nothing recoverable; the next Reset or Append reinitialises.
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	return l, nil
}

// Epoch returns the checkpoint epoch recorded in the log's preamble
// (0 for a fresh or unrecoverably-damaged log).
func (l *Log) Epoch() uint64 { return l.epoch }

// BaseLSN returns the base LSN recorded in the log's preamble: the LSN
// of the record preceding the log's first record, so record i (0-based)
// has LSN BaseLSN()+i+1.
func (l *Log) BaseLSN() uint64 { return l.baseLSN }

// initPreamble (re)writes the preamble for the given epoch and base LSN,
// discarding any existing content.
func (l *Log) initPreamble(epoch, baseLSN uint64) error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate %s: %w", l.path, err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek %s: %w", l.path, err)
	}
	hdr := make([]byte, preambleSize)
	binary.LittleEndian.PutUint32(hdr, preambleMagic)
	binary.LittleEndian.PutUint64(hdr[4:], epoch)
	binary.LittleEndian.PutUint64(hdr[12:], baseLSN)
	binary.LittleEndian.PutUint32(hdr[20:], crc32.Checksum(hdr[:20], crcTable))
	if _, err := l.f.Write(hdr); err != nil {
		return fmt.Errorf("wal: write preamble %s: %w", l.path, err)
	}
	l.epoch = epoch
	l.baseLSN = baseLSN
	l.hdrOK = true
	l.size.Store(0)
	l.synced = false
	return nil
}

// Append writes recs as one contiguous run of frames with a single Write.
// The records are durable only after Sync. Each keeps its own header, so
// Replay sees them exactly as if appended one by one — a crash mid-write
// recovers to a record-granularity prefix (never a torn record), because
// Replay's tail-truncation works record by record. Records must be
// non-empty: an empty record's header (zero length, zero CRC) is all zero
// bytes, which the corruption scanner could not tell apart from torn-write
// residue.
func (l *Log) Append(recs ...[]byte) error {
	if l.closed {
		return ErrClosed
	}
	total := 0
	for _, rec := range recs {
		if len(rec) == 0 {
			return fmt.Errorf("wal: append %s: empty record", l.path)
		}
		total += recordHeader + len(rec)
	}
	if total == 0 {
		return nil
	}
	if !l.hdrOK {
		if err := l.initPreamble(l.epoch, l.baseLSN); err != nil {
			return err
		}
	}
	if cap(l.frameBuf) < total {
		l.frameBuf = make([]byte, total)
	}
	buf := l.frameBuf[:total]
	off := 0
	for _, rec := range recs {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(rec)))
		binary.LittleEndian.PutUint32(buf[off+4:], crc32.Checksum(rec, crcTable))
		copy(buf[off+recordHeader:], rec)
		off += recordHeader + len(rec)
	}
	m := l.m.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append %s: %w", l.path, err)
	}
	if m != nil {
		m.Append.ObserveSince(start)
	}
	l.size.Add(int64(total))
	l.synced = false
	return nil
}

// AppendBatch is Append followed by Sync: the group committer's one write
// and one fsync per batch. An empty batch only syncs.
func (l *Log) AppendBatch(recs [][]byte) error {
	if err := l.Append(recs...); err != nil {
		return err
	}
	return l.Sync()
}

// Sync makes all appended records durable.
func (l *Log) Sync() error {
	if l.closed {
		return ErrClosed
	}
	if l.synced {
		return nil
	}
	m := l.m.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", l.path, err)
	}
	if m != nil {
		m.Fsync.ObserveSince(start)
	}
	l.synced = true
	return nil
}

// Size returns the bytes of records currently in the log (excluding the
// preamble); 0 means the log is empty.
func (l *Log) Size() int64 { return l.size.Load() }

// Replay invokes fn for every intact record in order. A torn or corrupt
// tail (the expected result of a crash mid-append) ends the replay
// cleanly; the log is truncated to the last intact record so subsequent
// appends extend a consistent prefix. A damaged record with intact
// records beyond it is mid-log corruption and fails with ErrCorrupt —
// silently truncating there would drop acknowledged operations.
func (l *Log) Replay(fn func(rec []byte) error) error {
	if l.closed {
		return ErrClosed
	}
	if !l.hdrOK {
		return nil
	}
	if _, err := l.f.Seek(preambleSize, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek %s: %w", l.path, err)
	}
	off := int64(preambleSize)
	end := int64(preambleSize) + l.size.Load()
	hdr := make([]byte, recordHeader)
	for {
		if _, err := io.ReadFull(l.f, hdr); err != nil {
			break // clean EOF or torn header
		}
		n := binary.LittleEndian.Uint32(hdr)
		want := binary.LittleEndian.Uint32(hdr[4:])
		if int64(n) > end-off-recordHeader || n > maxRecord {
			break // torn record
		}
		rec := make([]byte, n)
		if _, err := io.ReadFull(l.f, rec); err != nil {
			break
		}
		if crc32.Checksum(rec, crcTable) != want {
			break // damaged record
		}
		if err := fn(rec); err != nil {
			return err
		}
		off += int64(recordHeader) + int64(n)
		if off == end {
			return nil // clean end, nothing to truncate
		}
	}
	// Damage at off. Tail damage is truncated; damage shadowing intact
	// records is refused.
	if intact, found, err := scanIntact(l.f, off+1, end); err != nil {
		return err
	} else if found {
		return fmt.Errorf("wal: %s: %w: record at offset %d damaged, intact record follows at offset %d", l.path, ErrCorrupt, off, intact)
	}
	if err := l.f.Truncate(off); err != nil {
		return fmt.Errorf("wal: truncate tail %s: %w", l.path, err)
	}
	l.size.Store(off - preambleSize)
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("wal: seek %s: %w", l.path, err)
	}
	return nil
}

// scanIntact reports whether any offset in [from, end) starts an intact
// record (a plausible length followed by a body matching its checksum). It
// reads the scanned region into memory; it only runs on the error path of
// a damaged log, which in this design is bounded by the operations since
// the last checkpoint.
func scanIntact(f vfs.File, from, end int64) (int64, bool, error) {
	if from < 0 || from >= end {
		return 0, false, nil
	}
	buf := make([]byte, end-from)
	if _, err := f.ReadAt(buf, from); err != nil {
		return 0, false, fmt.Errorf("wal: scan: %w", err)
	}
	for off := int64(0); off+recordHeader <= int64(len(buf)); off++ {
		n := binary.LittleEndian.Uint32(buf[off:])
		// n == 0 is excluded: Append forbids empty records precisely so
		// that all-zero bytes (common in torn-write residue) can never
		// scan as an intact record.
		if n == 0 || n > maxRecord || int64(n) > int64(len(buf))-off-recordHeader {
			continue
		}
		want := binary.LittleEndian.Uint32(buf[off+4:])
		body := buf[off+recordHeader : off+recordHeader+int64(n)]
		if crc32.Checksum(body, crcTable) == want {
			return from + off, true, nil
		}
	}
	return 0, false, nil
}

// Reset empties the log after a checkpoint has made its contents
// redundant, stamps the new checkpoint epoch into the preamble, and makes
// the result durable. The base LSN is preserved; use ResetAt when the
// checkpoint knows how many records it absorbed.
func (l *Log) Reset(epoch uint64) error {
	return l.ResetAt(epoch, l.baseLSN)
}

// ResetAt is Reset with an explicit base LSN: the LSN of the last record
// the checkpoint absorbed, so the log's next record is numbered
// baseLSN+1.
func (l *Log) ResetAt(epoch, baseLSN uint64) error {
	if l.closed {
		return ErrClosed
	}
	if err := l.initPreamble(epoch, baseLSN); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: reset fsync %s: %w", l.path, err)
	}
	l.synced = true
	return nil
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: close fsync %s: %w", l.path, err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", l.path, err)
	}
	return nil
}
