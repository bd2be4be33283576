// Package wal implements a minimal append-only write-ahead log with
// per-record checksums. A tree opened with a log (bvtree.Open) logs
// logical operations here and replays them on open, providing
// redo-from-checkpoint recovery on top of the page store — the
// "completely predictable all the time" operational requirement the
// paper's introduction motivates. Writers append through Enqueue and
// Wait, and the log group-commits them itself (see Log).
//
// On-disk layout: a 16-byte preamble (magic, base LSN, CRC) followed by
// records, each `length(4) | crc32(4) | body`. The base LSN numbers the
// log's records: the i-th intact record (0-based) has LSN base+i+1. A
// checkpoint empties the log at its own LSN, so recovery and
// point-in-time restore alike skip the records at or below the LSN of
// the state they start from and apply the rest.
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
	"sync"
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

// Log is an append-only record log and its own group committer. Enqueue
// frames records into a pending buffer under a short mutex and never
// waits for I/O; Wait makes them durable. A flush writes everything
// pending with one Write and makes it durable with one fsync. A waiter
// that finds no flush in flight flushes at once, so a solo writer pays
// one fsync per Wait; the first waiter to arrive while one is in flight
// leads the next, and every later waiter leaves that flush to it, so a
// batch is every record enqueued until the leader takes the buffer. The log order is the Enqueue order: the durable tree enqueues
// under its exclusive lock, which is what makes the log order its apply
// order.
//
// Failure is sticky: after a failed write or fsync the log's tail is
// unknown (a torn frame may sit beyond the last durable record, and a
// later append would shadow it), so every later Enqueue, Wait and Drain
// reports the first error. The owner must discard the log — and, for
// the durable tree, the whole in-memory state — and recover by replay.
//
// Replay, ResetAt and BaseLSN are the owner's, called while no
// record is pending: the durable tree calls them before it shares the
// log or under its exclusive lock after Drain.
type Log struct {
	f       vfs.File
	path    string
	size    atomic.Int64 // record bytes, excluding the preamble; atomic so Size can be read beside a flush
	baseLSN uint64
	hdrOK   bool // preamble present and intact on disk

	// mu guards the rest; it is never held over I/O. flushing is the
	// file's I/O lock: set while one flush writes and syncs outside mu,
	// and every waiter wakes on done when it ends, so the waiters it
	// covered return together.
	mu       sync.Mutex
	done     sync.Cond
	flushing bool
	next     bool   // a waiter leads the next flush
	pending  []byte // frames enqueued and not yet written
	npending uint64 // records in pending
	enqueued uint64 // sequence number of the last Enqueue
	durable  uint64 // every Enqueue up to this one is durable
	commits  uint64 // records made durable
	syncs    uint64 // flushes performed: one Write and one fsync each
	closed   bool
	failed   error

	// m holds the optional latency metrics. It is an atomic pointer
	// because a flush runs outside the owner's lock, so SetMetrics may
	// race with it.
	m atomic.Pointer[obs.WALMetrics]
}

// SetMetrics directs the log's write, fsync and group-commit recordings
// into m; nil disables recording. Safe to call at any time.
func (l *Log) SetMetrics(m *obs.WALMetrics) { l.m.Store(m) }

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	recordHeader = 8 // length (4) + crc (4)

	preambleSize  = 16         // magic (4) + base LSN (8) + crc (4)
	preambleMagic = 0x4E534C57 // "WLSN"; an earlier layout's log is refused, not misread

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
	l.done.L = &l.mu
	if st.Size() > 0 {
		hdr := make([]byte, preambleSize)
		n, _ := f.ReadAt(hdr, 0)
		if n == preambleSize &&
			binary.LittleEndian.Uint32(hdr) == preambleMagic &&
			crc32.Checksum(hdr[:12], crcTable) == binary.LittleEndian.Uint32(hdr[12:]) {
			l.hdrOK = true
			l.baseLSN = binary.LittleEndian.Uint64(hdr[4:])
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
			// Nothing recoverable; the next ResetAt or flush reinitialises.
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	return l, nil
}

// BaseLSN returns the base LSN recorded in the log's preamble: the LSN
// of the record preceding the log's first record, so record i (0-based)
// has LSN BaseLSN()+i+1 (0 for a fresh or unrecoverably-damaged log).
func (l *Log) BaseLSN() uint64 { return l.baseLSN }

// initPreamble (re)writes the preamble for the given base LSN,
// discarding any existing content.
func (l *Log) initPreamble(baseLSN uint64) error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate %s: %w", l.path, err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek %s: %w", l.path, err)
	}
	hdr := make([]byte, preambleSize)
	binary.LittleEndian.PutUint32(hdr, preambleMagic)
	binary.LittleEndian.PutUint64(hdr[4:], baseLSN)
	binary.LittleEndian.PutUint32(hdr[12:], crc32.Checksum(hdr[:12], crcTable))
	if _, err := l.f.Write(hdr); err != nil {
		return fmt.Errorf("wal: write preamble %s: %w", l.path, err)
	}
	l.baseLSN = baseLSN
	l.hdrOK = true
	l.size.Store(0)
	return nil
}

// Enqueue frames recs into the pending buffer as one contiguous run, so
// they occupy adjacent positions in the log and a crash recovers a
// record-granularity prefix of them, and returns the sequence number to
// Wait for. It copies the records and waits for no I/O: the caller may
// reuse its buffers as soon as it returns. Records must be non-empty: an
// empty record's header (zero length, zero CRC) is all zero bytes, which
// the corruption scanner could not tell apart from torn-write residue.
func (l *Log) Enqueue(recs ...[]byte) (uint64, error) {
	for _, rec := range recs {
		if len(rec) == 0 {
			return 0, fmt.Errorf("wal: append %s: empty record", l.path)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed != nil {
		return 0, l.stuck()
	}
	for _, rec := range recs {
		// The header is the length and a zero CRC, filled in from the
		// copy: rec itself never escapes, so it may live on a stack.
		at := len(l.pending)
		l.pending = binary.LittleEndian.AppendUint64(l.pending, uint64(len(rec)))
		l.pending = append(l.pending, rec...)
		binary.LittleEndian.PutUint32(l.pending[at+4:], crc32.Checksum(l.pending[at+recordHeader:], crcTable))
	}
	l.npending += uint64(len(recs))
	l.enqueued++
	return l.enqueued, nil
}

// Wait returns once the Enqueue that returned seq is durable, with the
// outcome of the flush that carried it. When the log carries metrics it
// records its own duration, enqueue-to-durable, into GroupWait.
func (l *Log) Wait(seq uint64) error {
	m := l.m.Load()
	if m == nil {
		return l.flush(seq)
	}
	start := time.Now()
	err := l.flush(seq)
	m.GroupWait.ObserveSince(start)
	return err
}

// Drain makes every record enqueued so far durable and returns the log's
// sticky failure, if any. The owner must keep new records out while it
// needs a drained log (a checkpoint's ResetAt): the durable tree drains
// under its exclusive lock.
func (l *Log) Drain() error {
	l.mu.Lock()
	seq := l.enqueued
	l.mu.Unlock()
	return l.flush(seq)
}

// Stats returns the records made durable so far and the flushes that
// did it; their ratio is the amortisation group commit achieved.
func (l *Log) Stats() (commits, syncs uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commits, l.syncs
}

// stuck is the error every call reports once a flush has failed (mu held).
func (l *Log) stuck() error {
	return fmt.Errorf("wal: %s failed earlier: %w", l.path, l.failed)
}

// flush returns once the Enqueue numbered seq is durable. Unless a flush
// before it already covered seq, it takes the whole pending buffer and
// writes it with one Write and one fsync — at once when no flush is in
// flight and no waiter leads the next, else as that leader or behind it.
// A leader that starts no flush (covered, or failed) hands the lead back.
func (l *Log) flush(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	lead := false
	defer func() {
		if lead {
			l.next = false
			l.done.Broadcast()
		}
	}()
	for l.durable < seq {
		if l.failed != nil {
			return l.stuck()
		}
		if l.flushing || (l.next && !lead) {
			if !l.next {
				l.next, lead = true, true
			}
			l.done.Wait()
			continue
		}
		buf, n, upTo := l.pending, l.npending, l.enqueued
		l.pending, l.npending, l.flushing = nil, 0, true
		l.next, lead = false, false
		l.mu.Unlock()
		err := l.write(buf)
		l.mu.Lock()
		l.flushing = false
		l.done.Broadcast()
		if err != nil {
			l.failed = err
			return err
		}
		l.durable = upTo
		l.commits += n
		l.syncs++
		if len(l.pending) == 0 {
			l.pending = buf[:0] // nothing arrived during the I/O: keep one buffer
		}
		if m := l.m.Load(); m != nil {
			m.GroupBatch.Observe(int64(n))
		}
	}
	return nil
}

// write appends frames to the file with one Write and makes them durable
// with one fsync (flushing set).
func (l *Log) write(frames []byte) error {
	if !l.hdrOK {
		if err := l.initPreamble(l.baseLSN); err != nil {
			return err
		}
	}
	m := l.m.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	if _, err := l.f.Write(frames); err != nil {
		return fmt.Errorf("wal: append %s: %w", l.path, err)
	}
	l.size.Add(int64(len(frames)))
	if m != nil {
		m.Append.ObserveSince(start)
		start = time.Now()
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", l.path, err)
	}
	if m != nil {
		m.Fsync.ObserveSince(start)
	}
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
	if l.isClosed() {
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
		// n == 0 is excluded: Enqueue forbids empty records precisely so
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

// ResetAt empties the log after a checkpoint has made its contents
// redundant, stamps baseLSN into the preamble — the checkpoint's LSN, so
// the log's next record is numbered baseLSN+1 — and makes the result
// durable. Drain first: a pending record would otherwise be numbered
// after the checkpoint it belongs before.
func (l *Log) ResetAt(baseLSN uint64) error {
	if l.isClosed() {
		return ErrClosed
	}
	if err := l.initPreamble(baseLSN); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: reset fsync %s: %w", l.path, err)
	}
	return nil
}

func (l *Log) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// Close refuses further Enqueues, writes any record still pending, and
// syncs and closes the file. It reports the log's sticky failure, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	seq := l.enqueued
	l.mu.Unlock()
	ferr := l.flush(seq) // no flush can start after this one
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: close fsync %s: %w", l.path, err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", l.path, err)
	}
	return ferr
}
