package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The rollback journal makes FileStore.Sync atomic. Before Sync overwrites
// any slot it writes this single-shot undo record:
//
//	magic(8) | slotSize(4) | count(4) | oldHeader(40) |
//	count × ( slot(8) | oldImage(slotSize) ) | crc32(4)
//
// The trailing checksum covers everything before it, so a journal torn by
// a crash while it was being written is simply invalid — and an invalid
// journal is ignored, which is correct because Sync only starts touching
// the data file after the journal has been fsynced. A valid journal means
// the data file may hold any mix of old and new slots; rolling the old
// images and the old header back restores exactly the pre-Sync state.
// Rollback itself is idempotent: the journal is only invalidated
// (truncated) after the restored data has been fsynced.

const journalMagic = 0xB7EE10C4A11BAC01

func journalPath(path string) string { return path + ".journal" }

// openJournal opens (or creates) the store's journal file.
func (s *FileStore) openJournal() error {
	jf, err := s.fs.OpenFile(journalPath(s.path), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("open journal: %w", err)
	}
	s.jf = jf
	return nil
}

// writeJournal records the old on-disk images of the given slots and the
// old header, then fsyncs. Nothing in the data file may change before this
// returns.
//
// Slots at or beyond the old durable header's nextSlot carry no undo
// image: they were allocated after the last completed Sync, so the
// rolled-back state — whose header excludes them from every chain and
// from the free list — never reads them, and Alloc zeroes a slot's image
// before reuse. Skipping them turns the journal cost of an insert-heavy
// checkpoint from O(all touched slots) into O(pre-existing slots
// modified), which is the bulk of the checkpoint's write amplification
// for append-mostly workloads.
func (s *FileStore) writeJournal(slots []uint64) error {
	oldHdr := make([]byte, headerSize)
	if _, err := s.f.ReadAt(oldHdr, 0); err != nil {
		return fmt.Errorf("journal: read old header: %w", err)
	}
	oldNext := ^uint64(0) // journal everything if the old header is unusable
	if binary.LittleEndian.Uint64(oldHdr) == fileMagic &&
		crc32.Checksum(oldHdr[:32], storeCRC) == binary.LittleEndian.Uint32(oldHdr[32:]) {
		oldNext = binary.LittleEndian.Uint64(oldHdr[16:])
	}
	undo := make([]uint64, 0, len(slots))
	for _, slot := range slots {
		if slot < oldNext {
			undo = append(undo, slot)
		}
	}

	buf := make([]byte, 0, 16+headerSize+len(undo)*(8+s.slotSize)+4)
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], journalMagic)
	buf = append(buf, scratch[:]...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(s.slotSize))
	buf = append(buf, scratch[:4]...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(undo)))
	buf = append(buf, scratch[:4]...)
	buf = append(buf, oldHdr...)

	img := make([]byte, s.slotSize)
	for _, slot := range undo {
		if _, err := s.f.ReadAt(img, s.offset(slot)); err != nil {
			return fmt.Errorf("journal: read old slot %d: %w", slot, err)
		}
		binary.LittleEndian.PutUint64(scratch[:], slot)
		buf = append(buf, scratch[:]...)
		buf = append(buf, img...)
	}
	sum := crc32.Checksum(buf, storeCRC)
	binary.LittleEndian.PutUint32(scratch[:4], sum)
	buf = append(buf, scratch[:4]...)

	if err := s.jf.Truncate(0); err != nil {
		return fmt.Errorf("journal truncate: %w", err)
	}
	if _, err := s.jf.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("journal write: %w", err)
	}
	if err := s.jf.Sync(); err != nil {
		return fmt.Errorf("journal fsync: %w", err)
	}
	return nil
}

// invalidateJournal marks the journal consumed after a completed Sync.
func (s *FileStore) invalidateJournal() error {
	if err := s.jf.Truncate(0); err != nil {
		return fmt.Errorf("journal invalidate: %w", err)
	}
	if err := s.jf.Sync(); err != nil {
		return fmt.Errorf("journal invalidate fsync: %w", err)
	}
	return nil
}

// rollbackJournal undoes an interrupted Sync at open time. An empty or
// invalid (torn) journal is a no-op; a valid one is applied and then
// invalidated.
func (s *FileStore) rollbackJournal() error {
	st, err := s.jf.Stat()
	if err != nil {
		return fmt.Errorf("stat journal: %w", err)
	}
	if st.Size() == 0 {
		return nil
	}
	buf := make([]byte, st.Size())
	if _, err := io.ReadFull(io.NewSectionReader(s.jf, 0, st.Size()), buf); err != nil {
		return fmt.Errorf("read journal: %w", err)
	}
	const fixed = 8 + 4 + 4 + headerSize
	if len(buf) < fixed+4 || binary.LittleEndian.Uint64(buf) != journalMagic {
		return s.invalidateJournal() // torn while being written: Sync never touched the data file
	}
	slotSize := int(binary.LittleEndian.Uint32(buf[8:]))
	count := int(binary.LittleEndian.Uint32(buf[12:]))
	want := fixed + count*(8+slotSize) + 4
	if slotSize < minSlotSize || count < 0 || len(buf) != want {
		return s.invalidateJournal()
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, storeCRC) != sum {
		return s.invalidateJournal()
	}

	oldHdr := buf[16 : 16+headerSize]
	off := fixed
	for i := 0; i < count; i++ {
		slot := binary.LittleEndian.Uint64(buf[off:])
		img := buf[off+8 : off+8+slotSize]
		if _, err := s.f.WriteAt(img, int64(slot)*int64(slotSize)); err != nil {
			return fmt.Errorf("rollback slot %d: %w", slot, err)
		}
		off += 8 + slotSize
	}
	if _, err := s.f.WriteAt(oldHdr, 0); err != nil {
		return fmt.Errorf("rollback header: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("rollback fsync: %w", err)
	}
	return s.invalidateJournal()
}
