package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"bvtree/internal/page"
	"bvtree/internal/vfs"
)

// FileStore is a file-backed Store. The file is an array of fixed-size
// slots; a node occupies a chain of one or more slots, so nodes may be
// arbitrarily large (the BV-tree's level-scaled index pages of §7.3 simply
// chain more slots). Slot 0 holds the store header. Freed slots are linked
// into an intrusive free list.
//
// The store caches nothing: the decoded-node cache above it is the one
// cache. What it keeps in memory is the write set, the image of every slot
// written since the last Sync. A read takes a slot's image from the write
// set when it is there and from the file otherwise; a mutation changes the
// write-set image, loading it from the file first when it needs the old
// chain or free-list link. The file changes only at Sync, so between Syncs
// it holds exactly the last completed Sync — the checkpoint discipline
// a tree with a write-ahead log (bvtree.Open) builds on. The price is memory: every slot written
// since the last Sync stays resident as a full slot image.
//
// Concurrency: mutations (Alloc, WriteNode, Free, Sync, Close) hold the
// store lock exclusively; ReadNode, LendNode and Stats hold it
// shared and only read the write set, so parallel readers proceed together
// with no latch below the store lock.
//
// Crash safety: Sync is atomic. Before overwriting any slot it records the
// old images in a rollback journal (path + ".journal"), fsyncs the
// journal, writes the write set, fsyncs, writes the checksummed header,
// fsyncs, and only then invalidates the journal. Open rolls back a valid
// journal before reading the header, so a crash anywhere inside Sync
// recovers to exactly the pre-Sync state. After any failed write the store
// is poisoned: the write set and the file are in an unknown relationship,
// so every subsequent operation returns ErrPoisoned until the store is
// reopened.
type FileStore struct {
	mu       sync.RWMutex // exclusive for mutations, shared for reads
	fs       vfs.FS
	f        vfs.File
	jf       vfs.File // rollback journal, opened with the store
	path     string
	slotSize int
	nextSlot uint64
	freeHead uint64
	stats    Stats // counters updated atomically (reads run in parallel)

	// written is the write set: slot → its image since the last Sync.
	written map[uint64][]byte
	// slotBufs holds *[]byte buffers of one slot: each read takes one to
	// pread its slots into, and LendNode lends it.
	slotBufs sync.Pool

	closed   bool
	poisoned error // set under the exclusive lock
}

const (
	fileMagic      = 0xB7EEF11E00000001
	fileVersion    = 2  // v2: checksummed header, rollback journal
	slotHeaderSize = 12 // next slot (8) + fragment length (4)
	minSlotSize    = 64
	headerSize     = 40 // magic(8) + version(4) + slotSize(4) + nextSlot(8) + freeHead(8) + crc(4) + reserved(4)
)

var storeCRC = crc32.MakeTable(crc32.Castagnoli)

// FileStoreOptions configures a FileStore.
type FileStoreOptions struct {
	// SlotSize is the physical slot size in bytes (default 4096) of a
	// store OpenFileStore creates; a store it reopens keeps its own.
	SlotSize int
	// PoolSlots is ignored.
	//
	// Deprecated: the store has no buffer pool.
	PoolSlots int
	// PinDirty is ignored.
	//
	// Deprecated: every FileStore keeps its writes in memory until Sync.
	PinDirty bool
	// FS is the filesystem seam (default vfs.OS). Tests substitute a
	// fault-injecting implementation. Under concurrent readers the File
	// it returns must support parallel ReadAt, as *os.File does;
	// single-threaded fault-injection harnesses need not.
	FS vfs.FS
}

// OpenFileStore is the one store constructor. It creates the file at
// path when it is absent and starts a store in a file too short for a
// header (see start); any other store it reopens, rolling back a valid
// journal left by a crash mid-Sync before it reads the header.
func OpenFileStore(path string, opts FileStoreOptions) (*FileStore, error) {
	if opts.FS == nil {
		opts.FS = vfs.OS{}
	}
	f, err := opts.FS.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	s := &FileStore{fs: opts.FS, f: f, path: path, written: make(map[uint64][]byte)}
	s.slotBufs.New = func() any {
		b := make([]byte, s.slotSize)
		return &b
	}
	if err := s.load(opts.SlotSize); err != nil {
		f.Close()
		if s.jf != nil {
			s.jf.Close()
		}
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	return s, nil
}

// CreateFileStore is OpenFileStore.
//
// Deprecated: kept only for benchmark/, which calls it in a fresh
// directory; ROADMAP 1(e) deletes it.
func CreateFileStore(path string, opts FileStoreOptions) (*FileStore, error) {
	return OpenFileStore(path, opts)
}

// load reads the header of the store in s.f, or starts one there.
func (s *FileStore) load(slotSize int) error {
	fi, err := s.f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() < headerSize {
		return s.start(fi.Size(), slotSize)
	}
	if err := s.openJournal(); err != nil {
		return err
	}
	if err := s.rollbackJournal(); err != nil {
		return err
	}
	hdr := make([]byte, headerSize)
	if _, err := s.f.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("read header: %w", err)
	}
	if err := s.decodeHeader(hdr); err != nil {
		return err
	}
	return s.checkFreeList()
}

// start writes the header of a store of slotSize-byte slots (default
// 4096) into a file of size bytes, too short for a header. A completed
// Sync always leaves a whole header, so such a file holds no synced
// state: it is empty, or a crash tore its header while the store was
// being created. Any other short file is not a store and is refused
// untouched. A journal beside a short file is an earlier store's, and
// rolled back over this one it would destroy it, so it is discarded.
func (s *FileStore) start(size int64, slotSize int) error {
	if slotSize == 0 {
		slotSize = 4096
	}
	if slotSize < minSlotSize {
		return fmt.Errorf("slot size %d below minimum %d", slotSize, minSlotSize)
	}
	s.slotSize, s.nextSlot = slotSize, 1
	hdr, torn := s.encodeHeader(), make([]byte, size)
	if _, err := s.f.ReadAt(torn, 0); err != nil {
		return fmt.Errorf("read header: %w", err)
	}
	if !bytes.HasPrefix(hdr[:12], torn[:min(size, 12)]) { // magic and version
		return fmt.Errorf("%w: not a bvtree store", ErrCorrupt)
	}
	if err := s.openJournal(); err != nil {
		return err
	}
	if fi, err := s.jf.Stat(); err != nil || fi.Size() > 0 {
		if err := s.invalidateJournal(); err != nil {
			return err
		}
	}
	_, err := s.f.WriteAt(hdr, 0)
	return err
}

func (s *FileStore) encodeHeader() []byte {
	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint64(hdr, fileMagic)
	binary.LittleEndian.PutUint32(hdr[8:], fileVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(s.slotSize))
	binary.LittleEndian.PutUint64(hdr[16:], s.nextSlot)
	binary.LittleEndian.PutUint64(hdr[24:], s.freeHead)
	binary.LittleEndian.PutUint32(hdr[32:], crc32.Checksum(hdr[:32], storeCRC))
	return hdr
}

func (s *FileStore) decodeHeader(hdr []byte) error {
	if binary.LittleEndian.Uint64(hdr) != fileMagic {
		return fmt.Errorf("%w: not a bvtree store", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != fileVersion {
		return fmt.Errorf("%w: unsupported store version %d", ErrCorrupt, v)
	}
	if got, want := crc32.Checksum(hdr[:32], storeCRC), binary.LittleEndian.Uint32(hdr[32:]); got != want {
		return fmt.Errorf("%w: header checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	s.slotSize = int(binary.LittleEndian.Uint32(hdr[12:]))
	s.nextSlot = binary.LittleEndian.Uint64(hdr[16:])
	s.freeHead = binary.LittleEndian.Uint64(hdr[24:])
	if s.slotSize < minSlotSize {
		return fmt.Errorf("%w: slot size %d", ErrCorrupt, s.slotSize)
	}
	if s.nextSlot < 1 {
		return fmt.Errorf("%w: next slot %d", ErrCorrupt, s.nextSlot)
	}
	return nil
}

// checkFreeList walks the free chain and rejects out-of-range links and
// cycles, so that latent corruption of an unchecksummed free-list link is
// caught at open rather than silently handing out a live slot later.
func (s *FileStore) checkFreeList() error {
	seen := uint64(0)
	buf := make([]byte, 8)
	for slot := s.freeHead; slot != 0; {
		if slot >= s.nextSlot {
			return fmt.Errorf("%w: free list links to slot %d beyond end %d", ErrCorrupt, slot, s.nextSlot)
		}
		if seen++; seen >= s.nextSlot {
			return fmt.Errorf("%w: free list cycle", ErrCorrupt)
		}
		if _, err := s.f.ReadAt(buf, s.offset(slot)); err != nil {
			return fmt.Errorf("read free slot %d: %w", slot, err)
		}
		slot = binary.LittleEndian.Uint64(buf)
	}
	// seen is the verified free-list length; seed the FreeSlots gauge.
	atomic.StoreInt64(&s.stats.FreeSlots, int64(seen))
	return nil
}

// payload capacity of one slot.
func (s *FileStore) payload() int { return s.slotSize - slotHeaderSize }

// SlotPayload implements Store: the slot size less the slot header,
// 4084 bytes at the default 4096-byte slot. The slot size is fixed when
// the file is created, so this never changes.
func (s *FileStore) SlotPayload() int { return s.payload() }

// offset is slot's position in the file.
func (s *FileStore) offset(slot uint64) int64 { return int64(slot) * int64(s.slotSize) }

// usable gates every public operation (store lock held, shared or
// exclusive).
func (s *FileStore) usable() error {
	if s.closed {
		return ErrClosed
	}
	if s.poisoned != nil {
		return fmt.Errorf("%w: %w", ErrPoisoned, s.poisoned)
	}
	return nil
}

// poison records the first failed mutation and returns err (exclusive
// lock held). Every later operation fails with ErrPoisoned.
func (s *FileStore) poison(err error) error {
	if s.poisoned == nil {
		s.poisoned = err
	}
	return err
}

// checkNext validates a slot-chain link read from slot.
func (s *FileStore) checkNext(slot, next uint64) error {
	if next != 0 && (next >= s.nextSlot || next == slot) {
		return fmt.Errorf("%w: slot %d links to invalid slot %d", ErrCorrupt, slot, next)
	}
	return nil
}

// --- the write set (exclusive lock held) ---

// image returns slot's write-set image, adding the file's copy first.
func (s *FileStore) image(slot uint64) ([]byte, error) {
	if img, ok := s.written[slot]; ok {
		return img, nil
	}
	img := make([]byte, s.slotSize)
	if _, err := s.f.ReadAt(img, s.offset(slot)); err != nil {
		return nil, fmt.Errorf("storage: read slot %d: %w", slot, err)
	}
	atomic.AddUint64(&s.stats.SlotReads, 1)
	s.written[slot] = img
	return img, nil
}

// blank returns slot's write-set image, zeroed.
func (s *FileStore) blank(slot uint64) []byte {
	img, ok := s.written[slot]
	if !ok {
		img = make([]byte, s.slotSize)
		s.written[slot] = img
	}
	clear(img)
	return img
}

func (s *FileStore) allocSlot() (uint64, error) {
	if s.freeHead != 0 {
		slot := s.freeHead
		img, err := s.image(slot)
		if err != nil {
			return 0, err
		}
		next := binary.LittleEndian.Uint64(img)
		if err := s.checkNext(slot, next); err != nil {
			return 0, err
		}
		s.freeHead = next
		atomic.AddInt64(&s.stats.FreeSlots, -1)
		return slot, nil
	}
	slot := s.nextSlot
	s.nextSlot++
	// Extend the file eagerly so ReadAt on a fresh slot cannot fail.
	if err := s.f.Truncate(s.offset(s.nextSlot)); err != nil {
		return 0, s.poison(fmt.Errorf("storage: extend file: %w", err))
	}
	return slot, nil
}

func (s *FileStore) freeSlot(slot uint64) {
	binary.LittleEndian.PutUint64(s.blank(slot), s.freeHead)
	s.freeHead = slot
	atomic.AddInt64(&s.stats.FreeSlots, 1)
}

// --- Store interface ---

// Alloc implements Store.
func (s *FileStore) Alloc() (page.ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return 0, err
	}
	slot, err := s.allocSlot()
	if err != nil {
		return 0, err
	}
	s.blank(slot)
	atomic.AddUint64(&s.stats.Allocs, 1)
	return page.ID(slot), nil
}

// ReadNode implements Store: the node as LendNode lends it, copied when
// it lies in the pooled slot buffer. Reads hold the store lock shared, so
// any number of them proceed in parallel.
func (s *FileStore) ReadNode(id page.ID) ([]byte, error) {
	bp := s.slotBufs.Get().(*[]byte)
	defer s.slotBufs.Put(bp)
	blob, lent, err := s.lend(id, *bp)
	if lent {
		blob = append([]byte(nil), blob...)
	}
	return blob, err
}

// LendNode implements Lender. A node of one slot outside the write set is
// lent in a pooled slot buffer, read there by one pread; use runs after
// the store lock is released, on a buffer no other read shares.
func (s *FileStore) LendNode(id page.ID, use func(page.ID, []byte) (any, error)) (any, error) {
	bp := s.slotBufs.Get().(*[]byte)
	defer s.slotBufs.Put(bp)
	blob, _, err := s.lend(id, *bp)
	if err != nil {
		return nil, err
	}
	return use(id, blob)
}

// lend is readNodeVia for one node under the shared store lock, with buf
// as the slot buffer.
func (s *FileStore) lend(id page.ID, buf []byte) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.usable(); err != nil {
		return nil, false, err
	}
	return s.readNodeVia(id, buf)
}

// readNodeVia is the one slot walk: it assembles the slot chain starting
// at id, taking each slot's image from the write set when the slot is
// there, and otherwise from the file, by one pread into buf, a slot
// buffer. A node of one slot read into buf comes back as a slice of buf,
// with lent set; any other node comes back as a fresh blob. A page past
// the allocated slots is refused with ErrUnallocated before any read.
func (s *FileStore) readNodeVia(id page.ID, buf []byte) (blob []byte, lent bool, err error) {
	if id == 0 || uint64(id) >= s.nextSlot {
		return nil, false, fmt.Errorf("%w: read of page %d", ErrUnallocated, id)
	}
	atomic.AddUint64(&s.stats.NodeReads, 1)
	var out []byte
	var hops uint64
	slot := uint64(id)
	for slot != 0 {
		if hops++; hops > s.nextSlot {
			return nil, false, fmt.Errorf("%w: slot chain cycle at page %d", ErrCorrupt, id)
		}
		img, written := s.written[slot]
		if !written {
			if _, err := s.f.ReadAt(buf, s.offset(slot)); err != nil {
				return nil, false, fmt.Errorf("storage: read slot %d: %w", slot, err)
			}
			atomic.AddUint64(&s.stats.SlotReads, 1)
			img = buf
		}
		frag, next, err := s.fragment(slot, img)
		if err != nil {
			return nil, false, err
		}
		if hops == 1 && next == 0 && !written {
			return frag, true, nil
		}
		out = append(out, frag...)
		slot = next
	}
	return out, false, nil
}

// fragment validates the slot image img of slot and returns its payload
// fragment and the next slot of the chain.
func (s *FileStore) fragment(slot uint64, img []byte) ([]byte, uint64, error) {
	next := binary.LittleEndian.Uint64(img)
	if err := s.checkNext(slot, next); err != nil {
		return nil, 0, err
	}
	n := int(binary.LittleEndian.Uint32(img[8:]))
	if n < 0 || n > s.payload() {
		return nil, 0, fmt.Errorf("%w: fragment length %d in slot %d", ErrCorrupt, n, slot)
	}
	return img[slotHeaderSize : slotHeaderSize+n], next, nil
}

// WriteNode implements Store. It reuses the existing chain, growing or
// shrinking it as required by the blob size. Any mid-write failure
// poisons the store: the chain may be half-updated.
func (s *FileStore) WriteNode(id page.ID, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	atomic.AddUint64(&s.stats.NodeWrites, 1)
	slot := uint64(id)
	for first := true; ; first = false {
		// The current image carries the old chain link.
		img, err := s.image(slot)
		if err != nil {
			if !first {
				return s.poison(err)
			}
			return err
		}
		oldNext := binary.LittleEndian.Uint64(img)
		if err := s.checkNext(slot, oldNext); err != nil {
			return s.poison(err)
		}
		n := min(len(blob), s.payload())
		next := uint64(0)
		if n < len(blob) {
			if next = oldNext; next == 0 {
				if next, err = s.allocSlot(); err != nil {
					return s.poison(err)
				}
				s.blank(next)
			}
		}
		copy(img[slotHeaderSize:], blob[:n])
		binary.LittleEndian.PutUint32(img[8:], uint32(n))
		binary.LittleEndian.PutUint64(img, next)
		blob = blob[n:]
		if next == 0 {
			// Final slot of the new chain: free any trailing slots of a
			// previously longer chain.
			return s.freeChain(oldNext)
		}
		slot = next
	}
}

// freeChain frees the slot chain starting at slot (exclusive lock held).
// It is called mid-mutation, so any failure poisons.
func (s *FileStore) freeChain(slot uint64) error {
	for hops := uint64(0); slot != 0; {
		if hops++; hops > s.nextSlot {
			return s.poison(fmt.Errorf("%w: slot chain cycle at slot %d", ErrCorrupt, slot))
		}
		img, err := s.image(slot)
		if err != nil {
			return s.poison(err)
		}
		next := binary.LittleEndian.Uint64(img)
		if err := s.checkNext(slot, next); err != nil {
			return s.poison(err)
		}
		s.freeSlot(slot)
		slot = next
	}
	return nil
}

// Free implements Store.
func (s *FileStore) Free(id page.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	atomic.AddUint64(&s.stats.Frees, 1)
	slot := uint64(id)
	// The head's link is checked before anything changes, so an unreadable
	// or corrupt head fails without poisoning.
	img, err := s.image(slot)
	if err != nil {
		return err
	}
	next := binary.LittleEndian.Uint64(img)
	if err := s.checkNext(slot, next); err != nil {
		return err
	}
	s.freeSlot(slot)
	return s.freeChain(next)
}

// Stats implements Store.
func (s *FileStore) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return loadStats(&s.stats)
}

// Sync implements Store: atomically writes the write set and the header.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	return s.syncLocked()
}

// syncLocked runs the atomic flush protocol:
//
//  1. journal the old image of every slot about to change, plus the old
//     header; fsync the journal;
//  2. write the write set; fsync the data file;
//  3. write the new checksummed header; fsync the data file;
//  4. invalidate the journal (truncate + fsync).
//
// A crash before step 2 leaves the old state untouched (the journal is
// ignored if incomplete, rolled back harmlessly if complete); a crash in
// steps 2–4 is undone by rollbackJournal at the next open. The slot
// writes in step 2 are ordered before the header write of step 3 by the
// intervening fsync, so the header can never describe slots that have not
// reached the disk. The write set is emptied once all four steps are done.
func (s *FileStore) syncLocked() error {
	slots := make([]uint64, 0, len(s.written))
	for slot := range s.written {
		slots = append(slots, slot)
	}
	slices.Sort(slots)
	newHdr := s.encodeHeader()
	if len(slots) == 0 {
		// Header-only sync: skip the journal when the disk already agrees.
		old := make([]byte, headerSize)
		if _, err := s.f.ReadAt(old, 0); err == nil && bytes.Equal(old, newHdr) {
			return nil
		}
	}
	if err := s.writeJournal(slots); err != nil {
		return s.poison(fmt.Errorf("storage: %w", err))
	}
	for _, slot := range slots {
		if _, err := s.f.WriteAt(s.written[slot], s.offset(slot)); err != nil {
			return s.poison(fmt.Errorf("storage: write slot %d: %w", slot, err))
		}
		atomic.AddUint64(&s.stats.SlotWrites, 1)
	}
	if err := s.f.Sync(); err != nil {
		return s.poison(fmt.Errorf("storage: fsync %s: %w", s.path, err))
	}
	if _, err := s.f.WriteAt(newHdr, 0); err != nil {
		return s.poison(fmt.Errorf("storage: write header: %w", err))
	}
	if err := s.f.Sync(); err != nil {
		return s.poison(fmt.Errorf("storage: fsync %s: %w", s.path, err))
	}
	if err := s.invalidateJournal(); err != nil {
		return s.poison(fmt.Errorf("storage: %w", err))
	}
	s.written = make(map[uint64][]byte)
	return nil
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.poisoned != nil {
		// The write set's state is unknown; do not write it over the last
		// good checkpoint. Just release the descriptors.
		s.f.Close()
		s.jf.Close()
		return fmt.Errorf("%w: %w", ErrPoisoned, s.poisoned)
	}
	err := s.syncLocked()
	cerr := s.f.Close()
	s.jf.Close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("storage: close %s: %w", s.path, cerr)
	}
	return nil
}
