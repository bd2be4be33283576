package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"bvtree/internal/page"
	"bvtree/internal/vfs"
)

// FileStore is a file-backed Store. The file is an array of fixed-size
// slots; a node occupies a chain of one or more slots, so nodes may be
// arbitrarily large (the BV-tree's level-scaled index pages of §7.3 simply
// chain more slots). Slot 0 holds the store header. Freed slots are linked
// into an intrusive free list. A sharded LRU buffer pool caches slot
// frames and writes dirty frames back on eviction and on Sync.
//
// Concurrency: mutations (Alloc, WriteNode, Free, Sync, Close) hold the
// store lock exclusively; ReadNode and Stats hold it shared, so parallel
// readers proceed together. The buffer pool is striped into poolShards
// independent shards (latch per stripe), because even read-only traffic
// mutates pool state — a miss admits a frame, a hit reorders the LRU — and
// a single pool latch would serialise the very readers the shared lock
// admits. Lock order: store lock → shard latch → state latch; no path
// holds two shard latches at once.
//
// Frames are recycled: an eviction hands its victim's frame and buffer to
// the slot being admitted (takeFrame), so a pool miss at capacity
// allocates nothing. The rule that makes this safe: frame bytes are read
// and written only under the shard latch or the exclusive store lock, and
// a frame pointer is dead after the next pool call on its shard. A
// shared-lock reader therefore never holds a frame at all:
// appendPooledFragment copies the slot's payload out before it drops the
// latch, so the next miss on the shard, from any goroutine, may overwrite
// the buffer. The
// exclusive-lock paths do hold frame pointers across statements, and obey
// the second half: allocSlot reads the free-list link straight after its
// one pool call; Alloc and freeSlot write the frame their last pool call
// returned; Free reads a slot's link before freeSlot's pool call, which
// hits the frame just loaded; WriteNode reads the old link before it
// grows the chain (two pool calls, either of which may evict the still-
// clean head) and re-pins the head before writing to it, and its
// trailing-free loop is Free's. A frame is marked dirty in the statement
// group that writes it, before any further pool call, so an eviction
// writes it back (or, under PinDirty, skips it) rather than recycling
// unwritten changes.
//
// Crash safety: Sync is atomic. Before overwriting any slot it records the
// old images in a rollback journal (path + ".journal"), fsyncs the
// journal, writes the new slots, fsyncs, writes the checksummed header,
// fsyncs, and only then invalidates the journal. Open rolls back a valid
// journal before reading the header, so a crash anywhere inside Sync
// recovers to exactly the pre-Sync state. With PinDirty (no eviction
// write-back between Syncs) the disk therefore always holds exactly the
// last completed Sync — the checkpoint discipline bvtree.DurableTree
// builds on. After any failed write the store is poisoned: the pool/file
// relationship is unknown, so every subsequent operation returns
// ErrPoisoned until the store is reopened.
type FileStore struct {
	mu       sync.RWMutex // exclusive for mutations, shared for reads
	fs       vfs.FS
	f        vfs.File
	jf       vfs.File // rollback journal, created lazily on first Sync
	path     string
	slotSize int
	nextSlot uint64
	freeHead uint64
	stats    Stats // counters updated atomically (reads run in parallel)

	shardCap int // frame capacity per pool shard
	pinDirty bool
	shards   [poolShards]poolShard
	closed   bool

	// prefetchInflight bounds concurrent Prefetch goroutines; excess
	// hints are dropped (see Prefetch).
	prefetchInflight atomic.Int32

	stateMu  sync.Mutex // guards poisoned; a read-path eviction can poison
	poisoned error
}

// poolShards stripes the buffer pool. Shard selection is slot modulo
// poolShards, so the slots of one chain spread across stripes.
const poolShards = 16

// poolShard is one stripe of the buffer pool: a latch, the resident
// frames, and their LRU order.
type poolShard struct {
	mu     sync.Mutex
	frames map[uint64]*frame
	lru    frameList
}

// admit makes fr, which takeFrame returned, resident (latch held).
func (sh *poolShard) admit(fr *frame) {
	sh.frames[fr.slot] = fr
	sh.lru.pushFront(fr)
}

type frame struct {
	slot       uint64
	buf        []byte
	dirty      bool
	prev, next *frame
}

type frameList struct{ head, tail *frame }

func (l *frameList) pushFront(f *frame) {
	f.prev, f.next = nil, l.head
	if l.head != nil {
		l.head.prev = f
	}
	l.head = f
	if l.tail == nil {
		l.tail = f
	}
}

func (l *frameList) remove(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		l.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		l.tail = f.prev
	}
	f.prev, f.next = nil, nil
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
	// SlotSize is the physical slot size in bytes (default 4096).
	SlotSize int
	// PoolSlots is the buffer pool capacity in slots (default 1024). The
	// pool is striped into poolShards shards of PoolSlots/poolShards
	// frames each (minimum one frame per shard, so very small capacities
	// are rounded up to poolShards).
	PoolSlots int
	// PinDirty keeps dirty frames in memory until Sync instead of writing
	// them back on eviction. With PinDirty the on-disk image only changes
	// at Sync, so the disk always holds exactly the last explicitly
	// synced state — the checkpoint discipline bvtree.DurableTree relies
	// on. The pool may exceed PoolSlots while dirty frames accumulate.
	PinDirty bool
	// FS is the filesystem seam (default vfs.OS). Tests substitute a
	// fault-injecting implementation. Under concurrent readers the File
	// it returns must support parallel ReadAt/WriteAt, as *os.File does;
	// single-threaded fault-injection harnesses need not.
	FS vfs.FS
}

func (o *FileStoreOptions) fill() {
	if o.PoolSlots <= 0 {
		o.PoolSlots = 1024
	}
	if o.FS == nil {
		o.FS = vfs.OS{}
	}
}

func initShards(sh *[poolShards]poolShard) {
	for i := range sh {
		sh[i].frames = make(map[uint64]*frame)
	}
}

func shardCapFor(poolSlots int) int {
	c := poolSlots / poolShards
	if c < 1 {
		c = 1
	}
	return c
}

// CreateFileStore creates a new store file, truncating any existing file.
func CreateFileStore(path string, opts FileStoreOptions) (*FileStore, error) {
	if opts.SlotSize == 0 {
		opts.SlotSize = 4096
	}
	if opts.SlotSize < minSlotSize {
		return nil, fmt.Errorf("storage: slot size %d below minimum %d", opts.SlotSize, minSlotSize)
	}
	opts.fill()
	f, err := opts.FS.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", path, err)
	}
	s := &FileStore{
		fs:       opts.FS,
		f:        f,
		path:     path,
		slotSize: opts.SlotSize,
		nextSlot: 1,
		freeHead: 0,
		shardCap: shardCapFor(opts.PoolSlots),
		pinDirty: opts.PinDirty,
	}
	initShards(&s.shards)
	if _, err := s.f.WriteAt(s.encodeHeader(), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: write header: %w", err)
	}
	// A stale journal from a previous store at this path must not roll
	// back the fresh file.
	if err := s.openJournal(true); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// OpenFileStore opens an existing store file. A valid rollback journal
// left by a crash mid-Sync is applied first, restoring the pre-Sync state.
func OpenFileStore(path string, opts FileStoreOptions) (*FileStore, error) {
	opts.fill()
	f, err := opts.FS.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	s := &FileStore{
		fs:       opts.FS,
		f:        f,
		path:     path,
		shardCap: shardCapFor(opts.PoolSlots),
	}
	initShards(&s.shards)
	s.pinDirty = opts.PinDirty
	if err := s.openJournal(false); err != nil {
		f.Close()
		return nil, err
	}
	if err := s.rollbackJournal(); err != nil {
		s.jf.Close()
		f.Close()
		return nil, err
	}
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		s.jf.Close()
		f.Close()
		return nil, fmt.Errorf("storage: read header of %s: %w", path, err)
	}
	if err := s.decodeHeader(hdr); err != nil {
		s.jf.Close()
		f.Close()
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	if err := s.checkFreeList(); err != nil {
		s.jf.Close()
		f.Close()
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	return s, nil
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
		if _, err := s.f.ReadAt(buf, int64(slot)*int64(s.slotSize)); err != nil {
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

// usable gates every public operation (store lock held, shared or
// exclusive).
func (s *FileStore) usable() error {
	if s.closed {
		return ErrClosed
	}
	s.stateMu.Lock()
	p := s.poisoned
	s.stateMu.Unlock()
	if p != nil {
		return fmt.Errorf("%w: %w", ErrPoisoned, p)
	}
	return nil
}

// poison records the first failed mutation and returns err. Every later
// operation fails with ErrPoisoned. It may be called from a read path (an
// eviction write-back that fails), so it has its own latch.
func (s *FileStore) poison(err error) error {
	s.stateMu.Lock()
	if s.poisoned == nil {
		s.poisoned = err
	}
	s.stateMu.Unlock()
	return err
}

// checkNext validates a slot-chain link read from slot.
func (s *FileStore) checkNext(slot, next uint64) error {
	if next != 0 && (next >= s.nextSlot || next == slot) {
		return fmt.Errorf("%w: slot %d links to invalid slot %d", ErrCorrupt, slot, next)
	}
	return nil
}

// --- slot-level access through the sharded buffer pool ---

// frameFor is the exclusive-lock paths' access to a slot's frame: it
// takes the slot's shard latch around frameLocked. The store lock keeps
// every other pool user out, so the caller may read and write the frame
// until its next pool call on the shard (see the type comment).
func (s *FileStore) frameFor(slot uint64, load bool) (*frame, error) {
	sh := &s.shards[slot%poolShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.frameLocked(sh, slot, load)
}

// frameLocked returns the pooled frame for slot (shard latch held),
// loading it from disk on a miss when load is set; without load a missed
// frame's contents are unspecified and the caller overwrites them all.
// The latch spans the whole lookup/load/admit sequence, so concurrent
// misses on the same slot serialise and exactly one frame per slot is
// ever resident.
func (s *FileStore) frameLocked(sh *poolShard, slot uint64, load bool) (*frame, error) {
	if fr, ok := sh.frames[slot]; ok {
		atomic.AddUint64(&s.stats.CacheHits, 1)
		sh.lru.remove(fr)
		sh.lru.pushFront(fr)
		return fr, nil
	}
	atomic.AddUint64(&s.stats.CacheMisses, 1)
	fr, err := s.takeFrame(sh, slot)
	if err != nil {
		return nil, err
	}
	if load {
		if _, err := s.f.ReadAt(fr.buf, int64(slot)*int64(s.slotSize)); err != nil {
			return nil, fmt.Errorf("storage: read slot %d: %w", slot, err)
		}
		atomic.AddUint64(&s.stats.SlotReads, 1)
	}
	sh.admit(fr)
	return fr, nil
}

// takeFrame makes room in sh for one more frame (latch held) and returns
// a frame for slot, not yet resident, for the caller to fill and admit.
// While the shard is at capacity it evicts from the LRU tail — dirty
// victims are skipped when PinDirty pins them, written back otherwise —
// and the last victim's frame, buffer included, is what it returns. It
// allocates only when nothing was evicted: the shard is below capacity,
// or every frame in it is pinned dirty.
func (s *FileStore) takeFrame(sh *poolShard, slot uint64) (*frame, error) {
	var fr *frame
	victim := sh.lru.tail
	for len(sh.frames) >= s.shardCap && victim != nil {
		prev := victim.prev
		if victim.dirty && s.pinDirty {
			// Dirty frames only reach the disk at Sync; skip them.
			victim = prev
			continue
		}
		if err := s.flushFrame(victim); err != nil {
			return nil, err
		}
		sh.lru.remove(victim)
		delete(sh.frames, victim.slot)
		atomic.AddUint64(&s.stats.Evictions, 1)
		fr, victim = victim, prev
	}
	if fr == nil {
		fr = &frame{buf: make([]byte, s.slotSize)}
	}
	fr.slot = slot
	return fr, nil
}

func (s *FileStore) flushFrame(fr *frame) error {
	if !fr.dirty {
		return nil
	}
	if _, err := s.f.WriteAt(fr.buf, int64(fr.slot)*int64(s.slotSize)); err != nil {
		return s.poison(fmt.Errorf("storage: write slot %d: %w", fr.slot, err))
	}
	atomic.AddUint64(&s.stats.SlotWrites, 1)
	fr.dirty = false
	return nil
}

func (s *FileStore) allocSlot() (uint64, error) {
	if s.freeHead != 0 {
		slot := s.freeHead
		fr, err := s.frameFor(slot, true)
		if err != nil {
			return 0, err
		}
		next := binary.LittleEndian.Uint64(fr.buf)
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
	if err := s.f.Truncate(int64(s.nextSlot) * int64(s.slotSize)); err != nil {
		return 0, s.poison(fmt.Errorf("storage: extend file: %w", err))
	}
	return slot, nil
}

func (s *FileStore) freeSlot(slot uint64) error {
	fr, err := s.frameFor(slot, false)
	if err != nil {
		return err
	}
	for i := range fr.buf {
		fr.buf[i] = 0
	}
	binary.LittleEndian.PutUint64(fr.buf, s.freeHead)
	fr.dirty = true
	s.freeHead = slot
	atomic.AddInt64(&s.stats.FreeSlots, 1)
	return nil
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
	fr, err := s.frameFor(slot, false)
	if err != nil {
		return 0, s.poison(err)
	}
	for i := range fr.buf {
		fr.buf[i] = 0
	}
	fr.dirty = true
	atomic.AddUint64(&s.stats.Allocs, 1)
	return page.ID(slot), nil
}

// ReadNode implements Store. It assembles the slot chain starting at id.
// Reads hold the store lock shared: any number of them proceed in
// parallel, contending only on the per-shard pool latches.
func (s *FileStore) ReadNode(id page.ID) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.usable(); err != nil {
		return nil, err
	}
	return s.readNodeLocked(id)
}

// readNodeLocked is ReadNode's body (shared store lock held, usable
// already checked).
func (s *FileStore) readNodeLocked(id page.ID) ([]byte, error) {
	return s.readNodeVia(id, nil)
}

// readNodeVia assembles a node's slot chain, taking each slot's image
// from peek when it has one and from the buffer pool (loading on miss)
// otherwise. peek is how ReadNodes serves batch-read slots out of its
// coalesced run buffers without admitting them to the pool; nil means
// every slot goes through the pool.
func (s *FileStore) readNodeVia(id page.ID, peek func(uint64) []byte) ([]byte, error) {
	atomic.AddUint64(&s.stats.NodeReads, 1)
	var out []byte
	var hops uint64
	slot := uint64(id)
	for slot != 0 {
		if hops++; hops > s.nextSlot {
			return nil, fmt.Errorf("%w: slot chain cycle at page %d", ErrCorrupt, id)
		}
		var buf []byte
		if peek != nil {
			buf = peek(slot)
		}
		var err error
		if buf != nil {
			out, slot, err = s.appendFragment(out, slot, buf)
		} else {
			out, slot, err = s.appendPooledFragment(out, slot)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appendPooledFragment is appendFragment on slot's pooled frame, loaded
// on a miss. The copy happens under the shard latch: the moment it is
// released another reader's miss may recycle the frame.
func (s *FileStore) appendPooledFragment(out []byte, slot uint64) ([]byte, uint64, error) {
	sh := &s.shards[slot%poolShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fr, err := s.frameLocked(sh, slot, true)
	if err != nil {
		return nil, 0, err
	}
	return s.appendFragment(out, slot, fr.buf)
}

// appendFragment validates the slot image buf of slot and appends its
// payload fragment to out, returning the extended blob and the next slot
// of the chain.
func (s *FileStore) appendFragment(out []byte, slot uint64, buf []byte) ([]byte, uint64, error) {
	next := binary.LittleEndian.Uint64(buf)
	if err := s.checkNext(slot, next); err != nil {
		return nil, 0, err
	}
	n := int(binary.LittleEndian.Uint32(buf[8:]))
	if n < 0 || n > s.payload() {
		return nil, 0, fmt.Errorf("%w: fragment length %d in slot %d", ErrCorrupt, n, slot)
	}
	return append(out, buf[slotHeaderSize:slotHeaderSize+n]...), next, nil
}

// maxReadRun caps the slots covered by one coalesced ReadAt (256 KiB at
// the default slot size): long enough to amortise the syscall, short
// enough to keep the run buffer off the large-allocation path.
const maxReadRun = 64

// resident reports whether slot already has a pooled frame.
func (s *FileStore) resident(slot uint64) bool {
	sh := &s.shards[slot%poolShards]
	sh.mu.Lock()
	_, ok := sh.frames[slot]
	sh.mu.Unlock()
	return ok
}

// admitSlotBuf admits a frame for slot holding buf's contents, unless a
// frame raced in meanwhile (the resident frame may be dirty and must not
// be clobbered by a stale disk image). Shared store lock held.
func (s *FileStore) admitSlotBuf(slot uint64, buf []byte) error {
	sh := &s.shards[slot%poolShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.frames[slot]; ok {
		return nil
	}
	fr, err := s.takeFrame(sh, slot)
	if err != nil {
		return err
	}
	copy(fr.buf, buf)
	sh.admit(fr)
	return nil
}

// readRuns reads the non-resident slots of the (sorted, deduplicated)
// list, coalescing runs of consecutive slots into single ReadAt calls —
// this is where a batched fetch of N sibling pages becomes one or two
// physical reads instead of N — and hands each slot's image to each.
// Resident and out-of-range slots are skipped; the demand path serves
// them. Shared store lock held.
func (s *FileStore) readRuns(slots []uint64, each func(slot uint64, img []byte) error) error {
	for i := 0; i < len(slots); {
		// Grow a run of consecutive, non-resident, in-range slots.
		j := i
		for j < len(slots) && j-i < maxReadRun &&
			slots[j] == slots[i]+uint64(j-i) &&
			slots[j] < s.nextSlot && !s.resident(slots[j]) {
			j++
		}
		if j == i {
			i++
			continue
		}
		buf := make([]byte, (j-i)*s.slotSize)
		if _, err := s.f.ReadAt(buf, int64(slots[i])*int64(s.slotSize)); err != nil {
			return fmt.Errorf("storage: read slots %d..%d: %w", slots[i], slots[j-1], err)
		}
		atomic.AddUint64(&s.stats.SlotReads, 1)
		for ; i < j; i++ {
			if err := each(slots[i], buf[:s.slotSize:s.slotSize]); err != nil {
				return err
			}
			buf = buf[s.slotSize:]
		}
	}
	return nil
}

// scanRun holds the slot images one batched read fetched through
// coalesced ReadAt calls, bypassing buffer-pool admission. A scan
// touches each of its slots exactly once, so admitting them would evict
// the point-query working set page by page and give nothing back; the
// run buffers are dropped when the batch read returns. slots is sorted
// and parallel to bufs.
type scanRun struct {
	slots []uint64
	bufs  [][]byte
}

// lookup returns the run image of slot, or nil when the slot was
// resident (its pooled frame — possibly dirty — must win) or out of the
// batch.
func (r *scanRun) lookup(slot uint64) []byte {
	i := sort.Search(len(r.slots), func(i int) bool { return r.slots[i] >= slot })
	if i < len(r.slots) && r.slots[i] == slot {
		return r.bufs[i]
	}
	return nil
}

// sortedHeadSlots returns the head slots of ids, sorted and deduplicated,
// for readRuns.
func sortedHeadSlots(ids []page.ID) []uint64 {
	slots := make([]uint64, 0, len(ids))
	for _, id := range ids {
		slots = append(slots, uint64(id))
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	out := slots[:0]
	for i, sl := range slots {
		if i == 0 || sl != out[len(out)-1] {
			out = append(out, sl)
		}
	}
	return out
}

// ReadNodes implements BatchReader: one shared-lock acquisition for the
// whole batch, with the head slots of all requested nodes read first
// through readRuns so that physically adjacent siblings — the common
// layout after a z-ordered load — arrive in coalesced multi-slot reads.
// The run images are served directly and never admitted to the buffer
// pool (scan resistance: a batch-read slot is touched once, and pooling
// it would only evict the point-query working set); already-resident
// slots and chain tails beyond the head go through the pool as usual.
func (s *FileStore) ReadNodes(ids []page.ID) ([][]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.usable(); err != nil {
		return nil, err
	}
	atomic.AddUint64(&s.stats.BatchReads, 1)
	var sr scanRun
	if len(ids) > 1 {
		err := s.readRuns(sortedHeadSlots(ids), func(slot uint64, img []byte) error {
			sr.slots, sr.bufs = append(sr.slots, slot), append(sr.bufs, img)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var peek func(uint64) []byte
	if len(sr.slots) > 0 {
		peek = sr.lookup
	}
	out := make([][]byte, len(ids))
	for i, id := range ids {
		blob, err := s.readNodeVia(id, peek)
		if err != nil {
			return nil, err
		}
		out[i] = blob
	}
	return out, nil
}

// prefetchSlots caps the in-flight Prefetch goroutines; hints beyond the
// cap are dropped — a hint that has to queue is a hint that arrived too
// late to help.
const maxPrefetchInflight = 4

// Prefetch implements Prefetcher: it warms the buffer pool with the head
// slots of ids on a background goroutine and returns immediately. Errors
// are swallowed (the demand path will surface them) and hints are dropped
// when too many are already in flight or the store is closed.
func (s *FileStore) Prefetch(ids []page.ID) {
	if len(ids) == 0 {
		return
	}
	if s.prefetchInflight.Add(1) > maxPrefetchInflight {
		s.prefetchInflight.Add(-1)
		return
	}
	atomic.AddUint64(&s.stats.Prefetches, uint64(len(ids)))
	slots := sortedHeadSlots(ids)
	go func() {
		defer s.prefetchInflight.Add(-1)
		s.mu.RLock()
		defer s.mu.RUnlock()
		if s.usable() != nil {
			return
		}
		s.readRuns(slots, func(slot uint64, img []byte) error {
			err := s.admitSlotBuf(slot, img)
			if err == nil {
				atomic.AddUint64(&s.stats.PrefetchedSlots, 1)
			}
			return err
		})
	}()
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
	off := 0
	first := true
	for {
		// Load the slot so the chain pointer is current; for the head
		// frame this is a single lookup (a cache hit when the node was
		// just allocated, a disk load otherwise).
		fr, err := s.frameFor(slot, true)
		if err != nil {
			if !first {
				return s.poison(err)
			}
			return err
		}
		oldNext := binary.LittleEndian.Uint64(fr.buf)
		if err := s.checkNext(slot, oldNext); err != nil {
			return s.poison(err)
		}
		n := len(blob) - off
		if n > s.payload() {
			n = s.payload()
		}
		if off+n >= len(blob) {
			// Final slot of the new chain.
			copy(fr.buf[slotHeaderSize:], blob[off:off+n])
			binary.LittleEndian.PutUint32(fr.buf[8:], uint32(n))
			binary.LittleEndian.PutUint64(fr.buf, 0)
			fr.dirty = true
			// Free any trailing slots of a previously longer chain. fr is
			// dirty before these pool operations, so an eviction they
			// trigger writes it back rather than dropping the update.
			for oldNext != 0 {
				nf, err := s.frameFor(oldNext, true)
				if err != nil {
					return s.poison(err)
				}
				next := binary.LittleEndian.Uint64(nf.buf)
				if err := s.checkNext(oldNext, next); err != nil {
					return s.poison(err)
				}
				if err := s.freeSlot(oldNext); err != nil {
					return s.poison(err)
				}
				oldNext = next
			}
			return nil
		}
		next := oldNext
		if next == 0 {
			next, err = s.allocSlot()
			if err != nil {
				return s.poison(err)
			}
			nf, err2 := s.frameFor(next, false)
			if err2 != nil {
				return s.poison(err2)
			}
			for i := range nf.buf {
				nf.buf[i] = 0
			}
			nf.dirty = true
			// Growing the chain touched other pool frames, which may have
			// evicted the still-clean fr; re-pin it so the mutation below
			// lands on the resident frame, not an orphaned copy.
			fr, err = s.frameFor(slot, true)
			if err != nil {
				return s.poison(err)
			}
		}
		copy(fr.buf[slotHeaderSize:], blob[off:off+n])
		binary.LittleEndian.PutUint32(fr.buf[8:], uint32(n))
		binary.LittleEndian.PutUint64(fr.buf, next)
		fr.dirty = true
		off += n
		slot = next
		first = false
	}
}

// Free implements Store.
func (s *FileStore) Free(id page.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	atomic.AddUint64(&s.stats.Frees, 1)
	var hops uint64
	slot := uint64(id)
	for slot != 0 {
		if hops++; hops > s.nextSlot {
			return s.poison(fmt.Errorf("%w: slot chain cycle freeing page %d", ErrCorrupt, id))
		}
		fr, err := s.frameFor(slot, true)
		if err != nil {
			if hops == 1 {
				return err
			}
			return s.poison(err)
		}
		next := binary.LittleEndian.Uint64(fr.buf)
		if err := s.checkNext(slot, next); err != nil {
			return err
		}
		if err := s.freeSlot(slot); err != nil {
			return s.poison(err)
		}
		slot = next
	}
	return nil
}

// Stats implements Store.
func (s *FileStore) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return loadStats(&s.stats)
}

// Sync implements Store: atomically flushes dirty frames and the header.
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
//  2. write the new slot images; fsync the data file;
//  3. write the new checksummed header; fsync the data file;
//  4. invalidate the journal (truncate + fsync).
//
// A crash before step 2 leaves the old state untouched (the journal is
// ignored if incomplete, rolled back harmlessly if complete); a crash in
// steps 2–4 is undone by rollbackJournal at the next open. The dirty-slot
// writes in step 2 are ordered before the header write of step 3 by the
// intervening fsync, so the header can never describe slots that have not
// reached the disk.
func (s *FileStore) syncLocked() error {
	var dirty []*frame
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, fr := range sh.frames {
			if fr.dirty {
				dirty = append(dirty, fr)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].slot < dirty[j].slot })
	newHdr := s.encodeHeader()
	if len(dirty) == 0 {
		// Header-only sync: skip the journal when the disk already agrees.
		old := make([]byte, headerSize)
		if _, err := s.f.ReadAt(old, 0); err == nil && bytes.Equal(old, newHdr) {
			return nil
		}
	}
	if err := s.writeJournal(dirty); err != nil {
		return s.poison(err)
	}
	for _, fr := range dirty {
		if err := s.flushFrame(fr); err != nil {
			return err // flushFrame poisons
		}
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
		return s.poison(err)
	}
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
	s.stateMu.Lock()
	poisoned := s.poisoned
	s.stateMu.Unlock()
	if poisoned != nil {
		// The pool state is unknown; do not flush it over the last good
		// checkpoint. Just release the descriptors.
		s.f.Close()
		if s.jf != nil {
			s.jf.Close()
		}
		return fmt.Errorf("%w: %w", ErrPoisoned, poisoned)
	}
	err := s.syncLocked()
	cerr := s.f.Close()
	if s.jf != nil {
		s.jf.Close()
	}
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("storage: close %s: %w", s.path, cerr)
	}
	return nil
}
