// Package page defines the on-page node model shared by the tree
// structures in this module — index nodes holding region entries and data
// pages holding points — together with a compact, checksummed binary
// encoding used by the file-backed store.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"bvtree/internal/geometry"
	"bvtree/internal/region"
)

// ErrCorrupt is wrapped by every decoding error caused by a damaged page
// image — bad checksum, bad magic, truncation, the wrong page kind, a
// count or length the body cannot hold — so storage-layer callers can
// classify latent corruption with errors.Is.
var ErrCorrupt = errors.New("page: corrupt page")

// ID identifies a page within a store. Zero is never a valid page.
type ID uint64

// Nil is the absent-page sentinel.
const Nil ID = 0

// Kind discriminates page contents.
type Kind uint8

// Page kinds.
const (
	KindInvalid Kind = iota
	KindIndex
	KindData
)

// Entry is one region entry of an index node: the region key, the region's
// partition level, and the child page holding its contents. A child of a
// level-0 entry is a data page; otherwise it is an index node at index
// level equal to the entry's partition level.
type Entry struct {
	Key   region.BitString
	Level int
	Child ID
}

// IsGuard reports whether the entry is a promoted guard within a node at
// the given index level: unpromoted entries of a level-x node have
// partition level x-1.
func (e Entry) IsGuard(nodeLevel int) bool { return e.Level < nodeLevel-1 }

// IndexNode is a directory node of the partition hierarchy at index level
// Level >= 1. Its unpromoted entries have partition level Level-1; promoted
// guards have lower levels. Region is the node's own region key (the key of
// its entry in the parent).
type IndexNode struct {
	Level   int
	Region  region.BitString
	Entries []Entry

	// cols is the columnar mirror of Entries (see cols.go): derived
	// acceleration state, never encoded, accessed through Cols() which
	// hides it whenever it is stale.
	cols *NodeCols
}

// Clone returns a copy of n whose Entries slice has a private backing
// array, so the copy can be appended to, compacted, or rebound without
// disturbing the original. Entry keys are BitStrings with value
// semantics (no in-place mutators), so sharing their word storage across
// the copy is safe. A fresh columnar mirror is cloned along: its slab
// layout makes that a fixed number of arena copies however many entries
// the node holds, which is what keeps MVCC copy-on-write capture cheap.
func (n *IndexNode) Clone() *IndexNode {
	c := &IndexNode{Level: n.Level, Region: n.Region}
	if len(n.Entries) > 0 {
		c.Entries = make([]Entry, len(n.Entries))
		copy(c.Entries, n.Entries)
	}
	if src := n.Cols(); src != nil {
		c.cols = src.clone()
		c.cols.mark(c.Entries)
	}
	return c
}

// Item is one stored record: an n-dimensional point plus an opaque payload
// (typically a record identifier).
type Item struct {
	Point   geometry.Point
	Payload uint64
}

// DataPage is a leaf page holding the points of one level-0 region.
type DataPage struct {
	Region region.BitString
	Items  []Item

	// dcols is the page's columnar coordinate mirror (see datacols.go):
	// derived, never encoded, dropped by Clone (a clone's mirror reads as
	// stale until its first SyncDataCols).
	dcols *DataCols
}

// Clone returns a copy of p whose Items slice has a private backing
// array. Item points are shared: tree code never mutates a stored
// point's coordinates in place, it only rebinds whole items.
func (p *DataPage) Clone() *DataPage {
	c := &DataPage{Region: p.Region}
	if len(p.Items) > 0 {
		c.Items = make([]Item, len(p.Items))
		copy(c.Items, p.Items)
	}
	return c
}

const (
	magic      = 0xB7EE
	fmtVersion = 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeIndex serialises an index node.
func EncodeIndex(n *IndexNode) []byte {
	w := newWriter(KindIndex)
	w.u32(uint32(n.Level))
	w.bits(n.Region)
	w.u32(uint32(len(n.Entries)))
	for _, e := range n.Entries {
		w.u32(uint32(e.Level))
		w.bits(e.Key)
		w.u64(uint64(e.Child))
	}
	return w.finish()
}

// EncodeData serialises a data page. All items must share the page's
// dimensionality.
func EncodeData(p *DataPage, dims int) []byte {
	w := newWriter(KindData)
	w.u32(uint32(dims))
	w.bits(p.Region)
	w.u32(uint32(len(p.Items)))
	for _, it := range p.Items {
		for d := 0; d < dims; d++ {
			w.u64(it.Point[d])
		}
		w.u64(it.Payload)
	}
	return w.finish()
}

// DecodeKind returns the kind of an encoded page without fully decoding it.
func DecodeKind(b []byte) (Kind, error) {
	r, err := newReader(b)
	if err != nil {
		return KindInvalid, err
	}
	return r.kind, nil
}

// DecodeIndex deserialises an index node. The keys of all its entries are
// cut from one slab of words (region.OwnWords): BitStrings are immutable,
// so keys that share a backing array behave like keys that do not.
func DecodeIndex(b []byte) (*IndexNode, error) {
	r, err := newReader(b)
	if err != nil {
		return nil, err
	}
	if r.kind != KindIndex {
		return nil, fmt.Errorf("%w: expected index page, found kind %d", ErrCorrupt, r.kind)
	}
	n := &IndexNode{}
	n.Level = int(r.u32())
	n.Region, _ = r.bits(nil)
	count := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	// An entry is 16 bytes (level, key length, child) plus its key words,
	// so the bytes left bound the count before anything is allocated, and
	// what the fixed parts leave over is the room for every key together.
	rest := len(r.buf) - r.off
	if count < 0 || count > rest/16 {
		return nil, fmt.Errorf("%w: %d entries in a %d-byte body", ErrCorrupt, count, rest)
	}
	slab := make([]uint64, 0, (rest-16*count)/8)
	n.Entries = make([]Entry, count)
	for i := range n.Entries {
		e := &n.Entries[i]
		e.Level = int(r.u32())
		e.Key, slab = r.bits(slab)
		e.Child = ID(r.u64())
	}
	if r.err != nil {
		return nil, r.err
	}
	return n, nil
}

// dataHeader opens an encoded data page for its three decoders: it checks
// the envelope and the kind, parses dimensionality, region and item count,
// and verifies that the body holds that many items, leaving r at the
// first one.
func dataHeader(b []byte) (r reader, dims int, reg region.BitString, count int, err error) {
	r, err = newReader(b)
	if err != nil {
		return r, 0, reg, 0, err
	}
	if r.kind != KindData {
		return r, 0, reg, 0, fmt.Errorf("%w: expected data page, found kind %d", ErrCorrupt, r.kind)
	}
	dims = int(r.u32())
	if dims < 1 || dims > geometry.MaxDims {
		return r, 0, reg, 0, fmt.Errorf("%w: implausible dimensionality %d", ErrCorrupt, dims)
	}
	reg, _ = r.bits(nil)
	count = int(r.u32())
	if count < 0 || count > 1<<24 {
		return r, 0, reg, 0, fmt.Errorf("%w: implausible item count %d", ErrCorrupt, count)
	}
	r.need(count * (dims + 1) * 8)
	return r, dims, reg, count, r.err
}

// items decodes the count items dataHeader found, appending them to dst
// with their point coordinates packed into coords.
func (r *reader) items(dims, count int, dst []Item, coords []uint64) ([]Item, []uint64) {
	// Grow coords once for the whole page so the per-item point headers
	// sliced below cannot be invalidated by a mid-page relocation.
	base := len(coords)
	if cap(coords)-base < count*dims {
		grown := make([]uint64, base, base+count*dims)
		copy(grown, coords)
		coords = grown
	}
	coords = coords[:base+count*dims]
	for i := 0; i < count; i++ {
		pt := coords[base+i*dims : base+(i+1)*dims : base+(i+1)*dims]
		for d := 0; d < dims; d++ {
			pt[d] = r.u64()
		}
		dst = append(dst, Item{Point: pt, Payload: r.u64()})
	}
	return dst, coords
}

// DecodeData deserialises a data page, for pages that stay resident in a
// cache: the items get a slice of exactly their number, their points
// share one coordinate slab (stored points are never mutated in place,
// see DataPage.Clone), and the columnar mirror is filled in the same pass
// for the dimensionality the page records, so the page comes out
// published (DCols is fresh).
func DecodeData(b []byte) (*DataPage, int, error) {
	r, dims, reg, count, err := dataHeader(b)
	if err != nil {
		return nil, 0, err
	}
	p := &DataPage{Region: reg, Items: make([]Item, count)}
	slab := make([]uint64, 2*count*dims) // the points, then the mirror's rows
	c := &DataCols{n: count, dims: dims, stride: count, coords: slab[count*dims:]}
	body := r.buf[r.off:] // dataHeader checked that it holds count items
	for i := range p.Items {
		pt := slab[i*dims : (i+1)*dims : (i+1)*dims]
		for d := range pt {
			v := binary.LittleEndian.Uint64(body[8*d:])
			pt[d], c.coords[d*count+i] = v, v
		}
		p.Items[i] = Item{Point: pt, Payload: binary.LittleEndian.Uint64(body[8*dims:])}
		body = body[8*(dims+1):]
	}
	if count > 0 {
		c.first = &p.Items[0]
	}
	p.dcols = c
	return p, dims, nil
}

// AppendDataItems decodes the items of an encoded data page, appending
// them to dst with their point coordinates packed into coords, and
// returns the extended slices. It is the streaming decode of the range
// engine: one page costs at most two slice growths regardless of item
// count. Appending to coords may relocate its backing array; points
// appended by earlier calls keep referencing the old array, so previously
// returned items stay valid.
func AppendDataItems(b []byte, dst []Item, coords []uint64) ([]Item, []uint64, error) {
	r, dims, _, count, err := dataHeader(b)
	if err != nil {
		return dst, coords, err
	}
	dst, coords = r.items(dims, count, dst, coords)
	return dst, coords, nil
}

// DecodeDataCount returns the item count of an encoded data page without
// decoding the items. It is the whole cost of counting a data page whose
// region is fully contained in a query rectangle.
func DecodeDataCount(b []byte) (int, error) {
	_, _, _, count, err := dataHeader(b)
	return count, err
}

// --- encoding primitives ---

type writer struct {
	buf []byte
}

func newWriter(k Kind) *writer {
	w := &writer{buf: make([]byte, 0, 256)}
	w.u16(magic)
	w.buf = append(w.buf, byte(k), fmtVersion)
	return w
}

func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *writer) bits(b region.BitString) {
	w.u32(uint32(b.Len()))
	for _, word := range b.Words() {
		w.u64(word)
	}
}

func (w *writer) finish() []byte {
	sum := crc32.Checksum(w.buf, crcTable)
	return binary.LittleEndian.AppendUint32(w.buf, sum)
}

type reader struct {
	buf  []byte
	off  int
	kind Kind
	err  error
}

func newReader(b []byte) (reader, error) {
	if len(b) < 8 {
		return reader{}, fmt.Errorf("%w: truncated page (%d bytes)", ErrCorrupt, len(b))
	}
	body, sumBytes := b[:len(b)-4], b[len(b)-4:]
	want := binary.LittleEndian.Uint32(sumBytes)
	if got := crc32.Checksum(body, crcTable); got != want {
		return reader{}, fmt.Errorf("%w: checksum mismatch: got %08x want %08x", ErrCorrupt, got, want)
	}
	if binary.LittleEndian.Uint16(body) != magic {
		return reader{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if body[3] != fmtVersion {
		return reader{}, fmt.Errorf("%w: unsupported format version %d", ErrCorrupt, body[3])
	}
	return reader{buf: body, off: 4, kind: Kind(body[2])}, nil
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: truncated at offset %d (need %d of %d)", ErrCorrupt, r.off, n, len(r.buf))
		return false
	}
	return true
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// bits reads one bit string. Its words are appended to slab, which must
// have the room (DecodeIndex sizes one slab for all the keys of a page;
// an overrun means the lengths on the page do not add up), or allocated
// when slab is nil; the key aliases them. The extended slab is returned.
func (r *reader) bits(slab []uint64) (region.BitString, []uint64) {
	n := int(r.u32())
	if r.err == nil && (n < 0 || n > 1<<20) {
		r.err = fmt.Errorf("%w: implausible bit length %d", ErrCorrupt, n)
	}
	nw := (n + 63) / 64
	if !r.need(nw * 8) {
		return region.BitString{}, slab
	}
	var words []uint64
	switch {
	case slab == nil:
		words = make([]uint64, nw)
	case nw > cap(slab)-len(slab):
		r.err = fmt.Errorf("%w: %d-bit key at offset %d overruns the page's key words", ErrCorrupt, n, r.off)
		return region.BitString{}, slab
	default:
		slab = slab[:len(slab)+nw]
		words = slab[len(slab)-nw:]
	}
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(r.buf[r.off:])
		r.off += 8
	}
	b, err := region.OwnWords(words, n)
	if err != nil {
		r.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return b, slab
}
