// Package page defines the node model shared by the tree structures in
// this module — index nodes holding region entries and data pages holding
// points — together with a compact, checksummed binary encoding used by
// the page stores.
//
// A node is its columns (cols.go, datacols.go): the struct-of-arrays form
// the tree's readers scan is also the one its writers edit in place and
// the one the encoder reads. Entry and Item are values at the API, built
// from the columns on request; no node stores them.
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
// its entry in the parent). Its entries are its columns (see cols.go):
// read them through Cols or ReadEntries, and edit them with Append,
// Retain, RemoveAt and SetChild; Reserve lays them out for a capacity.
type IndexNode struct {
	Level  int
	Region region.BitString

	cols NodeCols
}

// NewIndexNode returns an empty index node whose columns carry brick
// bounds for a dims-dimensional tree.
func NewIndexNode(level int, reg region.BitString, dims int) *IndexNode {
	return &IndexNode{Level: level, Region: reg, cols: NodeCols{dims: dims}}
}

// Len returns the number of entries.
func (n *IndexNode) Len() int { return n.cols.n }

// Clone returns a copy of n whose columns are its own: two arena copies
// whatever the entry count, which is what keeps MVCC copy-on-write
// capture cheap.
func (n *IndexNode) Clone() *IndexNode {
	return &IndexNode{Level: n.Level, Region: n.Region, cols: n.cols.clone()}
}

// Item is one stored record: an n-dimensional point plus an opaque payload
// (typically a record identifier).
type Item struct {
	Point   geometry.Point
	Payload uint64
}

// DataPage is a leaf page holding the points of one level-0 region. Its
// items are its columns (see datacols.go): one row per dimension and a
// payload row. Read them through DCols, Payload, AppendPoint, Item,
// ReadItems or AppendItems, and edit them with Append, RemoveAt and
// MoveTo; Reserve lays them out for a capacity.
type DataPage struct {
	Region region.BitString

	// Items is filled by DecodeData alone, for tools that inspect a stored
	// page item by item. The tree's pages never carry it, and nothing in
	// this package reads it: EncodeData encodes the columns.
	Items []Item

	cols DataCols
}

// NewDataPage returns an empty data page of a dims-dimensional tree;
// Reserve lays its rows out.
func NewDataPage(reg region.BitString, dims int) *DataPage {
	return &DataPage{Region: reg, cols: DataCols{dims: dims}}
}

// Len returns the number of items.
func (p *DataPage) Len() int { return p.cols.n }

// Clone returns a copy of p whose rows are its own, at the same
// capacity: one copy whatever the item count.
func (p *DataPage) Clone() *DataPage {
	c := &DataPage{Region: p.Region, cols: p.cols}
	c.cols.coords = append([]uint64(nil), p.cols.coords...)
	return c
}

const (
	magic      = 0xB7EE
	fmtVersion = 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeIndex serialises an index node from its columns.
func EncodeIndex(n *IndexNode) []byte {
	c := &n.cols
	w := newWriter(KindIndex)
	w.u32(uint32(n.Level))
	w.bits(n.Region)
	w.u32(uint32(c.n))
	for i := 0; i < c.n; i++ {
		kl := int(c.keyLen[i])
		w.u32(uint32(c.levels[i]))
		w.u32(uint32(kl))
		if kl > 0 {
			w.u64(c.head[i])
		}
		for _, t := range c.tails[c.tailOff[i]:c.tailOff[i+1]] {
			w.u64(t)
		}
		w.u64(c.child[i])
	}
	return w.finish()
}

// EncodeData serialises a data page from its rows; dims must be the
// page's dimensionality.
func EncodeData(p *DataPage, dims int) []byte {
	c := &p.cols
	w := newWriter(KindData)
	w.u32(uint32(dims))
	w.bits(p.Region)
	w.u32(uint32(c.n))
	for i := 0; i < c.n; i++ {
		for d := 0; d < dims; d++ {
			w.u64(c.coords[d*c.stride+i])
		}
		w.u64(c.Payload(i))
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

// DecodeIndex is DecodeIndexCols for a reader with no dimensionality at
// hand: the node comes out without brick bounds, fit for walking and
// re-encoding but not for the tree's rectangle tests.
func DecodeIndex(b []byte) (*IndexNode, error) { return DecodeIndexCols(b, 0) }

// DecodeIndexCols decodes an index page into the columns of a
// dims-dimensional tree's node, in one pass over the entries after a
// walk over their lengths, exactly sized; no entry or key is built (dims
// 0 builds no brick bounds).
func DecodeIndexCols(b []byte, dims int) (*IndexNode, error) {
	r, err := newReader(b)
	if err != nil {
		return nil, err
	}
	if r.kind != KindIndex {
		return nil, fmt.Errorf("%w: expected index page, found kind %d", ErrCorrupt, r.kind)
	}
	n := &IndexNode{}
	n.Level = int(r.u32())
	n.Region = r.bits()
	count := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	// An entry is 16 bytes (level, key length, child) plus its key words,
	// so the bytes left bound the count before anything is allocated.
	body := r.buf[r.off:]
	if count < 0 || count > len(body)/16 {
		return nil, fmt.Errorf("%w: %d entries in a %d-byte body", ErrCorrupt, count, len(body))
	}
	// Walk the key lengths: the body must hold every entry, and the words
	// past each key's first are the size of the tail column.
	tails, off := 0, 0
	for i := 0; i < count; i++ {
		if off+16 > len(body) {
			return nil, fmt.Errorf("%w: entry %d truncated at offset %d", ErrCorrupt, i, r.off+off)
		}
		kl := int(binary.LittleEndian.Uint32(body[off+4:]))
		if kl > maxKeyBits {
			return nil, fmt.Errorf("%w: implausible bit length %d", ErrCorrupt, kl)
		}
		nw := (kl + 63) / 64
		if off += 16 + 8*nw; off > len(body) {
			return nil, fmt.Errorf("%w: %d-bit key of entry %d overruns the page", ErrCorrupt, kl, i)
		}
		tails += max(nw-1, 0)
	}
	n.cols.dims = dims
	c := &n.cols
	c.reserve(count, tails)
	var kw [geometry.MaxDims]uint64 // the key words the brick bounds read
	stride := 2 * dims
	for i := 0; i < count; i++ {
		kl := int(binary.LittleEndian.Uint32(body[4:]))
		c.levels[i] = int32(binary.LittleEndian.Uint32(body))
		c.keyLen[i] = int32(kl)
		nw := (kl + 63) / 64
		words := body[8 : 8+8*nw]
		for j := 0; j < nw; j++ {
			w := binary.LittleEndian.Uint64(words[8*j:])
			if j == nw-1 && kl%64 != 0 {
				w &= ^uint64(0) << uint(64-kl%64)
			}
			if j == 0 {
				c.head[i] = w
			} else {
				c.tails = append(c.tails, w)
			}
			if j < dims {
				kw[j] = w
			}
		}
		c.tailOff[i+1] = int32(len(c.tails))
		if dims > 0 {
			eb := c.bounds[i*stride : i*stride+stride]
			region.WordsBrickBounds(kw[:min(nw, dims)], kl, dims, eb[:dims], eb[dims:])
		}
		c.child[i] = binary.LittleEndian.Uint64(body[8+8*nw:])
		body = body[16+8*nw:]
	}
	c.n = count
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
	reg = r.bits()
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

// DecodeData is DecodeDataCols plus Items, the page's items as values,
// for tools that inspect a stored page item by item.
func DecodeData(b []byte) (*DataPage, int, error) {
	p, dims, err := DecodeDataCols(b)
	if err != nil {
		return nil, 0, err
	}
	p.Items = p.ReadItems()
	return p, dims, nil
}

// DecodeDataCols decodes a data page into its columns, in one pass: one
// slab, exactly sized, holds a row per dimension and the payload row.
// It also returns the dimensionality the page records.
func DecodeDataCols(b []byte) (*DataPage, int, error) {
	r, dims, reg, count, err := dataHeader(b)
	if err != nil {
		return nil, 0, err
	}
	slab := make([]uint64, (dims+1)*count)
	body := r.buf[r.off:] // dataHeader checked that it holds count items
	for i := 0; i < count; i++ {
		for d := 0; d <= dims; d++ { // the coordinates, then the payload
			slab[d*count+i] = binary.LittleEndian.Uint64(body[8*d:])
		}
		body = body[8*(dims+1):]
	}
	return &DataPage{Region: reg, cols: DataCols{n: count, dims: dims, stride: count, coords: slab}}, dims, nil
}

// AppendDataItems decodes the items of an encoded data page, appending
// them to dst with their point coordinates packed into coords, and
// returns the extended slices. Nothing in the tree calls it: a reader
// decodes a page into its columns (DecodeDataCols). Appending to coords
// may relocate its backing array; points appended by earlier calls keep
// referencing the old array, so previously returned items stay valid.
func AppendDataItems(b []byte, dst []Item, coords []uint64) ([]Item, []uint64, error) {
	r, dims, _, count, err := dataHeader(b)
	if err != nil {
		return dst, coords, err
	}
	dst, coords = r.items(dims, count, dst, coords)
	return dst, coords, nil
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

// maxKeyBits bounds the length of a bit string on a page.
const maxKeyBits = 1 << 20

// bits reads one bit string into words of its own.
func (r *reader) bits() region.BitString {
	n := int(r.u32())
	if r.err == nil && n > maxKeyBits {
		r.err = fmt.Errorf("%w: implausible bit length %d", ErrCorrupt, n)
	}
	nw := (n + 63) / 64
	if !r.need(nw * 8) {
		return region.BitString{}
	}
	words := make([]uint64, nw)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(r.buf[r.off:])
		r.off += 8
	}
	b, err := region.OwnWords(words, n)
	if err != nil {
		r.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return b
}
