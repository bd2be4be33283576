package page

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/region"
)

// rawPage builds a checksummed page image of the given kind from raw
// fields (uint32, uint64 or plain bytes). It is how the tests below forge
// pages that are structurally wrong behind a valid envelope — the damage
// a checksum cannot catch because it was computed over it.
func rawPage(k Kind, fields ...interface{}) []byte {
	w := newWriter(k, 0)
	for _, f := range fields {
		switch v := f.(type) {
		case uint32:
			w.u32(v)
		case uint64:
			w.u64(v)
		case []byte:
			w.buf = append(w.buf, v...)
		default:
			panic("rawPage: field must be uint32, uint64 or []byte")
		}
	}
	return w.finish()
}

// structurallyCorrupt lists checksummed page images whose structure is
// wrong, each with the decoder it is meant for.
var structurallyCorrupt = []struct {
	name  string
	index bool
	blob  []byte
}{
	// level, region length 0, count 1<<20 — and no entries at all.
	{"index: count beyond body", true, rawPage(KindIndex, uint32(1), uint32(0), uint32(1<<20))},
	{"index: one entry in 15 bytes", true, rawPage(KindIndex, uint32(1), uint32(0), uint32(1), make([]byte, 15))},
	{"index: negative-looking count", true, rawPage(KindIndex, uint32(1), uint32(0), uint32(0xFFFFFFFF))},
	{"index: region key length 1<<21", true, rawPage(KindIndex, uint32(1), uint32(1<<21), uint32(0))},
	{"index: entry key length 1<<21", true, rawPage(KindIndex, uint32(1), uint32(0), uint32(1), uint32(0), uint32(1<<21), uint64(7))},
	// Two entries and one spare word: the first key claims both the spare
	// word and the bytes the second entry's fixed fields need.
	{"index: key words overrun the slab", true, rawPage(KindIndex, uint32(1), uint32(0), uint32(2),
		uint32(0), uint32(128), uint64(1), uint64(2), uint64(3), uint32(0), uint32(0))},
	{"index: data page", true, EncodeData(&DataPage{}, 2)},
	{"data: index page", false, EncodeIndex(&IndexNode{Level: 1})},
	{"data: zero dimensions", false, rawPage(KindData, uint32(0), uint32(0), uint32(0))},
	{"data: 33 dimensions", false, rawPage(KindData, uint32(33), uint32(0), uint32(0))},
	{"data: item count 1<<25", false, rawPage(KindData, uint32(2), uint32(0), uint32(1<<25))},
	{"data: count beyond body", false, rawPage(KindData, uint32(2), uint32(0), uint32(1000), uint64(1), uint64(2), uint64(3))},
	// Two items of two dimensions are three rows of two words: the
	// payload row is one word short.
	{"data: payload row truncated", false, rawPage(KindData, uint32(2), uint32(0), uint32(2),
		uint64(1), uint64(2), uint64(3), uint64(4), uint64(5))},
	{"data: region key length 1<<21", false, rawPage(KindData, uint32(2), uint32(1<<21), uint32(0))},
	{"data: first coordinates decrease", false, unsortedPage},
	{"data: unknown kind", false, rawPage(Kind(9), uint32(2), uint32(0), uint32(0))},
}

// TestStructuralDecodeErrorsAreCorrupt: ErrCorrupt's contract covers every
// way a page image can be wrong, not only the ones the checksum catches.
func TestStructuralDecodeErrorsAreCorrupt(t *testing.T) {
	for _, c := range structurallyCorrupt {
		var err error
		if c.index {
			_, err = DecodeIndex(c.blob)
		} else {
			_, _, err = DecodeData(c.blob)
			if _, _, aerr := AppendDataItems(c.blob, nil, nil); !errors.Is(aerr, ErrCorrupt) {
				t.Errorf("%s: AppendDataItems error %v does not wrap ErrCorrupt", c.name, aerr)
			}
			if _, _, ierr := DecodeDataCols(c.blob, NewDataPage(region.BitString{}, 2)); !errors.Is(ierr, ErrCorrupt) {
				t.Errorf("%s: DecodeDataCols into a page: error %v does not wrap ErrCorrupt", c.name, ierr)
			}
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %q does not wrap ErrCorrupt", c.name, err)
		}
	}
}

// TestDecodeIndexBoundsCountBeforeAllocating: a 20-byte page claiming 1<<20
// entries must be refused from its length alone. The entry slice for that
// count is 50 MB.
func TestDecodeIndexBoundsCountBeforeAllocating(t *testing.T) {
	blob := rawPage(KindIndex, uint32(1), uint32(0), uint32(1<<20)) // level, empty region, count
	if len(blob) != 20 {
		t.Fatalf("forged page is %d bytes, want 20", len(blob))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeIndex(blob)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Fatalf("DecodeIndex allocated %d bytes before refusing a 20-byte page", grew)
	}
}

// TestDecodeIndexSlabSharing: a decoded node's columns are cut from one
// exactly sized arena, and everything the tree does to such a node —
// split its entries over two nodes, clone it, append to it, drop entries
// — must encode exactly as the same edits on a node built entry by entry,
// and must leave the node it was cloned from untouched.
func TestDecodeIndexSlabSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const dims = 2
	for trial := 0; trial < 40; trial++ {
		ents := randEntries(rng, dims, 2+rng.Intn(90))
		reg := randBits(rng, 70)
		blob := encodeEntries(3, reg, ents)
		slab, err := DecodeIndexCols(blob, dims)
		if err != nil {
			t.Fatal(err)
		}
		sameEntries(t, "decode", slab, ents)

		// Split: the upper half moves to a new node, the lower half is
		// dropped from a clone in place and the clone extended again.
		cut := len(ents) / 2
		right := nodeOf(3, ents[cut].Key, dims, nil)
		for _, e := range slab.ReadEntries()[cut:] {
			right.Append(e)
		}
		left := slab.Clone()
		left.Retain(func(i int) bool { return i < cut })
		sides := []struct {
			n    *IndexNode
			ents []Entry
		}{{left, ents[:cut:cut]}, {right, append([]Entry(nil), ents[cut:]...)}}
		for _, side := range sides {
			sameEntries(t, "split", side.n, side.ents)
			for i := 0; i < 5; i++ {
				e := Entry{Key: side.ents[rng.Intn(len(side.ents))].Key.Append(i & 1), Level: i, Child: ID(1000 + i)}
				side.n.Append(e)
				side.ents = append(side.ents, e)
			}
			sameEntries(t, "append", side.n, side.ents)
			again, err := DecodeIndexCols(EncodeIndex(side.n), dims)
			if err != nil {
				t.Fatal(err)
			}
			sameEntries(t, "second decode", again, side.ents)
		}
		// None of it may have reached the node the halves came from.
		if !bytes.Equal(EncodeIndex(slab), blob) {
			t.Fatal("editing the split halves changed the node they were split from")
		}
	}
}

// TestDecodeDataPublishesMirror: DecodeData decodes into the rows of the
// dimensionality the page records and reads its Items out of them.
func TestDecodeDataPublishesMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range []int{1, 2, 5} {
		for _, ni := range []int{0, 1, 37} {
			items := ordered(randItems(rng, dims, ni))
			p, gotDims, err := DecodeData(encodeItems(region.BitString{}, dims, items))
			if err != nil {
				t.Fatal(err)
			}
			if gotDims != dims || p.DCols().Dims() != dims {
				t.Fatalf("decoded %d dims into %d rows, want %d", gotDims, p.DCols().Dims(), dims)
			}
			sameItems(t, "decode", p, items)
			if len(p.Items) != ni {
				t.Fatalf("DecodeData gave %d items, want %d", len(p.Items), ni)
			}
			for i, it := range p.Items {
				if !it.Point.Equal(items[i].Point) || it.Payload != items[i].Payload {
					t.Fatalf("DecodeData item %d is %v, want %v", i, it, items[i])
				}
			}
		}
	}
}

// unsortedPage is columnPage with its first two items' x swapped: its
// checksum holds, but item 1's first coordinate is below item 0's.
var unsortedPage = rawPage(KindData, uint32(2), uint32(2), uint64(1)<<63,
	uint32(3), uint64(11), uint64(10), uint64(12), uint64(20), uint64(21), uint64(22), uint64(7), uint64(8), uint64(9))

// TestUnsortedDataPageIsRefused: a data page is stored in first-coordinate
// order, and every decoder refuses one out of it — a checksum computed
// over the disorder holds — with ErrCorrupt naming the item, leaving the
// fields of a page decoded into as they were.
func TestUnsortedDataPageIsRefused(t *testing.T) {
	_, _, err := DecodeDataCols(unsortedPage, nil)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "item 1's first coordinate 10 is below item 0's 11") {
		t.Fatalf("DecodeDataCols of an unsorted page: %v, want ErrCorrupt naming item 1", err)
	}
	if _, _, err := DecodeData(unsortedPage); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeData of an unsorted page: %v, want ErrCorrupt", err)
	}
	items, coords, err := AppendDataItems(unsortedPage, make([]Item, 2), make([]uint64, 4))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "item 1's first coordinate 10 is below item 0's 11") {
		t.Fatalf("AppendDataItems of an unsorted page: %v, want ErrCorrupt naming item 1", err)
	}
	if len(items) != 2 || len(coords) != 4 {
		t.Fatalf("a refused AppendDataItems returned %d items and %d words, was handed 2 and 4", len(items), len(coords))
	}
	dst, _, err := DecodeDataCols(columnPage, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeDataCols(unsortedPage, dst); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeDataCols of an unsorted page into a page: %v, want ErrCorrupt", err)
	}
	if dst.Len() != 3 || !dst.Region.Equal(region.MustParseBits("10")) {
		t.Fatalf("a refused decode left %d items in region %v, want columnPage's 3 in 10", dst.Len(), dst.Region)
	}
}

// columnPage is a data page forged field by field in the stored layout:
// dims 2, the region "10", and three items whose rows follow one another
// — x0 x1 x2, y0 y1 y2, then the payloads p0 p1 p2.
var columnPage = rawPage(KindData, uint32(2), uint32(2), uint64(1)<<63,
	uint32(3), uint64(10), uint64(11), uint64(12), uint64(20), uint64(21), uint64(22), uint64(7), uint64(8), uint64(9))

// TestDataPageIsColumnMajor pins the stored layout apart from the
// encoder: every decoder reads the forged column-major page as the items
// (10, 20; 7), (11, 21; 8), (12, 22; 9), and the encoder writes those
// items back as the same bytes.
func TestDataPageIsColumnMajor(t *testing.T) {
	want := []Item{{geometry.Point{10, 20}, 7}, {geometry.Point{11, 21}, 8}, {geometry.Point{12, 22}, 9}}
	p, dims, err := DecodeDataCols(columnPage, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dims != 2 || !p.Region.Equal(region.MustParseBits("10")) {
		t.Fatalf("DecodeDataCols: dims %d, region %v", dims, p.Region)
	}
	sameItems(t, "DecodeDataCols", p, want)
	if !bytes.Equal(EncodeData(p, dims), columnPage) {
		t.Fatal("EncodeData does not write the decoded page back as its bytes")
	}
	items, _, err := AppendDataItems(columnPage, nil, nil)
	if err != nil || len(items) != len(want) {
		t.Fatalf("AppendDataItems: %d items, %v", len(items), err)
	}
	for i, it := range items {
		if !it.Point.Equal(want[i].Point) || it.Payload != want[i].Payload {
			t.Fatalf("AppendDataItems item %d is %v, want %v", i, it, want[i])
		}
	}
}

// TestDecodeIntoReusesSlab: a decode into a page of the caller's reads
// the same rows and region as a fresh one, and allocates nothing once the
// page's slab holds the rows and the region key; a slab too small is
// replaced, and Poison overwrites every word the page was decoded into.
func TestDecodeIntoReusesSlab(t *testing.T) {
	want := []Item{{geometry.Point{10, 20}, 7}, {geometry.Point{11, 21}, 8}, {geometry.Point{12, 22}, 9}}
	dst := NewDataPage(region.MustParseBits("0"), 2)
	p, dims, err := DecodeDataCols(columnPage, dst)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := DecodeDataCols(columnPage, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p != dst || dims != 2 || !dst.Region.Equal(fresh.Region) || fresh.Region.Len() == 0 {
		t.Fatalf("decode into a page: page %p of %p, dims %d, region %v", p, dst, dims, dst.Region)
	}
	sameItems(t, "decode into a page", dst, want)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeDataCols(columnPage, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a decode into a page whose slab holds the rows: %.1f allocs, want 0", allocs)
	}
	big := EncodeData(pageOf(region.BitString{}, 2, 0, randItems(rand.New(rand.NewSource(5)), 2, 40)), 2)
	if _, _, err := DecodeDataCols(big, dst); err != nil || dst.Len() != 40 {
		t.Fatalf("decode of 40 items into a 3-item slab: %d items, %v", dst.Len(), err)
	}
	if _, _, err := DecodeDataCols(columnPage, dst); err != nil {
		t.Fatal(err)
	}
	const sentinel = 0xdeadbeefdeadbeef
	dst.Poison(sentinel)
	reg := dst.Region.Words()
	if dst.Payload(0) != sentinel || dst.AppendPoint(nil, 2)[1] != sentinel || len(reg) == 0 || reg[0] != sentinel {
		t.Fatalf("a poisoned page still reads payload %#x, point %v, region words %#x", dst.Payload(0), dst.AppendPoint(nil, 2), reg)
	}
}

// TestEncodersSizeExactly: each encoder writes its page into one buffer
// sized before the first byte, so the page is exactly as long as the
// buffer's capacity and nothing regrew on the way.
func TestEncodersSizeExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, dims := range []int{1, 2, 5} {
		for _, ni := range []int{0, 1, 168} {
			reg := randBits(rng, 130)
			b := EncodeData(pageOf(reg, dims, 0, randItems(rng, dims, ni)), dims)
			if len(b) != cap(b) {
				t.Fatalf("data page of %d items, dims %d: %d bytes in a %d-byte buffer", ni, dims, len(b), cap(b))
			}
		}
	}
	for _, ne := range []int{0, 1, 40} {
		b := EncodeIndex(nodeOf(3, randBits(rng, 70), 2, randEntries(rng, 2, ne)))
		if len(b) != cap(b) {
			t.Fatalf("index node of %d entries: %d bytes in a %d-byte buffer", ne, len(b), cap(b))
		}
	}
	b := EncodeMeta(&Meta{Dims: 2, DataCapacity: 168, Fanout: 16, BitsPerDim: 64, LevelScaled: true, Root: 2, RootLevel: 3, Size: 1e6, LSN: 1 << 40})
	if len(b) != cap(b) {
		t.Fatalf("meta record: %d bytes in a %d-byte buffer", len(b), cap(b))
	}
}

// TestMetaRecordCarriesLSN: the meta record round-trips its checkpoint
// LSN, and a record of the earlier layout (kind 3, whose last field was
// a checkpoint epoch) is refused with ErrCorrupt, not read as an LSN.
func TestMetaRecordCarriesLSN(t *testing.T) {
	m := &Meta{Dims: 2, DataCapacity: 8, Fanout: 8, BitsPerDim: 64, Root: 2, RootLevel: 1, Size: 10, LSN: 1 << 40}
	b := EncodeMeta(m)
	got, err := DecodeMeta(b)
	if err != nil || *got != *m {
		t.Fatalf("meta round trip: %+v, %v; want %+v", got, err, m)
	}
	old := append([]byte(nil), b...)
	old[2] = 3
	binary.LittleEndian.PutUint32(old[len(old)-4:], crc32.Checksum(old[:len(old)-4], crcTable))
	if _, err := DecodeMeta(old); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("kind-3 meta record decoded with err=%v, want ErrCorrupt", err)
	}
}
