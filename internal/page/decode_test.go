package page

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"bvtree/internal/region"
)

// rawPage builds a checksummed page image of the given kind from raw
// fields (uint32, uint64 or plain bytes). It is how the tests below forge
// pages that are structurally wrong behind a valid envelope — the damage
// a checksum cannot catch because it was computed over it.
func rawPage(k Kind, fields ...interface{}) []byte {
	w := newWriter(k)
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
	{"data: region key length 1<<21", false, rawPage(KindData, uint32(2), uint32(1<<21), uint32(0))},
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
			items := randItems(rng, dims, ni)
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
