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
			if _, cerr := DecodeDataCount(c.blob); !errors.Is(cerr, ErrCorrupt) {
				t.Errorf("%s: DecodeDataCount error %v does not wrap ErrCorrupt", c.name, cerr)
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

// privateKeys returns a copy of n whose region and entry keys each own
// their words (region.FromWords copies): the node DecodeIndex produced
// when it made one allocation per key.
func privateKeys(t *testing.T, n *IndexNode) *IndexNode {
	t.Helper()
	own := func(b region.BitString) region.BitString {
		c, err := region.FromWords(b.Words(), b.Len())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := &IndexNode{Level: n.Level, Region: own(n.Region), Entries: make([]Entry, len(n.Entries))}
	for i, e := range n.Entries {
		c.Entries[i] = Entry{Key: own(e.Key), Level: e.Level, Child: e.Child}
	}
	return c
}

// TestDecodeIndexSlabSharing: the keys of a decoded node share one slab,
// the one the entry build cuts them all from.
// Everything the tree does to such a node — split its entries over two
// nodes, clone it, append to it, drop entries — must encode exactly as it
// does for a node whose keys each own their words, and must leave the
// keys that stay behind untouched.
func TestDecodeIndexSlabSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const dims = 2
	same := func(what string, a, b *IndexNode) {
		t.Helper()
		if !bytes.Equal(EncodeIndex(a), EncodeIndex(b)) {
			t.Fatalf("%s: slab-backed node encodes differently from the private-key node", what)
		}
	}
	for trial := 0; trial < 40; trial++ {
		src := randNode(rng, dims, 2+rng.Intn(90))
		src.Region = randBits(rng, 70)
		blob := EncodeIndex(src)
		slab, err := DecodeIndex(blob)
		if err != nil {
			t.Fatal(err)
		}
		ref := privateKeys(t, slab)
		same("decode", slab, ref)
		if !bytes.Equal(EncodeIndex(slab), blob) {
			t.Fatal("decode → encode is not the identity")
		}
		slab.SyncCols(dims)
		if err := slab.CheckCols(dims); err != nil {
			t.Fatal(err)
		}

		// Split: the upper half moves to a new node, the lower half is
		// truncated in place and extended again.
		cut := len(slab.Entries) / 2
		split := func(n *IndexNode) (*IndexNode, *IndexNode) {
			right := &IndexNode{Level: n.Level, Region: n.Entries[cut].Key, Entries: append([]Entry(nil), n.Entries[cut:]...)}
			left := n.Clone()
			left.Entries = left.Entries[:cut]
			return left, right
		}
		sl, sr := split(slab)
		rl, rr := split(ref)
		same("split left", sl, rl)
		same("split right", sr, rr)
		for _, pair := range [][2]*IndexNode{{sl, rl}, {sr, rr}} {
			for i := 0; i < 5; i++ {
				e := Entry{Key: pair[0].Entries[rng.Intn(len(pair[0].Entries))].Key.Append(i & 1), Level: i, Child: ID(1000 + i)}
				pair[0].Entries = append(pair[0].Entries, e)
				pair[1].Entries = append(pair[1].Entries, e)
			}
			pair[0].SyncCols(dims)
			if err := pair[0].CheckCols(dims); err != nil {
				t.Fatal(err)
			}
			same("append", pair[0], pair[1])
			again, err := DecodeIndex(EncodeIndex(pair[0]))
			if err != nil {
				t.Fatal(err)
			}
			same("second decode", again, pair[1])
		}
		// None of it may have reached the node the keys were cut for.
		if !bytes.Equal(EncodeIndex(slab), blob) {
			t.Fatal("mutating the split halves changed the node they were split from")
		}
	}
}

// TestDecodeDataPublishesMirror: DecodeData decodes into the columns and
// builds the items from them, so the page it returns is already published
// for the dimensionality the page records and SyncDataCols has nothing to
// do.
func TestDecodeDataPublishesMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range []int{1, 2, 5} {
		for _, ni := range []int{0, 1, 37} {
			p, gotDims, err := DecodeData(EncodeData(randDataPage(rng, dims, ni), dims))
			if err != nil {
				t.Fatal(err)
			}
			if gotDims != dims {
				t.Fatalf("decoded %d dims, want %d", gotDims, dims)
			}
			c := p.DCols()
			if c == nil {
				t.Fatalf("dims %d, %d items: no fresh mirror after DecodeData", dims, ni)
			}
			if err := p.CheckDataCols(dims); err != nil {
				t.Fatal(err)
			}
			p.SyncDataCols(dims)
			if p.DCols() != c {
				t.Fatal("SyncDataCols rebuilt a mirror DecodeData had just built")
			}
		}
	}
}
