package page

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/region"
)

// The decoders face bytes from disk; they must never panic, must reject
// anything that does not round-trip, and must classify every rejection as
// ErrCorrupt. Seeds cover valid encodings of each page kind and the
// structurally wrong pages of decode_test.go, whose checksums are valid;
// the fuzzer mutates them into torn and corrupt forms. Each kind has two
// decoders, with and without what the tree needs (DecodeIndexCols' brick
// bounds, DecodeData's Items), which must accept exactly the same pages;
// what they accept must encode back to the same bytes, also after the
// entries or items read out of the columns are added to an empty node or
// page, and after an edit is made and undone in place. A data page they
// accept is in first-coordinate order: one whose checksum holds over
// rows out of it (unsortedPage) is refused.

func FuzzDecodeIndex(f *testing.F) {
	f.Add(encodeEntries(2, region.MustParseBits("01"), []Entry{
		{Key: region.MustParseBits("010"), Level: 1, Child: 5},
		{Key: region.MustParseBits("0111"), Level: 0, Child: 9},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xEE, 0xB7, byte(KindIndex), fmtVersion, 0, 0, 0, 0})
	for _, c := range structurallyCorrupt {
		f.Add(c.blob)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeIndex(b)
		cols, cerr := DecodeIndexCols(b, 2)
		if (err == nil) != (cerr == nil) {
			t.Fatalf("DecodeIndex error %v, DecodeIndexCols error %v", err, cerr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || !errors.Is(cerr, ErrCorrupt) {
				t.Fatalf("decode errors %q, %q do not wrap ErrCorrupt", err, cerr)
			}
			return
		}
		// Anything accepted must re-encode and decode identically.
		re := EncodeIndex(got)
		ents := cols.ReadEntries()
		sameEntries(t, "decode", cols, ents)
		if !bytes.Equal(EncodeIndex(cols), re) {
			t.Fatal("the decoders' nodes encode differently")
		}
		sameEntries(t, "rebuild", nodeOf(cols.Level, cols.Region, 2, ents), ents)
		again, err := DecodeIndex(re)
		if err != nil {
			t.Fatalf("re-decode of accepted page failed: %v", err)
		}
		if again.Level != got.Level || again.Len() != got.Len() {
			t.Fatal("re-encode not stable")
		}
		cols.Append(Entry{Key: region.MustParseBits("1101"), Level: 0, Child: 3})
		sameEntries(t, "append", cols, append(ents, Entry{Key: region.MustParseBits("1101"), Level: 0, Child: 3}))
		cols.RemoveAt(cols.Len() - 1)
		if !bytes.Equal(EncodeIndex(cols), re) {
			t.Fatal("an append and its removal changed the encoding")
		}
	})
}

func FuzzDecodeData(f *testing.F) {
	f.Add(encodeItems(region.MustParseBits("10"), 2, []Item{{Point: geometry.Point{1, 2}, Payload: 3}}))
	f.Add(columnPage)
	f.Add(unsortedPage)
	f.Add([]byte{})
	for _, c := range structurallyCorrupt {
		f.Add(c.blob)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, dims, err := DecodeData(b)
		cols, cdims, cerr := DecodeDataCols(b, nil)
		// A decode into a page of the caller's, whose slab it reuses,
		// makes every check the other decoders make.
		dst := NewDataPage(region.BitString{}, 1)
		dst.Reserve(64)
		into, idims, ierr := DecodeDataCols(b, dst)
		if (err == nil) != (cerr == nil) || (err == nil) != (ierr == nil) {
			t.Fatalf("DecodeData error %v, DecodeDataCols error %v, into a page %v", err, cerr, ierr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || !errors.Is(cerr, ErrCorrupt) || !errors.Is(ierr, ErrCorrupt) {
				t.Fatalf("decode errors %q, %q, %q do not wrap ErrCorrupt", err, cerr, ierr)
			}
			return
		}
		if into != dst || idims != dims || !into.Region.Equal(got.Region) {
			t.Fatalf("decode into a page: page %p of %p, %d dims of %d, region %v of %v", into, dst, idims, dims, into.Region, got.Region)
		}
		sameItems(t, "decode into a page", into, got.Items)
		if cdims != dims || cols.DCols().Dims() != dims {
			t.Fatalf("DecodeDataCols found %d dims into %d rows, DecodeData %d", cdims, cols.DCols().Dims(), dims)
		}
		// An accepted page comes out with its items read from its rows,
		// in first-coordinate order.
		sameItems(t, "decode", got, got.Items)
		for i := 1; i < len(got.Items); i++ {
			if got.Items[i].Point[0] < got.Items[i-1].Point[0] {
				t.Fatalf("accepted a page whose item %d's first coordinate is below item %d's", i, i-1)
			}
		}
		re := EncodeData(got, dims)
		if _, _, err := DecodeData(re); err != nil {
			t.Fatalf("re-decode of accepted page failed: %v", err)
		}
		sameItems(t, "decode into columns", cols, got.Items)
		sameItems(t, "rebuild", pageOf(cols.Region, dims, 0, got.Items), got.Items)
		// A point of the greatest first coordinate goes in last.
		last := make(geometry.Point, dims)
		last[0] = math.MaxUint64
		cols.Insert(last, 7)
		cols.RemoveAt(cols.Len() - 1)
		if !bytes.Equal(EncodeData(cols, dims), re) {
			t.Fatal("an insert and its removal changed the encoding")
		}
	})
}

func FuzzDecodeMeta(f *testing.F) {
	f.Add(EncodeMeta(&Meta{Dims: 2, DataCapacity: 8, Fanout: 8, BitsPerDim: 64, Root: 2, RootLevel: 1, Size: 10}))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMeta(b)
		if err != nil {
			return
		}
		again, err := DecodeMeta(EncodeMeta(m))
		if err != nil || *again != *m {
			t.Fatalf("meta round trip: %+v vs %+v (%v)", m, again, err)
		}
	})
}
