package page

import (
	"bytes"
	"errors"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/region"
)

// The decoders face bytes from disk; they must never panic, must reject
// anything that does not round-trip, and must classify every rejection as
// ErrCorrupt. Seeds cover valid encodings of each page kind and the
// structurally wrong pages of decode_test.go, whose checksums are valid;
// the fuzzer mutates them into torn and corrupt forms. The column
// decoders (DecodeIndexCols, DecodeDataCols), which are what a tree reads
// stored pages with, must accept exactly the pages the entry decoders
// accept, and the entries or items built from their columns must agree
// with the columns and encode as the entry decoders' result does.

func FuzzDecodeIndex(f *testing.F) {
	n := &IndexNode{Level: 2, Region: region.MustParseBits("01")}
	n.Entries = append(n.Entries,
		Entry{Key: region.MustParseBits("010"), Level: 1, Child: 5},
		Entry{Key: region.MustParseBits("0111"), Level: 0, Child: 9},
	)
	f.Add(EncodeIndex(n))
	f.Add([]byte{})
	f.Add([]byte{0xEE, 0xB7, 1, 1, 0, 0, 0, 0})
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
		if err := cols.CheckCols(2); err != nil {
			t.Fatalf("decoded columns disagree with their entries: %v", err)
		}
		if !bytes.Equal(EncodeIndex(cols), re) {
			t.Fatal("a node carrying only columns encodes differently")
		}
		cols.BuildEntries()
		if err := cols.CheckCols(2); err != nil {
			t.Fatalf("columns stale after BuildEntries: %v", err)
		}
		if !bytes.Equal(EncodeIndex(cols), re) {
			t.Fatal("entries built from the columns encode differently")
		}
		again, err := DecodeIndex(re)
		if err != nil {
			t.Fatalf("re-decode of accepted page failed: %v", err)
		}
		if again.Level != got.Level || len(again.Entries) != len(got.Entries) {
			t.Fatal("re-encode not stable")
		}
		// The columnar mirror built over a decoded node must agree with
		// its entries, be rebuilt after an append, and never leak into
		// the wire format.
		got.SyncCols(2)
		if err := got.CheckCols(2); err != nil {
			t.Fatalf("cols mismatch after decode: %v", err)
		}
		got.Entries = append(got.Entries, Entry{Key: region.MustParseBits("1101"), Level: 0, Child: 3})
		got.SyncCols(2)
		if err := got.CheckCols(2); err != nil {
			t.Fatalf("cols mismatch after append: %v", err)
		}
		got.Entries = got.Entries[:len(got.Entries)-1]
		if !bytes.Equal(EncodeIndex(got), re) {
			t.Fatal("mirror maintenance changed the encoding")
		}
	})
}

func FuzzDecodeData(f *testing.F) {
	p := &DataPage{Region: region.MustParseBits("10")}
	p.Items = append(p.Items, Item{Point: geometry.Point{1, 2}, Payload: 3})
	f.Add(EncodeData(p, 2))
	f.Add([]byte{})
	for _, c := range structurallyCorrupt {
		f.Add(c.blob)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, dims, err := DecodeData(b)
		cols, cdims, cerr := DecodeDataCols(b)
		if (err == nil) != (cerr == nil) {
			t.Fatalf("DecodeData error %v, DecodeDataCols error %v", err, cerr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || !errors.Is(cerr, ErrCorrupt) {
				t.Fatalf("decode errors %q, %q do not wrap ErrCorrupt", err, cerr)
			}
			return
		}
		if cdims != dims {
			t.Fatalf("DecodeDataCols found %d dims, DecodeData %d", cdims, dims)
		}
		// An accepted page comes out published: the mirror DecodeData
		// filled must agree with the items.
		if err := got.CheckDataCols(dims); err != nil {
			t.Fatalf("mirror mismatch after decode: %v", err)
		}
		re := EncodeData(got, dims)
		if _, _, err := DecodeData(re); err != nil {
			t.Fatalf("re-decode of accepted page failed: %v", err)
		}
		if err := cols.CheckDataCols(dims); err != nil {
			t.Fatalf("decoded columns disagree with their items: %v", err)
		}
		for i := range got.Items {
			if cols.Payload(i) != got.Items[i].Payload {
				t.Fatalf("item %d: payload row %d, item %d", i, cols.Payload(i), got.Items[i].Payload)
			}
		}
		if !bytes.Equal(EncodeData(cols, dims), re) {
			t.Fatal("a page carrying only columns encodes differently")
		}
		cols.BuildItems()
		if err := cols.CheckDataCols(dims); err != nil {
			t.Fatalf("columns stale after BuildItems: %v", err)
		}
		if !bytes.Equal(EncodeData(cols, dims), re) {
			t.Fatal("items built from the columns encode differently")
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
