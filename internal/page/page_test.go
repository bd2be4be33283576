package page

import (
	"math/rand"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/region"
)

func randBits(rng *rand.Rand, maxLen int) region.BitString {
	n := rng.Intn(maxLen + 1)
	b := region.BitString{}
	for i := 0; i < n; i++ {
		b = b.Append(rng.Intn(2))
	}
	return b
}

func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		level := 1 + rng.Intn(5)
		ents := make([]Entry, rng.Intn(20))
		for i := range ents {
			ents[i] = Entry{Key: randBits(rng, 150), Level: rng.Intn(level), Child: ID(rng.Uint64())}
		}
		n := nodeOf(level, randBits(rng, 100), 2, ents)
		blob := EncodeIndex(n)
		k, err := DecodeKind(blob)
		if err != nil || k != KindIndex {
			t.Fatalf("kind = %v, %v", k, err)
		}
		got, err := DecodeIndex(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got.Level != n.Level || !got.Region.Equal(n.Region) || got.Len() != len(ents) {
			t.Fatalf("header mismatch: %+v vs %+v", got, n)
		}
		for i, e := range got.ReadEntries() {
			if !e.Key.Equal(ents[i].Key) || e.Level != ents[i].Level || e.Child != ents[i].Child {
				t.Fatalf("entry %d mismatch", i)
			}
		}
	}
}

func TestDataRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		dims := 1 + rng.Intn(4)
		items := make([]Item, rng.Intn(30))
		for i := range items {
			pt := make(geometry.Point, dims)
			for d := range pt {
				pt[d] = rng.Uint64()
			}
			items[i] = Item{Point: pt, Payload: rng.Uint64()}
		}
		p := pageOf(randBits(rng, 80), dims, 32, items)
		items = ordered(items)
		blob := EncodeData(p, dims)
		got, gotDims, err := DecodeData(blob)
		if err != nil {
			t.Fatal(err)
		}
		if gotDims != dims || !got.Region.Equal(p.Region) || len(got.Items) != len(items) {
			t.Fatalf("header mismatch")
		}
		for i := range items {
			if !got.Items[i].Point.Equal(items[i].Point) || got.Items[i].Payload != items[i].Payload {
				t.Fatalf("item %d mismatch", i)
			}
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	n := nodeOf(1, region.MustParseBits("01"), 2, []Entry{{Key: region.MustParseBits("010"), Level: 0, Child: 7}})
	blob := EncodeIndex(n)
	for pos := 0; pos < len(blob); pos += 3 {
		bad := append([]byte(nil), blob...)
		bad[pos] ^= 0x40
		if _, err := DecodeIndex(bad); err == nil {
			t.Fatalf("corruption at byte %d undetected", pos)
		}
	}
}

func TestDecodeWrongKind(t *testing.T) {
	d := &DataPage{Region: region.BitString{}}
	blob := EncodeData(d, 2)
	if _, err := DecodeIndex(blob); err == nil {
		t.Fatal("data page decoded as index node")
	}
	n := &IndexNode{Level: 1}
	if _, _, err := DecodeData(EncodeIndex(n)); err == nil {
		t.Fatal("index node decoded as data page")
	}
}

func TestDecodeTruncated(t *testing.T) {
	n := &IndexNode{Level: 2, Region: region.MustParseBits("0")}
	blob := EncodeIndex(n)
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeIndex(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestIsGuard(t *testing.T) {
	e := Entry{Level: 0}
	if e.IsGuard(1) {
		t.Fatal("unpromoted entry classified as guard")
	}
	if !e.IsGuard(2) {
		t.Fatal("level-0 entry in a level-2 node is a guard")
	}
}
