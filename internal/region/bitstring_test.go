package region

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bvtree/internal/geometry"
	"bvtree/internal/zorder"
)

func randBits(rng *rand.Rand, maxLen int) BitString {
	n := rng.Intn(maxLen + 1)
	b := BitString{}
	for i := 0; i < n; i++ {
		b = b.Append(rng.Intn(2))
	}
	return b
}

func TestParseAndString(t *testing.T) {
	for _, s := range []string{"", "0", "1", "0110", "111000111000"} {
		b, err := ParseBits(s)
		if err != nil {
			t.Fatal(err)
		}
		want := s
		if s == "" {
			want = "ε"
		}
		if b.String() != want {
			t.Fatalf("round trip %q -> %q", s, b.String())
		}
		if b.Len() != len(s) {
			t.Fatalf("len %d want %d", b.Len(), len(s))
		}
	}
	if _, err := ParseBits("012"); err == nil {
		t.Fatal("invalid char accepted")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustParseBits("x")
}

func TestAppendImmutable(t *testing.T) {
	a := MustParseBits("01")
	b := a.Append(1)
	c := a.Append(0)
	if a.String() != "01" || b.String() != "011" || c.String() != "010" {
		t.Fatalf("append mutated: %v %v %v", a, b, c)
	}
}

func TestPrefixMasksTrailingBits(t *testing.T) {
	b := MustParseBits("1111")
	p := b.Prefix(2)
	if p.String() != "11" {
		t.Fatalf("prefix = %v", p)
	}
	// The masked copy must compare equal to an independently built value.
	if !p.Equal(MustParseBits("11")) {
		t.Fatal("prefix not equal to parsed value")
	}
}

func TestPrefixAcrossWordBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := randBits(rng, 0)
	for i := 0; i < 200; i++ {
		b = b.Append(rng.Intn(2))
	}
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 200} {
		p := b.Prefix(n)
		if p.Len() != n {
			t.Fatalf("prefix(%d).Len=%d", n, p.Len())
		}
		if !p.IsPrefixOf(b) {
			t.Fatalf("prefix(%d) not a prefix", n)
		}
		for i := 0; i < n; i++ {
			if p.Bit(i) != b.Bit(i) {
				t.Fatalf("bit %d differs", i)
			}
		}
	}
}

func TestPrefixPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustParseBits("01").Prefix(3)
}

func TestIsPrefixOfProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a := randBits(rng, 130)
		b := randBits(rng, 130)
		// Definition check against the naive implementation.
		naive := a.Len() <= b.Len()
		if naive {
			for j := 0; j < a.Len(); j++ {
				if a.Bit(j) != b.Bit(j) {
					naive = false
					break
				}
			}
		}
		if a.IsPrefixOf(b) != naive {
			t.Fatalf("IsPrefixOf(%v, %v) = %v, naive %v", a, b, a.IsPrefixOf(b), naive)
		}
		if a.IsProperPrefixOf(b) != (naive && a.Len() < b.Len()) {
			t.Fatal("IsProperPrefixOf inconsistent")
		}
	}
}

func TestCommonPrefixLen(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"0", "1", 0},
		{"01", "01", 2},
		{"0110", "0111", 3},
		{"0110", "01", 2},
	}
	for _, c := range cases {
		a, b := MustParseBits(c.a), MustParseBits(c.b)
		if got := a.CommonPrefixLen(b); got != c.want {
			t.Fatalf("CommonPrefixLen(%q,%q)=%d want %d", c.a, c.b, got, c.want)
		}
		if got := b.CommonPrefixLen(a); got != c.want {
			t.Fatal("not symmetric")
		}
	}
	// Across word boundary.
	rng := rand.New(rand.NewSource(7))
	long := randBits(rng, 0)
	for i := 0; i < 150; i++ {
		long = long.Append(rng.Intn(2))
	}
	other := long.Prefix(100).Append(1 - long.Bit(100))
	if got := long.CommonPrefixLen(other); got != 100 {
		t.Fatalf("long common prefix = %d, want 100", got)
	}
}

func TestCompareTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a, b, c := randBits(rng, 70), randBits(rng, 70), randBits(rng, 70)
		if a.Compare(b) != -b.Compare(a) {
			t.Fatal("antisymmetry broken")
		}
		if a.Compare(a) != 0 {
			t.Fatal("reflexivity broken")
		}
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			t.Fatalf("transitivity broken: %v %v %v", a, b, c)
		}
		if a.IsProperPrefixOf(b) && a.Compare(b) != -1 {
			t.Fatal("prefix must sort before extension")
		}
	}
}

func TestEqualAndWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		a := randBits(rng, 200)
		b, err := OwnWords(slices.Clone(a.Words()), a.Len())
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("words round trip failed for %v", a)
		}
	}
	if _, err := OwnWords(nil, 5); err == nil {
		t.Fatal("short words accepted")
	}
}

func TestFromAddressMatchesInterleave(t *testing.T) {
	il, _ := zorder.NewInterleaver(2, 16)
	f := func(x, y uint64) bool {
		a, err := il.Interleave(geometry.Point{x, y})
		if err != nil {
			return false
		}
		b := FromAddress(a)
		if b.Len() != a.Len() {
			return false
		}
		for i := 0; i < b.Len(); i++ {
			if b.Bit(i) != a.Bit(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
