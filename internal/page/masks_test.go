package page

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/region"
)

// The column mask passes — Intersect64, Within64 and Cover64 over an
// index node's brick bounds, Run, ContainMask64 and PointAt over a data
// page's rows — are pinned here to the plain per-row loops they stand
// for, on bounds written straight into the columns and on rows inserted
// into a page, which holds them in first-coordinate order. The values
// are drawn mostly at, or one beside, a bound of the window and at 0 and
// MaxUint64, so each comparison meets its edges: a subtraction borrow
// taken the wrong way round fails here on the first few cases.

// maskCase is one input of the mask passes: n rows of dims dimensions,
// each both a brick (bmin..bmax) and a point, a window and a probe.
type maskCase struct {
	dims       int
	bmin, bmax [][]uint64
	pts        [][]uint64
	rect       geometry.Rect
	probe      geometry.Point
	cand       uint64 // a candidate set for Within64 and Cover64
}

// edgeValue draws a coordinate of dimension d: three draws in four at
// an extreme or at or beside a bound of rect, the rest anything.
func edgeValue(next func() uint64, rect geometry.Rect, d int) uint64 {
	switch next() % 8 {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	case 2:
		return rect.Min[d]
	case 3:
		return rect.Max[d]
	case 4:
		return rect.Min[d] - 1 // MaxUint64 beside a window at 0
	case 5:
		return rect.Max[d] + 1 // 0 beside a window at MaxUint64
	default:
		return next()
	}
}

// newMaskCase draws a case of n rows from next.
func newMaskCase(next func() uint64, dims, n int) maskCase {
	c := maskCase{dims: dims, rect: geometry.Rect{Min: make(geometry.Point, dims), Max: make(geometry.Point, dims)}}
	for d := 0; d < dims; d++ {
		lo, hi := next(), next()
		switch next() % 6 {
		case 0:
			hi = lo // a point window
		case 1:
			lo = 0
		case 2:
			hi = math.MaxUint64
		}
		c.rect.Min[d], c.rect.Max[d] = min(lo, hi), max(lo, hi)
	}
	c.bmin, c.bmax, c.pts = make([][]uint64, n), make([][]uint64, n), make([][]uint64, n)
	for i := 0; i < n; i++ {
		c.bmin[i], c.bmax[i], c.pts[i] = make([]uint64, dims), make([]uint64, dims), make([]uint64, dims)
		for d := 0; d < dims; d++ {
			a, b := edgeValue(next, c.rect, d), edgeValue(next, c.rect, d)
			if next()%4 == 0 {
				b = a // a point brick
			}
			c.bmin[i][d], c.bmax[i][d] = min(a, b), max(a, b)
			c.pts[i][d] = edgeValue(next, c.rect, d)
		}
	}
	c.probe = make(geometry.Point, dims)
	if n > 0 && next()%2 == 0 {
		copy(c.probe, c.pts[next()%uint64(n)])
	} else {
		for d := range c.probe {
			c.probe[d] = edgeValue(next, c.rect, d)
		}
	}
	c.cand = next()
	return c
}

// check fails t unless every pass over the case's rows, on an index
// node and on a data page both laid out at a capacity above n and
// decoded to exactly n, agrees with the per-row loops. The page holds
// the points in its own order, and each row's payload is the index of
// its point in mc.pts, which the data-page loops read the points by.
func (mc maskCase) check(t *testing.T) {
	t.Helper()
	dims, n := mc.dims, len(mc.pts)
	node := NewIndexNode(1, region.BitString{}, dims)
	for i := 0; i < n; i++ {
		node.Append(Entry{Child: ID(i + 1)})
		min, max := node.Cols().BoundsAt(i)
		copy(min, mc.bmin[i])
		copy(max, mc.bmax[i])
	}
	dp := NewDataPage(region.BitString{}, dims)
	dp.Reserve(n + 3)
	for i, pt := range mc.pts {
		dp.Insert(pt, uint64(i))
	}
	decoded, _, err := DecodeDataCols(EncodeData(dp, dims), nil)
	if err != nil {
		t.Fatal(err)
	}
	rmin, rmax := mc.rect.Min, mc.rect.Max
	from, to := dp.DCols().Run(rmin[0], rmax[0])
	var runFrom, runTo int // the run by a linear scan
	for i := 0; i < n; i++ {
		if x := mc.pts[dp.Payload(i)][0]; x < rmin[0] {
			runFrom = i + 1
		} else if x <= rmax[0] {
			runTo = i + 1
		}
	}
	runTo = max(runTo, runFrom)
	if from != runFrom || to != runTo {
		t.Fatalf("dims %d, %d rows: Run(%d, %d) = [%d, %d), a linear scan gives [%d, %d)",
			dims, n, rmin[0], rmax[0], from, to, runFrom, runTo)
	}
	// A reader's scan: ContainMask64 over the run, 64 rows at a time from
	// its start, finds the rows the per-row loop finds.
	var viaRun, inside []int
	for _, p := range []*DataPage{dp, decoded} {
		viaRun, inside = viaRun[:0], inside[:0]
		for base := from; base < to; base += 64 {
			for m := p.DCols().ContainMask64(mc.rect, base, to); m != 0; m &= m - 1 {
				viaRun = append(viaRun, base+bits.TrailingZeros64(m))
			}
		}
		for i := 0; i < n; i++ {
			if mc.rect.Contains(mc.pts[p.Payload(i)]) {
				inside = append(inside, i)
			}
		}
		if !slices.Equal(viaRun, inside) {
			t.Fatalf("dims %d, %d rows: ContainMask64 over the run [%d, %d) finds rows %v, the per-row loop %v (window %v)",
				dims, n, from, to, viaRun, inside, mc.rect)
		}
	}
	for base := 0; base < n; base += 64 {
		rows := min(n-base, 64)
		live := uint64(math.MaxUint64) >> uint(64-rows)
		cand := mc.cand & live
		var wantI, wantW, wantC, wantCW, wantCC, wantContain uint64
		for j := 0; j < rows; j++ {
			i, bit := base+j, uint64(1)<<uint(j)
			pt := mc.pts[dp.Payload(i)]
			inter, within, cover, contain, eq := true, true, true, true, true
			for d := 0; d < dims; d++ {
				lo, hi, p := mc.bmin[i][d], mc.bmax[i][d], pt[d]
				inter = inter && lo <= rmax[d] && hi >= rmin[d]
				within = within && lo >= rmin[d] && hi <= rmax[d]
				cover = cover && lo <= rmin[d] && hi >= rmax[d]
				contain = contain && p >= rmin[d] && p <= rmax[d]
				eq = eq && p == mc.probe[d]
			}
			if dp.DCols().PointAt(i, mc.probe) != eq || decoded.DCols().PointAt(i, mc.probe) != eq {
				t.Fatalf("dims %d, %d rows: PointAt(%d, %v) differs from the per-dimension loop's %v", dims, n, i, mc.probe, eq)
			}
			if inter {
				wantI |= bit
			}
			if inter && within {
				wantW |= bit
			}
			if inter && cover {
				wantC |= bit
			}
			if cand&bit != 0 && within {
				wantCW |= bit
			}
			if cand&bit != 0 && cover {
				wantCC |= bit
			}
			if contain {
				wantContain |= bit
			}
		}
		c := node.Cols()
		m := c.Intersect64(mc.rect, base)
		for _, got := range []struct {
			name      string
			got, want uint64
		}{
			{"Intersect64", m, wantI},
			{"Within64 of Intersect64", c.Within64(mc.rect, base, m), wantW},
			{"Cover64 of Intersect64", c.Cover64(mc.rect, base, m), wantC},
			{"Within64 of a candidate set", c.Within64(mc.rect, base, cand), wantCW},
			{"Cover64 of a candidate set", c.Cover64(mc.rect, base, cand), wantCC},
			{"ContainMask64", dp.DCols().ContainMask64(mc.rect, base, n), wantContain},
			{"ContainMask64 of the decoded page", decoded.DCols().ContainMask64(mc.rect, base, n), wantContain},
		} {
			if got.got != got.want {
				t.Fatalf("dims %d, %d rows, base %d: %s = %064b, the per-row loop gives %064b (window %v, probe %v)",
					dims, n, base, got.name, got.got, got.want, mc.rect, mc.probe)
			}
		}
	}
}

// TestColumnMasksMatchReference checks the passes at dims 1 to 8, on
// row counts each side of the 64-row word boundaries and up to past the
// default data capacity, and on random row counts.
func TestColumnMasksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	counts := []int{0, 1, 2, 7, 63, 64, 65, 127, 128, 129, 168, 169}
	for dims := 1; dims <= 8; dims++ {
		for trial := 0; trial < 40; trial++ {
			n := rng.Intn(200)
			if trial < len(counts) {
				n = counts[trial]
			}
			newMaskCase(rng.Uint64, dims, n).check(t)
		}
	}
}

// FuzzColumnMasks is TestColumnMasksMatchReference over fuzzed rows and
// windows: the input picks dims and the row count, and its bytes, read
// eight at a time, are the draws; past its end the draws come from a
// splitmix stream seeded by its length, so a case repeats exactly.
func FuzzColumnMasks(f *testing.F) {
	f.Add(uint8(1), uint8(65), []byte{})
	f.Add(uint8(2), uint8(168), []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint8(7), uint8(129), []byte("\xff\xff\xff\xff\xff\xff\xff\xff\x02\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, dims, n uint8, data []byte) {
		state := uint64(len(data))
		next := func() uint64 {
			if len(data) >= 8 {
				v := binary.LittleEndian.Uint64(data)
				data = data[8:]
				return v
			}
			state += 0x9e3779b97f4a7c15
			z := state
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return z ^ z>>31
		}
		newMaskCase(next, 1+int(dims%geometry.MaxDims), int(n)).check(t)
	})
}
