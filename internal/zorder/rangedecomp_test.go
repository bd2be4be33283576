package zorder

import (
	"math/rand"
	"slices"
	"testing"

	"bvtree/internal/geometry"
)

func TestDecomposeRectCoversAllInsidePoints(t *testing.T) {
	for _, dims := range []int{1, 2, 3} {
		il, err := NewInterleaver(dims, 64/dims)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(dims)))
		for trial := 0; trial < 50; trial++ {
			rect := randRect(rng, dims)
			ranges, err := DecomposeRect(il, rect, 64)
			if err != nil {
				t.Fatal(err)
			}
			if len(ranges) == 0 {
				t.Fatal("no ranges for a non-empty rect")
			}
			// Ranges must be sorted, disjoint and non-adjacent (coalesced).
			for i := 1; i < len(ranges); i++ {
				if ranges[i].Lo <= ranges[i-1].Hi {
					t.Fatalf("ranges overlap or unsorted: %v", ranges)
				}
				if ranges[i].Lo == ranges[i-1].Hi+1 {
					t.Fatalf("adjacent ranges not coalesced: %v", ranges)
				}
			}
			// Soundness: every point inside the rect has its key covered.
			for i := 0; i < 200; i++ {
				p := make(geometry.Point, dims)
				for d := 0; d < dims; d++ {
					span := rect.Max[d] - rect.Min[d]
					off := rng.Uint64()
					if span != ^uint64(0) {
						off %= span + 1
					}
					p[d] = rect.Min[d] + off
				}
				if !rect.Contains(p) {
					t.Fatal("generator bug")
				}
				key, err := il.Interleave64(p)
				if err != nil {
					t.Fatal(err)
				}
				covered := false
				for _, r := range ranges {
					if key >= r.Lo && key <= r.Hi {
						covered = true
						break
					}
				}
				if !covered {
					t.Fatalf("dims=%d trial=%d: key %x of inside point %v not covered by %v",
						dims, trial, key, p, ranges)
				}
			}
		}
	}
}

func TestDecomposeRectBudget(t *testing.T) {
	il, _ := NewInterleaver(2, 32)
	rng := rand.New(rand.NewSource(9))
	for _, budget := range []int{1, 2, 4, 16, 128} {
		for trial := 0; trial < 20; trial++ {
			rect := randRect(rng, 2)
			ranges, err := DecomposeRect(il, rect, budget)
			if err != nil {
				t.Fatal(err)
			}
			if len(ranges) > budget {
				t.Fatalf("budget %d exceeded: %d ranges", budget, len(ranges))
			}
		}
	}
	// Budget below 1 is clamped.
	u := geometry.UniverseRect(2)
	ranges, err := DecomposeRect(il, u, 0)
	if err != nil || len(ranges) != 1 {
		t.Fatalf("universe: %v %v", ranges, err)
	}
	if ranges[0].Lo != 0 || ranges[0].Hi != ^uint64(0) {
		t.Fatalf("universe range = %v", ranges[0])
	}
}

func TestDecomposeRectTightensWithBudget(t *testing.T) {
	// Larger budgets must not increase the total covered key volume.
	il, _ := NewInterleaver(2, 32)
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		rect := randRect(rng, 2)
		var prev float64 = -1
		for _, budget := range []int{1, 8, 64, 512} {
			ranges, err := DecomposeRect(il, rect, budget)
			if err != nil {
				t.Fatal(err)
			}
			total := 0.0
			for _, r := range ranges {
				total += float64(r.Hi - r.Lo)
			}
			if prev >= 0 && total > prev*1.0000001 {
				t.Fatalf("coverage grew with budget %d: %v > %v", budget, total, prev)
			}
			prev = total
		}
	}
}

func TestDecomposeRectDimMismatch(t *testing.T) {
	il, _ := NewInterleaver(2, 32)
	if _, err := DecomposeRect(il, geometry.UniverseRect(3), 8); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func randRect(rng *rand.Rand, dims int) geometry.Rect {
	min := make(geometry.Point, dims)
	max := make(geometry.Point, dims)
	for d := 0; d < dims; d++ {
		a, b := rng.Uint64(), rng.Uint64()
		if a > b {
			a, b = b, a
		}
		min[d], max[d] = a, b
	}
	return geometry.Rect{Min: min, Max: max}
}

func TestDecomposeRectAllocs(t *testing.T) {
	for _, dims := range []int{1, 2, 4} {
		il, err := NewInterleaver(dims, 64)
		if err != nil {
			t.Fatal(err)
		}
		rect := randRect(rand.New(rand.NewSource(int64(dims))), dims)
		for _, budget := range []int{1, 16, 64} {
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := DecomposeRect(il, rect, budget); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Errorf("dims %d, budget %d: %.1f allocations per decomposition, want at most 1 (the result)", dims, budget, allocs)
			}
		}
	}
}

// TestDecomposeRectMatchesCloningWalk pins the in-place walk to the walk it
// replaced, which cloned the brick into two children at every level:
// the intervals must be identical, not merely an equally sound cover.
func TestDecomposeRectMatchesCloningWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for dims := 1; dims <= 4; dims++ {
		for _, bits := range []int{64 / dims, 64} {
			il, err := NewInterleaver(dims, bits)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 40; trial++ {
				rect := randRect(rng, dims)
				if trial%4 == 0 {
					rect = narrowRect(rng, dims)
				}
				for budget := 1; budget <= 64; budget++ {
					got, err := DecomposeRect(il, rect, budget)
					if err != nil {
						t.Fatal(err)
					}
					want := decomposeRectCloning(il, rect, budget)
					if !slices.Equal(got, want) {
						t.Fatalf("dims %d, bits %d, rect %v, budget %d:\n got %v\nwant %v", dims, bits, rect, budget, got, want)
					}
				}
			}
		}
	}
}

// narrowRect returns a small window, whose cover the walk refines deeply.
func narrowRect(rng *rand.Rand, dims int) geometry.Rect {
	min := make(geometry.Point, dims)
	max := make(geometry.Point, dims)
	for d := 0; d < dims; d++ {
		min[d] = rng.Uint64() >> 1
		max[d] = min[d] + rng.Uint64()>>uint(20+rng.Intn(40))
	}
	return geometry.Rect{Min: min, Max: max}
}

// decomposeRectCloning is DecomposeRect as it was written before the walk
// split one brick in place: every level clones the brick into a low and a
// high child.
func decomposeRectCloning(il *Interleaver, rect geometry.Rect, maxRanges int) []KeyRange {
	if maxRanges < 1 {
		maxRanges = 1
	}
	maxBits := min(il.TotalBits(), 64)
	var out []KeyRange
	var walk func(brick geometry.Rect, prefix uint64, depth int)
	walk = func(brick geometry.Rect, prefix uint64, depth int) {
		if !rect.Intersects(brick) {
			return
		}
		full := prefixRange(prefix, depth)
		if rect.ContainsRect(brick) || depth == maxBits || maxRanges-len(out) <= 1 {
			out = append(out, full)
			return
		}
		dim := depth % il.dims
		half := (brick.Max[dim]-brick.Min[dim])/2 + 1
		lowBrick := brick.Clone()
		lowBrick.Max[dim] = brick.Min[dim] + half - 1
		highBrick := brick.Clone()
		highBrick.Min[dim] = brick.Min[dim] + half
		walk(lowBrick, prefix, depth+1)
		walk(highBrick, prefix|1<<uint(63-depth), depth+1)
	}
	walk(geometry.UniverseRect(il.dims), 0, 0)
	out = coalesce(out)
	for len(out) > maxRanges {
		best, bestGap := 1, ^uint64(0)
		for i := 1; i < len(out); i++ {
			if gap := out[i].Lo - out[i-1].Hi; gap < bestGap {
				best, bestGap = i, gap
			}
		}
		out[best-1].Hi = out[best].Hi
		out = append(out[:best], out[best+1:]...)
	}
	return out
}
