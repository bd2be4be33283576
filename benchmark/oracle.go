package main

import (
	"math"

	"bvtree/internal/geometry"
	"bvtree/internal/workload"
)

// The oracle knows every stored point (the generator's output, payload =
// index) and answers queries by scanning them all. Nothing here calls the
// program under test.

// bag is an order-independent summary of a multiset of payloads: the
// count plus two independent 64-bit combinations of a mixed hash of each
// payload. Two result sets with equal bags are the same multiset unless a
// 128-bit hash collides.
type bag struct {
	n   int
	sum uint64
	xor uint64
}

func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (b *bag) add(payload uint64) {
	h := mix(payload)
	b.n++
	b.sum += h
	b.xor ^= mix(h)
}

// scan is the brute-force range query: the bag of every point of pts
// inside rect, payloads offset by base.
func scan(b *bag, pts []geometry.Point, base uint64, rect geometry.Rect) {
	for i, p := range pts {
		if rect.Contains(p) {
			b.add(base + uint64(i))
		}
	}
}

// window is one query rectangle with the oracle's answer for the stored
// points (filled by the set-up; have is false for windows outside the
// checked sample).
type window struct {
	rect geometry.Rect
	want bag
	have bool
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// square returns the window of the given half side around c, clipped to
// the domain.
func square(c geometry.Point, half uint64) geometry.Rect {
	r := geometry.Rect{Min: make(geometry.Point, len(c)), Max: make(geometry.Point, len(c))}
	for d, v := range c {
		r.Min[d], r.Max[d] = 0, math.MaxUint64
		if v >= half {
			r.Min[d] = v - half
		}
		if v <= math.MaxUint64-half {
			r.Max[d] = v + half
		}
	}
	return r
}

// knnSquare returns the smallest square window centred on c that holds
// at least k+1 of pts (c itself, when stored, and its k nearest in the
// maximum norm). Sizing windows by neighbour count and not by a fixed
// side keeps the result volume the same for every seed: a fixed side
// returns a whole cluster under one seed and a corner of one under the
// next. dist is scratch of len(pts).
func knnSquare(pts []geometry.Point, c geometry.Point, k int, dist []uint64, src *workload.Source) geometry.Rect {
	for i, p := range pts {
		var m uint64
		for d := range p {
			if v := absDiff(p[d], c[d]); v > m {
				m = v
			}
		}
		dist[i] = m
	}
	if k >= len(dist) {
		k = len(dist) - 1
	}
	return square(c, selectKth(dist, k, src))
}

// selectKth returns the k-th smallest (0-based) value of v, reordering v
// (quickselect with pivots from src, so the work is a function of the seed).
func selectKth(v []uint64, k int, src *workload.Source) uint64 {
	lo, hi := 0, len(v)-1
	for lo < hi {
		p := v[lo+src.Intn(hi-lo+1)]
		i, j := lo, hi
		for i <= j {
			for v[i] < p {
				i++
			}
			for v[j] > p {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return v[k]
		}
	}
	return v[k]
}

// contains reports whether payloads holds want.
func contains(payloads []uint64, want uint64) bool {
	for _, p := range payloads {
		if p == want {
			return true
		}
	}
	return false
}
