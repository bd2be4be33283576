package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if prev := c.Swap(0); prev != 42 || c.Load() != 0 {
		t.Fatalf("swap returned %d (now %d), want 42 (now 0)", prev, c.Load())
	}

	var g Gauge
	g.Add(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestBucketBoundsRoundTrip(t *testing.T) {
	// Every bucket's lower bound must map back to that bucket, and bucket
	// ranges must tile the domain without gaps.
	prevHi := int64(0)
	for i := 0; i < numBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, prevHi)
		}
		if hi <= lo {
			t.Fatalf("bucket %d empty range [%d,%d)", i, lo, hi)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(%d) = %d, want %d", lo, got, i)
		}
		if got := bucketIndex(hi - 1); got != i {
			t.Fatalf("bucketIndex(%d) = %d, want %d", hi-1, got, i)
		}
		prevHi = hi
	}
}

func TestBucketIndexEdges(t *testing.T) {
	cases := []struct{ v int64 }{
		{-5}, {0}, {1}, {15}, {16}, {17}, {31}, {32}, {1 << 20},
		{math.MaxInt64},
	}
	for _, c := range cases {
		i := bucketIndex(c.v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0,%d)", c.v, i, numBuckets)
		}
		if c.v >= 0 {
			lo, hi := bucketBounds(i)
			// The last bucket's bound saturates at MaxInt64 and is closed.
			closedTop := i == numBuckets-1 && c.v == math.MaxInt64
			if c.v < lo || (c.v >= hi && !closedTop) {
				t.Fatalf("value %d landed in bucket %d = [%d,%d)", c.v, i, lo, hi)
			}
		}
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below the linear range are recorded exactly, so quantiles of
	// a small-value distribution are exact (up to in-bucket interpolation
	// within a width-1 bucket).
	var h Histogram
	for v := int64(1); v <= 10; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 10 || s.Sum != 55 {
		t.Fatalf("count=%d sum=%d, want 10/55", s.Count, s.Sum)
	}
	if s.P50 < 5 || s.P50 > 6 {
		t.Fatalf("p50 = %v, want in [5,6]", s.P50)
	}
	if s.P99 < 10 || s.P99 > 11 {
		t.Fatalf("p99 = %v, want in [10,11]", s.P99)
	}
	if s.Max != 11 { // upper bound of bucket holding 10
		t.Fatalf("max = %v, want 11", s.Max)
	}
}

func TestHistogramQuantileResolution(t *testing.T) {
	// A known distribution at latency-like magnitudes: quantile estimates
	// must stay within the documented 12.5% relative bucket error.
	var h Histogram
	for i := int64(1); i <= 10000; i++ {
		h.Observe(i * 1000) // 1µs .. 10ms in ns
	}
	s := h.Snapshot()
	check := func(name string, got, want float64) {
		t.Helper()
		if rel := math.Abs(got-want) / want; rel > 0.13 {
			t.Fatalf("%s = %v, want %v ±13%%", name, got, want)
		}
	}
	check("p50", s.P50, 5000*1000)
	check("p95", s.P95, 9500*1000)
	check("p99", s.P99, 9900*1000)
	check("mean", s.Mean, 5000.5*1000)
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.P99 != 0 || s.Mean != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

// TestConcurrentHistogram hammers one histogram and one counter set from
// parallel writers while a reader snapshots, under -race via the verify
// smoke subset. Total counts must be exact: Observe may not lose updates.
func TestConcurrentHistogram(t *testing.T) {
	const writers = 8
	const perWriter = 5000
	var h Histogram
	var c TreeCounters
	var reader, wg sync.WaitGroup
	stop := make(chan struct{})
	reader.Add(1)
	go func() { // concurrent snapshotter
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Snapshot()
				_ = c.Snapshot()
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(int64(w*1000 + i))
				c.NodeAccesses.Inc()
				c.Promotions.Add(2)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", s.Count, writers*perWriter)
	}
	cs := c.Snapshot()
	if cs.NodeAccesses != writers*perWriter || cs.Promotions != 2*writers*perWriter {
		t.Fatalf("counters = %d/%d, want %d/%d",
			cs.NodeAccesses, cs.Promotions, writers*perWriter, 2*writers*perWriter)
	}
}

func TestObserveDoesNotAllocate(t *testing.T) {
	var h Histogram
	var c Counter
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
		c.Inc()
	})
	if allocs != 0 {
		t.Fatalf("recording path allocates %.1f allocs/op, want 0", allocs)
	}
}
