// Package obs is the observability core of the bvtree system: atomic
// counters, gauges and fixed-bucket latency histograms with quantile
// snapshots. It depends only on the standard library and is written so
// that the instrumented hot paths pay nothing when observability is
// disabled (a nil check) and only a handful of atomic adds when it is
// enabled — no allocation, no locking, no map lookups, no string
// formatting on any recording path.
//
// The package deliberately knows the system it observes: the per-layer
// metric sets (TreeCounters, TreeMetrics, WALMetrics) and the combined
// Snapshot type live here so that every layer records into one shared
// vocabulary and the facade can expose a single coherent snapshot. See
// DESIGN.md §10 for the full metric inventory and how the overhead is
// measured.
package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use. Counters are safe for concurrent use from any number
// of goroutines; Load returns a point-in-time value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Swap replaces the value and returns the previous one. It exists for
// interval measurements (bvtree's ResetAccessCount); most counters are
// monotone by design and never call it.
func (c *Counter) Swap(n uint64) uint64 { return c.v.Swap(n) }

// Gauge is an atomic instantaneous value (a level, not a rate): free-list
// length, cache residency, queue depth. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }
