package obs

import "time"

// Layer identifies which subsystem emitted a trace event.
type Layer uint8

const (
	LayerTree  Layer = iota // internal/bvtree: tree operations
	LayerWAL                // internal/wal: log appends, group syncs, checkpoints
	LayerStore              // internal/storage: page store (reserved)
)

func (l Layer) String() string {
	switch l {
	case LayerTree:
		return "tree"
	case LayerWAL:
		return "wal"
	case LayerStore:
		return "store"
	}
	return "unknown"
}

// Op identifies the traced operation within its layer.
type Op uint8

const (
	OpLookup Op = iota
	OpInsert
	OpDelete
	OpRangeQuery
	OpNearest
	OpBatch
	OpAppend
	OpSync
	OpGroupCommit
	OpCheckpoint
)

var opNames = [...]string{
	OpLookup:      "lookup",
	OpInsert:      "insert",
	OpDelete:      "delete",
	OpRangeQuery:  "range_query",
	OpNearest:     "nearest",
	OpBatch:       "batch",
	OpAppend:      "append",
	OpSync:        "sync",
	OpGroupCommit: "group_commit",
	OpCheckpoint:  "checkpoint",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// Event is one completed traced operation. It is passed to Tracer.Trace
// by value — it contains no pointers and never escapes to the heap, so
// tracing adds no allocation to the hot path.
type Event struct {
	Layer Layer
	Op    Op
	// Dur is the operation's wall-clock duration.
	Dur time.Duration
	// N is an op-specific magnitude: descent depth for point ops, results
	// visited for range/nearest, records for batches and group commits,
	// bytes for checkpoints. 0 when the op has no natural magnitude.
	N int64
	// Err reports whether the operation failed.
	Err bool
}

// Tracer receives one Event per completed operation from every
// instrumented layer. Implementations must be safe for concurrent use
// and should return quickly — Trace runs on the operation's goroutine
// (after the operation's locks are released where possible, but before
// the caller gets its result). A nil Tracer on a tree disables tracing
// entirely; the hot paths then pay a single nil check.
type Tracer interface {
	Trace(Event)
}

// CountingTracer is a minimal Tracer that counts events and sums their
// durations, per layer. It is what the overhead benchmark
// (BenchmarkInstrumented) installs to price the hook itself, and a
// convenient starting point for tests.
type CountingTracer struct {
	events [3]Counter
	durs   [3]Counter // summed nanoseconds
}

// Trace implements Tracer.
func (c *CountingTracer) Trace(e Event) {
	if int(e.Layer) >= len(c.events) {
		return
	}
	c.events[e.Layer].Inc()
	c.durs[e.Layer].Add(uint64(e.Dur))
}

// Events returns the number of events seen for a layer.
func (c *CountingTracer) Events(l Layer) uint64 { return c.events[l].Load() }
