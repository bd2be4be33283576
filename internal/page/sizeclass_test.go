package page

import (
	"runtime"
	"testing"
	"unsafe"
)

// allocClass returns the bytes the allocator hands out for one object
// new makes: its size class.
func allocClass(new func() any) uint64 {
	const n = 1000
	objs := make([]any, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range objs {
		objs[i] = new()
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(objs)
	return (after.TotalAlloc - before.TotalAlloc) / n
}

// TestNodeStructsAvoidThe256ByteClass keeps the hot node structs out of
// the allocator's 256-byte size class. Its objects all start on 256-byte
// boundaries, so the header words a lookup reads of every node it passes
// fall in a quarter of the L1 cache's sets; on a fully cached tree that
// cost random lookups and one-item windows 4–6 % (EXPERIMENTS.md,
// "decoding straight into the columns"). NodeCols and DataCols are
// embedded in IndexNode and DataPage, which are what is allocated; they
// are held to the rule too, for the day one is allocated alone.
func TestNodeStructsAvoidThe256ByteClass(t *testing.T) {
	for _, s := range []struct {
		name  string
		size  uintptr
		class uint64
	}{
		{"IndexNode", unsafe.Sizeof(IndexNode{}), allocClass(func() any { return new(IndexNode) })},
		{"NodeCols", unsafe.Sizeof(NodeCols{}), allocClass(func() any { return new(NodeCols) })},
		{"DataPage", unsafe.Sizeof(DataPage{}), allocClass(func() any { return new(DataPage) })},
		{"DataCols", unsafe.Sizeof(DataCols{}), allocClass(func() any { return new(DataCols) })},
	} {
		t.Logf("%s: %d bytes, %d-byte class", s.name, s.size, s.class)
		if s.class == 256 {
			t.Errorf("%s is %d bytes, in the 256-byte size class", s.name, s.size)
		}
	}
}
