package page

import "fmt"

// KindMeta identifies a tree metadata page. It is 4, not 3: a kind-3
// record is an earlier layout, which is refused, not misread.
const KindMeta Kind = 4

// Meta is the persistent root record of a paged tree: enough to reopen it
// from a store. It lives in the store's first allocated page.
type Meta struct {
	Dims         int
	DataCapacity int
	Fanout       int
	BitsPerDim   int
	LevelScaled  bool
	Root         ID
	RootLevel    int
	Size         uint64
	// LSN is the checkpoint's log sequence number: the count of logged
	// operations the stored state holds. Recovery skips the log's records
	// up to it and applies those after it.
	LSN uint64
}

// EncodeMeta serialises a tree metadata record.
func EncodeMeta(m *Meta) []byte {
	w := newWriter(KindMeta, 6*4+3*8) // six u32 fields (LevelScaled is one) and three u64 ones
	w.u32(uint32(m.Dims))
	w.u32(uint32(m.DataCapacity))
	w.u32(uint32(m.Fanout))
	w.u32(uint32(m.BitsPerDim))
	if m.LevelScaled {
		w.u32(1)
	} else {
		w.u32(0)
	}
	w.u64(uint64(m.Root))
	w.u32(uint32(m.RootLevel))
	w.u64(m.Size)
	w.u64(m.LSN)
	return w.finish()
}

// DecodeMeta deserialises a tree metadata record.
func DecodeMeta(b []byte) (*Meta, error) {
	r, err := newReader(b)
	if err != nil {
		return nil, err
	}
	if r.kind != KindMeta {
		return nil, fmt.Errorf("%w: expected meta page, found kind %d", ErrCorrupt, r.kind)
	}
	m := &Meta{}
	m.Dims = int(r.u32())
	m.DataCapacity = int(r.u32())
	m.Fanout = int(r.u32())
	m.BitsPerDim = int(r.u32())
	m.LevelScaled = r.u32() != 0
	m.Root = ID(r.u64())
	m.RootLevel = int(r.u32())
	m.Size = r.u64()
	m.LSN = r.u64()
	return m, r.err
}
