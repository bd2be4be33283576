package bvtree

import (
	"encoding/binary"
	"fmt"
	"sort"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/region"
)

// This file implements the tree's write buffer: a logarithmic-method
// style staging area that absorbs inserts and deletes in O(1) and
// flushes them downward in z-sorted batches, amortising the per-item
// root-to-leaf descent and — the dominant cost on paged trees — the
// per-item page save over whole runs of same-page operations.
//
// Structure. Buffered operations are grouped by the root entry whose
// region contains their address (bufRoute), which is the in-memory
// analogue of attaching a buffer to each child of the root: a group
// that reaches Options.BufferOps live operations flushes alone, so a
// flush's descents share one subtree and its z-sorted runs land on
// neighbouring — often identical — data pages. Groups are a locality
// heuristic only; correctness never depends on which group an
// operation landed in.
//
// Semantics. The buffered tree is observationally equivalent to the
// unbuffered one (the differential battery in buffer_test.go checks
// exactly this):
//
//   - An insert is recorded as a pending insert.
//   - A delete first annihilates a matching pending insert (the pair
//     cancels without ever touching the tree). Otherwise it must target
//     an item already applied to the tree: it is recorded only when the
//     tree holds more matching items than there are already-pending
//     deletes for the same (point, payload) — the capped-delete
//     invariant. A delete that can target nothing reports false, exactly
//     like an unbuffered Delete.
//
// The capped-delete invariant is what makes merged reads exact: every
// pending delete suppresses one distinct applied item, so Count over a
// region is tree-count + pending-inserts-in − pending-deletes-in, with
// no possibility of a delete "missing".
//
// Reads. Point lookups merge the live buffer under the shared lock.
// Traversal reads (RangeQuery, Count, Scan, Nearest) run on pinned
// MVCC views; newView captures the buffer into an immutable bufOverlay
// at pin time, so a view observes applied-state-at-pin plus
// buffered-state-at-pin — precisely the tree's logical content at the
// pin, regardless of flushes that race with the traversal.
//
// Durability. The buffer holds only acknowledged operations that are
// already in the WAL (the durable layer logs before it applies, and a
// buffered apply is just the O(1) staging). Replay after a crash runs
// unbuffered; Tree.Flush drains the buffer before the root record is
// written, so a checkpoint can never truncate the log while the buffer
// still holds logged-but-unapplied operations.

// bufOp is one buffered mutation.
type bufOp struct {
	seq       uint64
	del       bool
	cancelled bool // annihilated insert: skipped at flush
	gid       page.ID
	addr      region.BitString
	point     geometry.Point
	payload   uint64
}

// bufGroup is the per-root-entry staging list.
type bufGroup struct {
	ops  []*bufOp
	live int
}

// writeBuffer is the tree's staging area. It is guarded by the tree's
// lock: mutated only under the exclusive lock, read under the shared
// lock (lookup merge, overlay capture).
type writeBuffer struct {
	nodeCap int // live ops per group before the group flushes
	seq     uint64
	insN    int // live pending inserts
	delN    int // live pending deletes
	groups  map[page.ID]*bufGroup
	ins     map[string][]*bufOp // point key -> pending inserts, oldest first
	del     map[string][]*bufOp // point key -> pending deletes, oldest first
}

func newWriteBuffer(nodeCap int) *writeBuffer {
	return &writeBuffer{
		nodeCap: nodeCap,
		groups:  make(map[page.ID]*bufGroup),
		ins:     make(map[string][]*bufOp),
		del:     make(map[string][]*bufOp),
	}
}

func (b *writeBuffer) empty() bool { return b == nil || b.insN+b.delN == 0 }

// ptKey is the exact-point map key: the full-precision coordinates, so
// two points collide exactly when Point.Equal holds (the z-address is
// not usable here — BitsPerDim < 64 truncates it).
func ptKey(p geometry.Point) string {
	buf := make([]byte, 0, 8*len(p))
	for _, c := range p {
		buf = binary.LittleEndian.AppendUint64(buf, c)
	}
	return string(buf)
}

// bufKey is ptKey plus the payload: the identity of one logical item.
func bufKey(p geometry.Point, payload uint64) string {
	buf := make([]byte, 0, 8*len(p)+8)
	for _, c := range p {
		buf = binary.LittleEndian.AppendUint64(buf, c)
	}
	buf = binary.LittleEndian.AppendUint64(buf, payload)
	return string(buf)
}

// unregister removes op from its point map and the live counters. The
// op stays in its group's ops slice; group bookkeeping is the caller's.
func (b *writeBuffer) unregister(op *bufOp) {
	m := b.ins
	if op.del {
		m = b.del
	}
	k := ptKey(op.point)
	list := m[k]
	for i, o := range list {
		if o == op {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(m, k)
	} else {
		m[k] = list
	}
	if op.del {
		b.delN--
	} else {
		b.insN--
	}
}

// reregister re-adds an unregistered op (used when a flush fails before
// applying it, so reads keep observing it).
func (b *writeBuffer) reregister(op *bufOp) {
	m := b.ins
	if op.del {
		m = b.del
	}
	k := ptKey(op.point)
	m[k] = append(m[k], op)
	if op.del {
		b.delN++
	} else {
		b.insN++
	}
}

// EnableBuffer attaches a write buffer of n live operations per flush
// group to the tree (see Options.BufferOps), or resizes an existing
// one. n <= 0 drains and detaches the buffer. It is the post-open knob
// for trees whose construction path takes no Options (OpenPaged,
// OpenDurable, whose log replay has finished by the time it returns).
func (t *Tree) EnableBuffer(n int) error {
	if err := t.lockWrite(); err != nil {
		return err
	}
	defer t.mu.Unlock()
	defer t.endOp()
	if n <= 0 {
		if t.buf == nil {
			return nil
		}
		if err := t.flushAllLocked(); err != nil {
			return err
		}
		t.buf = nil
		return nil
	}
	if t.buf == nil {
		t.buf = newWriteBuffer(n)
	} else {
		t.buf.nodeCap = n
	}
	return nil
}

// FlushBuffer drains every buffered operation into the tree. It is a
// no-op when buffering is off or the buffer is empty. Flush (and
// therefore every durable checkpoint) calls it implicitly.
func (t *Tree) FlushBuffer() error {
	if err := t.lockWrite(); err != nil {
		return err
	}
	defer t.mu.Unlock()
	defer t.endOp()
	return t.flushAllLocked()
}

// flushAllLocked drains every group, in deterministic (page ID) order.
func (t *Tree) flushAllLocked() error {
	b := t.buf
	if b == nil {
		return nil
	}
	gids := make([]page.ID, 0, len(b.groups))
	for gid := range b.groups {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids {
		if err := t.flushGroupLocked(gid); err != nil {
			return err
		}
	}
	return nil
}

// bufRoute picks the flush group for address a: the child of the root
// whose region key is the longest prefix of a, or the root itself. The
// returned ID is only a grouping key — it may go stale as the root's
// entries change, with no effect beyond flush-batch locality.
func (t *Tree) bufRoute(a region.BitString) (page.ID, error) {
	if t.rootLevel == 0 {
		return t.root, nil
	}
	n, err := t.fetchIndex(t.root)
	if err != nil {
		return page.Nil, err
	}
	best, bestLen := t.root, -1
	for i := range n.Entries {
		e := &n.Entries[i]
		if e.Key.Len() > bestLen && e.Key.IsPrefixOf(a) {
			best, bestLen = e.Child, e.Key.Len()
		}
	}
	return best, nil
}

// bufferedInsert stages an insert (exclusive lock held). It is the
// buffered counterpart of insertLocked and costs one root-node scan
// instead of a full descent, until its group fills and flushes.
func (t *Tree) bufferedInsert(p geometry.Point, payload uint64) error {
	a, err := t.addr(p)
	if err != nil {
		return err
	}
	b := t.buf
	gid, err := t.bufRoute(a)
	if err != nil {
		return err
	}
	b.seq++
	op := &bufOp{seq: b.seq, gid: gid, addr: a, point: p.Clone(), payload: payload}
	g := b.groups[gid]
	if g == nil {
		g = &bufGroup{}
		b.groups[gid] = g
	}
	g.ops = append(g.ops, op)
	g.live++
	k := ptKey(p)
	b.ins[k] = append(b.ins[k], op)
	b.insN++
	t.stats.BufferedOps.Inc()
	if g.live >= b.nodeCap {
		return t.flushGroupLocked(gid)
	}
	return nil
}

// bufferedDelete stages a delete (exclusive lock held): annihilate a
// pending insert, or record a capped pending delete against an applied
// item. Reports false when there is nothing left to delete — the same
// answer the unbuffered path would give after a full flush.
func (t *Tree) bufferedDelete(p geometry.Point, payload uint64) (bool, error) {
	b := t.buf
	k := ptKey(p)
	if list := b.ins[k]; len(list) > 0 {
		for i := len(list) - 1; i >= 0; i-- {
			if list[i].payload != payload {
				continue
			}
			op := list[i]
			op.cancelled = true
			if g := b.groups[op.gid]; g != nil {
				g.live--
			}
			list = append(list[:i], list[i+1:]...)
			if len(list) == 0 {
				delete(b.ins, k)
			} else {
				b.ins[k] = list
			}
			b.insN--
			t.stats.BufferedOps.Inc()
			return true, nil
		}
	}
	// No pending insert to cancel: the delete must suppress a distinct
	// already-applied item. Probe the tree (a read-only descent) and cap
	// the pending count at the number of applied matches.
	matches, err := t.treeMatchesLocked(p, payload)
	if err != nil {
		return false, err
	}
	pending := 0
	for _, op := range b.del[k] {
		if op.payload == payload {
			pending++
		}
	}
	if pending >= matches {
		return false, nil
	}
	a, err := t.addr(p)
	if err != nil {
		return false, err
	}
	gid, err := t.bufRoute(a)
	if err != nil {
		return false, err
	}
	b.seq++
	op := &bufOp{seq: b.seq, del: true, gid: gid, addr: a, point: p.Clone(), payload: payload}
	g := b.groups[gid]
	if g == nil {
		g = &bufGroup{}
		b.groups[gid] = g
	}
	g.ops = append(g.ops, op)
	g.live++
	b.del[k] = append(b.del[k], op)
	b.delN++
	t.stats.BufferedOps.Inc()
	if g.live >= b.nodeCap {
		return true, t.flushGroupLocked(gid)
	}
	return true, nil
}

// treeMatchesLocked counts the applied items equal to (p, payload) — a
// read-only exact-match descent plus a data-page scan.
func (t *Tree) treeMatchesLocked(p geometry.Point, payload uint64) (int, error) {
	a, err := t.addr(p)
	if err != nil {
		return 0, err
	}
	d, err := t.descendPoint(a)
	if err != nil {
		return 0, err
	}
	dataID := d.dataID
	putDescent(d)
	dp, err := t.fetchData(dataID)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, it := range dp.Items {
		if it.Payload == payload && it.Point.Equal(p) {
			n++
		}
	}
	return n, nil
}

// flushGroupLocked drains one group: the live ops are deregistered,
// sorted by (z-address, sequence) and applied run-amortised. On an
// apply error the unapplied tail, from the failing operation on, is
// re-registered into a fresh group so merged reads keep observing it.
// The inserts of a run whose save or split failed are not: like a
// failing batch operation they are in the WAL of a durable tree and
// nowhere else.
func (t *Tree) flushGroupLocked(gid page.ID) error {
	b := t.buf
	g := b.groups[gid]
	if g == nil {
		return nil
	}
	delete(b.groups, gid)
	live := g.ops[:0]
	for _, op := range g.ops {
		if !op.cancelled {
			live = append(live, op)
		}
	}
	if len(live) == 0 {
		return nil
	}
	for _, op := range live {
		b.unregister(op)
	}
	// Within one point all ops share an address, so the (addr, seq) order
	// keeps same-point operations in arrival order; across points it is
	// plain z-order, which is what makes runs land on shared data pages.
	sort.Slice(live, func(i, j int) bool {
		if c := live[i].addr.Compare(live[j].addr); c != 0 {
			return c < 0
		}
		return live[i].seq < live[j].seq
	})
	t.stats.BufferFlushes.Inc()
	if m := t.metrics; m != nil {
		m.FlushBatch.Observe(int64(len(live)))
	}
	applied, err := t.applyBufOps(live)
	if err != nil {
		rem := live[applied:]
		if len(rem) > 0 {
			ng := &bufGroup{ops: append([]*bufOp(nil), rem...), live: len(rem)}
			for _, op := range rem {
				b.reregister(op)
			}
			b.groups[gid] = ng
		}
		return err
	}
	return nil
}

// applyBufOps applies z-sorted buffered ops to the tree through one
// pageRun, so consecutive inserts that land on one data page cost one
// save between them. A delete closes the run first — deleteLocked must
// read the published page — and takes the ordinary merge-capable path.
// It returns how many ops precede the one that failed; the ops of a run
// whose flush failed are among them.
func (t *Tree) applyBufOps(ops []*bufOp) (int, error) {
	run := pageRun{t: t}
	for i, op := range ops {
		var err error
		if !op.del {
			err = run.add(op.addr, page.Item{Point: op.point, Payload: op.payload})
		} else if err = run.flush(); err == nil {
			_, err = t.deleteLocked(op.point, op.payload)
		}
		if err != nil {
			return i, err
		}
	}
	return len(ops), run.flush()
}

// --- merged reads ---

// bufOverlay is an immutable copy of the buffer's pending state,
// attached to pinned views at pin time so a traversal observes
// applied-state-at-pin plus buffered-state-at-pin.
type bufOverlay struct {
	ins   []page.Item
	del   []page.Item // one entry per pending delete
	delta int         // len(ins) - len(del); Len() correction
}

// overlay captures the buffer's live state (any tree lock held).
func (b *writeBuffer) overlay() *bufOverlay {
	if b.empty() {
		return nil
	}
	ov := &bufOverlay{delta: b.insN - b.delN}
	for _, list := range b.ins {
		for _, op := range list {
			ov.ins = append(ov.ins, page.Item{Point: op.point, Payload: op.payload})
		}
	}
	for _, list := range b.del {
		for _, op := range list {
			ov.del = append(ov.del, page.Item{Point: op.point, Payload: op.payload})
		}
	}
	return ov
}

// suppression builds the per-traversal delete-consumption map: each
// pending delete suppresses exactly one matching visited item. The map
// is local to one traversal; the overlay itself stays immutable.
func (ov *bufOverlay) suppression() map[string]int {
	if len(ov.del) == 0 {
		return nil
	}
	sup := make(map[string]int, len(ov.del))
	for i := range ov.del {
		sup[bufKey(ov.del[i].Point, ov.del[i].Payload)]++
	}
	return sup
}

// countDelta is the exact buffered correction for Count over rect:
// sound because every pending delete targets a distinct applied item
// (the capped-delete invariant).
func (ov *bufOverlay) countDelta(rect geometry.Rect) int64 {
	var d int64
	for i := range ov.ins {
		if rect.Contains(ov.ins[i].Point) {
			d++
		}
	}
	for i := range ov.del {
		if rect.Contains(ov.del[i].Point) {
			d--
		}
	}
	return d
}

func removePayload(out []uint64, payload uint64) []uint64 {
	for i, v := range out {
		if v == payload {
			return append(out[:i], out[i+1:]...)
		}
	}
	return out
}

// mergeLookup merges the live buffer into a point lookup's result
// (shared lock held): pending deletes each remove one applied
// occurrence, pending inserts append.
func (b *writeBuffer) mergeLookup(p geometry.Point, out []uint64) []uint64 {
	k := ptKey(p)
	for _, op := range b.del[k] {
		out = removePayload(out, op.payload)
	}
	for _, op := range b.ins[k] {
		out = append(out, op.payload)
	}
	return out
}

// mergeLookup on an overlay is the view-side equivalent.
func (ov *bufOverlay) mergeLookup(p geometry.Point, out []uint64) []uint64 {
	for i := range ov.del {
		if ov.del[i].Point.Equal(p) {
			out = removePayload(out, ov.del[i].Payload)
		}
	}
	for i := range ov.ins {
		if ov.ins[i].Point.Equal(p) {
			out = append(out, ov.ins[i].Payload)
		}
	}
	return out
}

// rangeQueryOverlay runs a range query with the view's overlay merged
// in: suppressed items are filtered during the raw traversal, then the
// qualifying pending inserts are delivered. The visitor contract is
// unchanged (caller's goroutine, early stop on false).
func (t *Tree) rangeQueryOverlay(ov *bufOverlay, rect geometry.Rect, visit Visitor, workers int) error {
	sup := ov.suppression()
	stopped := false
	_, err := t.rangeRaw(rect, func(p geometry.Point, payload uint64) bool {
		if sup != nil {
			k := bufKey(p, payload)
			if sup[k] > 0 {
				sup[k]--
				return true
			}
		}
		if !visit(p, payload) {
			stopped = true
			return false
		}
		return true
	}, workers)
	if err != nil || stopped {
		return err
	}
	for i := range ov.ins {
		it := &ov.ins[i]
		if rect.Contains(it.Point) && !visit(it.Point, it.Payload) {
			return nil
		}
	}
	return nil
}

// nearestOverlay runs a kNN query with the view's overlay merged in.
// The raw search asks for k plus one slot per pending delete — the
// suppressed candidates can displace at most len(ov.del) results —
// then filters and merges the pending inserts in by distance.
func (t *Tree) nearestOverlay(ov *bufOverlay, p geometry.Point, k int) ([]Neighbor, error) {
	if len(p) != t.opt.Dims {
		return nil, fmt.Errorf("bvtree: point has %d dims, tree has %d", len(p), t.opt.Dims)
	}
	if k <= 0 {
		return nil, nil
	}
	cand, err := t.nearestRaw(p, k+len(ov.del))
	if err != nil {
		return nil, err
	}
	sup := ov.suppression()
	out := cand[:0]
	for _, nb := range cand {
		if sup != nil {
			key := bufKey(nb.Point, nb.Payload)
			if sup[key] > 0 {
				sup[key]--
				continue
			}
		}
		out = append(out, nb)
	}
	pend := make([]Neighbor, 0, len(ov.ins))
	for i := range ov.ins {
		it := &ov.ins[i]
		pend = append(pend, Neighbor{Point: it.Point, Payload: it.Payload, Dist: pointDist(p, it.Point)})
	}
	sort.Slice(pend, func(i, j int) bool { return pend[i].Dist < pend[j].Dist })
	merged := make([]Neighbor, 0, k)
	i, j := 0, 0
	for len(merged) < k && (i < len(out) || j < len(pend)) {
		if j >= len(pend) || (i < len(out) && out[i].Dist <= pend[j].Dist) {
			merged = append(merged, out[i])
			i++
		} else {
			merged = append(merged, pend[j])
			j++
		}
	}
	return merged, nil
}
