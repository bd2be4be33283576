package main

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/shard"
	"bvtree/internal/storage"
	"bvtree/internal/vfs"
)

// The three decorators below sit on seams the program already exports
// (vfs.FS, storage.Store, shard.Engine). They forward every call
// unchanged, so the traced path is the untraced path plus the spans.

// File classes of the vfs counters.
const (
	fileDB = iota
	fileWAL
	fileJournal
	fileClasses
)

var fileClassName = [fileClasses]string{"db", "wal", "journal"}

func fileClassOf(name string) int {
	switch {
	case strings.HasSuffix(name, ".wal"):
		return fileWAL
	case strings.HasSuffix(name, ".journal"):
		return fileJournal
	}
	return fileDB
}

// fsCounters counts the device traffic of one run, per file class.
type fsCounters struct {
	readCalls, readBytes   [fileClasses]atomic.Int64
	writeCalls, writeBytes [fileClasses]atomic.Int64
	syncs                  [fileClasses]atomic.Int64
}

// fsTotals is a snapshot of fsCounters.
type fsTotals struct {
	readCalls, readBytes   [fileClasses]int64
	writeCalls, writeBytes [fileClasses]int64
	syncs                  [fileClasses]int64
}

func (c *fsCounters) snapshot() fsTotals {
	var t fsTotals
	for i := 0; i < fileClasses; i++ {
		t.readCalls[i], t.readBytes[i] = c.readCalls[i].Load(), c.readBytes[i].Load()
		t.writeCalls[i], t.writeBytes[i] = c.writeCalls[i].Load(), c.writeBytes[i].Load()
		t.syncs[i] = c.syncs[i].Load()
	}
	return t
}

func (t fsTotals) sub(u fsTotals) fsTotals {
	for i := 0; i < fileClasses; i++ {
		t.readCalls[i] -= u.readCalls[i]
		t.readBytes[i] -= u.readBytes[i]
		t.writeCalls[i] -= u.writeCalls[i]
		t.writeBytes[i] -= u.writeBytes[i]
		t.syncs[i] -= u.syncs[i]
	}
	return t
}

func sum3(v [fileClasses]int64) int64 { return v[0] + v[1] + v[2] }

// benchFS is the filesystem every workload hands to FileStoreOptions.FS
// and wal.OpenFS, traced or not. It opens real files in the data
// directory and forwards every call except Sync: the benchmark's flush
// policy is that Sync is counted and returns without calling fsync(2),
// because the device flush of a shared sandbox disk (0.2 to 7 ms here,
// call to call) would drown every change to the program's own write
// path. Reads and writes go to the kernel as in production. With a lane
// the calls are also recorded as spans.
type benchFS struct {
	ln       *lane // nil when untraced
	counters *fsCounters
}

func (b benchFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	class := fileClassOf(name)
	prefix := "vfs." + fileClassName[class] + "."
	return &benchFile{File: f, fs: b, class: class,
		nRead: prefix + "Read", nReadAt: prefix + "ReadAt", nWriteAt: prefix + "WriteAt",
		nWrite: prefix + "Write", nSync: prefix + "Sync"}, nil
}

type benchFile struct {
	*os.File
	fs    benchFS
	class int

	nRead, nReadAt, nWriteAt, nWrite, nSync string // span names
}

func (f *benchFile) Read(p []byte) (int, error) {
	h := f.fs.ln.begin(f.nRead)
	n, err := f.File.Read(p)
	f.fs.ln.end(h)
	f.fs.counters.readCalls[f.class].Add(1)
	f.fs.counters.readBytes[f.class].Add(int64(n))
	return n, err
}

func (f *benchFile) ReadAt(p []byte, off int64) (int, error) {
	h := f.fs.ln.begin(f.nReadAt)
	n, err := f.File.ReadAt(p, off)
	f.fs.ln.end(h)
	f.fs.counters.readCalls[f.class].Add(1)
	f.fs.counters.readBytes[f.class].Add(int64(n))
	return n, err
}

func (f *benchFile) WriteAt(p []byte, off int64) (int, error) {
	h := f.fs.ln.begin(f.nWriteAt)
	n, err := f.File.WriteAt(p, off)
	f.fs.ln.end(h)
	f.fs.counters.writeCalls[f.class].Add(1)
	f.fs.counters.writeBytes[f.class].Add(int64(n))
	return n, err
}

func (f *benchFile) Write(p []byte) (int, error) {
	h := f.fs.ln.begin(f.nWrite)
	n, err := f.File.Write(p)
	f.fs.ln.end(h)
	f.fs.counters.writeCalls[f.class].Add(1)
	f.fs.counters.writeBytes[f.class].Add(int64(n))
	return n, err
}

// Sync is counted and not forwarded: see benchFS.
func (f *benchFile) Sync() error {
	h := f.fs.ln.begin(f.nSync)
	f.fs.ln.end(h)
	f.fs.counters.syncs[f.class].Add(1)
	return nil
}

// tracedStore records a span around every storage.Store call of a traced
// pass. It forwards the optional BatchReader and Prefetcher seams, so the
// tree finds the same capabilities it finds on the bare FileStore. It
// also remembers which pages are live, for the page-codec timings.
type tracedStore struct {
	storage.Store
	ln *lane

	mu      sync.Mutex
	live    map[page.ID]struct{}
	syncsMs []float64 // duration of every Sync, recorded whether or not spans are
}

// The tree discovers these two seams by type assertion; losing one would
// silently change the traced path.
var (
	_ storage.BatchReader = (*tracedStore)(nil)
	_ storage.Prefetcher  = (*tracedStore)(nil)
)

func newTracedStore(st storage.Store, ln *lane, live map[page.ID]struct{}) *tracedStore {
	if live == nil {
		live = make(map[page.ID]struct{})
	}
	return &tracedStore{Store: st, ln: ln, live: live}
}

func (s *tracedStore) Alloc() (page.ID, error) {
	h := s.ln.begin("store.Alloc")
	id, err := s.Store.Alloc()
	s.ln.end(h)
	if err == nil {
		s.mu.Lock()
		s.live[id] = struct{}{}
		s.mu.Unlock()
	}
	return id, err
}

func (s *tracedStore) ReadNode(id page.ID) ([]byte, error) {
	h := s.ln.begin("store.ReadNode")
	b, err := s.Store.ReadNode(id)
	s.ln.end(h)
	return b, err
}

// ReadNodes implements storage.BatchReader by forwarding.
func (s *tracedStore) ReadNodes(ids []page.ID) ([][]byte, error) {
	h := s.ln.begin("store.ReadNodes")
	b, err := s.Store.(storage.BatchReader).ReadNodes(ids)
	s.ln.end(h)
	return b, err
}

// Prefetch implements storage.Prefetcher by forwarding.
func (s *tracedStore) Prefetch(ids []page.ID) { s.Store.(storage.Prefetcher).Prefetch(ids) }

func (s *tracedStore) WriteNode(id page.ID, blob []byte) error {
	h := s.ln.begin("store.WriteNode")
	err := s.Store.WriteNode(id, blob)
	s.ln.end(h)
	return err
}

func (s *tracedStore) Free(id page.ID) error {
	h := s.ln.begin("store.Free")
	err := s.Store.Free(id)
	s.ln.end(h)
	if err == nil {
		s.mu.Lock()
		delete(s.live, id)
		s.mu.Unlock()
	}
	return err
}

func (s *tracedStore) Sync() error {
	h := s.ln.begin("store.Sync")
	t0 := time.Now()
	err := s.Store.Sync()
	ms := float64(time.Since(t0)) / 1e6
	s.ln.end(h)
	s.mu.Lock()
	s.syncsMs = append(s.syncsMs, ms)
	s.mu.Unlock()
	return err
}

// tracedEngine records a span around every call the router makes into a
// shard's tree.
type tracedEngine struct {
	shard.Engine
	ln *lane
}

func (e *tracedEngine) Insert(p geometry.Point, payload uint64) error {
	h := e.ln.begin("engine.Insert")
	err := e.Engine.Insert(p, payload)
	e.ln.end(h)
	return err
}

func (e *tracedEngine) Delete(p geometry.Point, payload uint64) (bool, error) {
	h := e.ln.begin("engine.Delete")
	ok, err := e.Engine.Delete(p, payload)
	e.ln.end(h)
	return ok, err
}

func (e *tracedEngine) Lookup(p geometry.Point) ([]uint64, error) {
	h := e.ln.begin("engine.Lookup")
	out, err := e.Engine.Lookup(p)
	e.ln.end(h)
	return out, err
}

func (e *tracedEngine) RangeQuery(rect geometry.Rect, visit bvtree.Visitor) error {
	h := e.ln.begin("engine.RangeQuery")
	err := e.Engine.RangeQuery(rect, visit)
	e.ln.end(h)
	return err
}

func (e *tracedEngine) Count(rect geometry.Rect) (int, error) {
	h := e.ln.begin("engine.Count")
	n, err := e.Engine.Count(rect)
	e.ln.end(h)
	return n, err
}

func (e *tracedEngine) Nearest(p geometry.Point, k int) ([]bvtree.Neighbor, error) {
	h := e.ln.begin("engine.Nearest")
	out, err := e.Engine.Nearest(p, k)
	e.ln.end(h)
	return out, err
}
