package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/shard"
	"bvtree/internal/storage"
	"bvtree/internal/wal"
	"bvtree/internal/workload"
)

const (
	dims       = 2
	buildChunk = 4096 // points per ApplyBatch / InsertBatch call while building
	rangeLimit = 4096 // item limit of a wire Range request

	// tinyHalf is half of 1e-10 of the domain side: a window that holds
	// its centre point and, on this data, nothing else.
	tinyHalf uint64 = 922_337_203 // 2^64 * 1e-10 / 2

	// checkedWindows bounds the windows answered by the brute-force scan
	// when a workload has more windows than that.
	checkedWindows = 256

	// hotCacheNodes and hotPoolSlots hold every node of every tree built
	// here, so after the warm-up a read touches neither the page codec nor
	// the store.
	hotCacheNodes = 1 << 20
	hotPoolSlots  = 1 << 16
)

// workloadDef is one workload: its name, the reason it exists, the
// GOMAXPROCS it runs under (0 = min(nproc, 2)) and its sizes.
type workloadDef struct {
	name  string
	why   string
	procs int

	// listed workloads are the ones BENCHMARK.json names, which every
	// later change is gated on. The others run by name (and under
	// --workload all) for a closer look: the time the contract allows pays
	// for four workloads at a run length this host needs (README.md,
	// "Noise on this host"), and ingest-durable follows the host's memory
	// bandwidth too closely to fit any bound.
	listed bool

	points   int // points the set-up stores; payload = index in generation order
	roundOps int // operations in one round

	// When set, the store is closed after the build and reopened with a
	// node cache and buffer pool of these sizes (point-cold). Otherwise
	// the build's caches, which hold the whole tree, stay.
	cacheNodes int
	poolSlots  int

	windows int // distinct query windows
	knn     int // stored points per window; 0 = fixed tinyHalf windows

	batch  int // points per InsertBatch call in the measured section
	shards int

	// poolRounds sizes the pool of new points a writing workload inserts:
	// a system is measured for at most that many rounds, then the run sets
	// up afresh. It bounds how far the tree grows away from the size the
	// workload names, so that every stretch of a run measures the same work.
	poolRounds int

	build func(s *system, pts []geometry.Point) error
}

var workloads = []*workloadDef{
	{
		name:   "point-hot",
		listed: true,
		why:    "exact-match Lookup on a fully cached paged tree: descent, columnar masks and z-order only; no page decode, store read, WAL or wire code runs",
		points: 100_000, roundOps: 5_000,
		build: buildPaged,
	},
	{
		name:   "point-cold",
		listed: true,
		why:    "the same Lookup after a reopen with node cache and buffer pool of 128 against ~3.6k nodes: page decode, cache eviction and pool reads dominate",
		points: 100_000, roundOps: 1_000, cacheNodes: 128, poolSlots: 128,
		build: buildPaged,
	},
	{
		name:   "range-tiny",
		listed: true,
		why:    "RangeQuery on windows holding one item: isolates the guard/encloser over-descent (many nodes per query against height+1 for the same point's Lookup)",
		points: 100_000, roundOps: 2_000, windows: 2_000,
		build: buildPaged,
	},
	{
		name:   "range-large",
		why:    "RangeQuery on windows holding 4097 items each: data-page scanning and visitor delivery dominate; the control for range-tiny",
		points: 100_000, roundOps: 256, windows: 256, knn: 4096,
		build: buildPaged,
	},
	{
		name:   "ingest-durable",
		why:    "DurableTree InsertBatch of 256 new points per op with a foreground Checkpoint every 25 ops: WAL encode/append, paged insert, checkpoint write-back; fsync counted, not issued",
		points: 100_000, roundOps: 25, batch: 256, poolRounds: 24,
		build: buildDurable,
	},
	{
		name:   "server-mixed",
		listed: true,
		why:    "80% Lookup, 10% Range, 5% Count, 5% Insert over loopback TCP to an in-process 4-shard server at GOMAXPROCS 1: wire, queue and router dominate, all seven seams run",
		procs:  1, points: 100_000, roundOps: 1_000, windows: 256, knn: 32, shards: 4, poolRounds: 1600,
		build: buildServer,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled returns a copy of d shrunk by f, for the tests.
func (d *workloadDef) scaled(f float64) *workloadDef {
	c := *d
	shrink := func(v, floor int) int {
		if v == 0 {
			return 0
		}
		return max(int(float64(v)*f), floor)
	}
	c.points = shrink(d.points, 2000)
	c.roundOps = shrink(d.roundOps, 20)
	if d.windows == d.roundOps {
		c.windows = c.roundOps
	} else {
		c.windows = shrink(d.windows, 16)
	}
	c.knn = shrink(d.knn, 8)
	if d.cacheNodes > 0 {
		c.cacheNodes, c.poolSlots = shrink(d.cacheNodes, 8), shrink(d.poolSlots, 16)
	}
	return &c
}

// Operation kinds of a round.
const (
	opLookup uint8 = iota
	opRange
	opCount
	opInsert
	opBatch
)

// inputs is everything a run derives from its seed: the stored points,
// the points the measured section inserts, one round's operations and the
// query windows with the oracle's answers.
type inputs struct {
	def   *workloadDef
	seed  uint64
	pts   []geometry.Point // stored by the set-up; payload = index
	extra []geometry.Point // inserted while measuring; payload = len(pts)+index

	kind []uint8 // one round: operation kinds
	arg  []int32 // and their argument: a point index or a window index
	wins []window

	roundInserts int    // extra points one round consumes
	hash         uint64 // fingerprint of the points, windows and operations
}

// verifyBatches is the number of batches ingest-durable's oracle leaves in
// the log, uncheckpointed, for the recovery check to replay.
const verifyBatches = 8

// makeInputs generates a workload's inputs.
func makeInputs(def *workloadDef, seed uint64) (*inputs, error) {
	in := &inputs{def: def, seed: seed}
	switch {
	case def.batch > 0:
		in.roundInserts = def.roundOps * def.batch
	case def.shards > 0:
		in.roundInserts = def.roundOps // upper bound; the exact count follows from the rolls
	}
	pool := 0
	if in.roundInserts > 0 {
		// The warm-up round, the measured rounds, the oracle's batches.
		pool = in.roundInserts*(1+def.poolRounds) + verifyBatches*def.batch
	}
	all, err := workload.Generate(workload.Clustered, dims, def.points+pool, seed)
	if err != nil {
		return nil, err
	}
	in.pts, in.extra = all[:def.points], all[def.points:]

	src := workload.NewSource(seed ^ 0x6f70732d73747265) // operation stream, apart from the point stream
	in.kind = make([]uint8, def.roundOps)
	in.arg = make([]int32, def.roundOps)

	// Windows are centred on stored points: uniform-random windows on
	// clustered data land in empty space.
	in.wins = make([]window, def.windows)
	dist := make([]uint64, len(in.pts))
	for i := range in.wins {
		c := in.pts[src.Intn(len(in.pts))]
		if def.knn > 0 {
			in.wins[i].rect = knnSquare(in.pts, c, def.knn, dist, src)
		} else {
			in.wins[i].rect = square(c, tinyHalf)
		}
		if i < checkedWindows {
			scan(&in.wins[i].want, in.pts, 0, in.wins[i].rect)
			in.wins[i].have = true
		}
	}

	inserts := 0
	for i := range in.kind {
		switch {
		case def.batch > 0:
			in.kind[i] = opBatch
		case def.shards > 0:
			// Exact shares (80/10/5/5), placed by the shuffle below: with
			// rolled shares the cost of a round would follow the seed.
			switch pc := i * 100 / def.roundOps; {
			case pc < 80:
				in.kind[i], in.arg[i] = opLookup, int32(src.Intn(len(in.pts)))
			case pc < 90:
				in.kind[i], in.arg[i] = opRange, int32(src.Intn(len(in.wins)))
			case pc < 95:
				in.kind[i], in.arg[i] = opCount, int32(src.Intn(len(in.wins)))
			default:
				in.kind[i] = opInsert
				inserts++
			}
		case def.windows > 0:
			in.kind[i], in.arg[i] = opRange, int32(i%len(in.wins))
		default:
			in.kind[i], in.arg[i] = opLookup, int32(src.Intn(len(in.pts)))
		}
	}
	if def.shards > 0 {
		in.roundInserts = inserts
		for i := len(in.kind) - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			in.kind[i], in.kind[j] = in.kind[j], in.kind[i]
			in.arg[i], in.arg[j] = in.arg[j], in.arg[i]
		}
	}

	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, p := range all {
		put(p[0])
		put(p[1])
	}
	for _, w := range in.wins {
		put(w.rect.Min[0])
		put(w.rect.Min[1])
		put(w.rect.Max[0])
		put(w.rect.Max[1])
	}
	for i := range in.kind {
		put(uint64(in.kind[i])<<32 | uint64(uint32(in.arg[i])))
	}
	in.hash = h.Sum64()
	return in, nil
}

// system is one built instance of a workload's program under test.
type system struct {
	in       *inputs
	dir      string
	rec      *recorder // nil when untraced
	counters *fsCounters

	tree   *bvtree.Tree          // the tree of a library workload (dur.Tree for ingest-durable)
	dur    *bvtree.DurableTree   // ingest-durable
	shards []*bvtree.DurableTree // server-mixed
	files  []*storage.FileStore  // every open store, for Stats and Close

	tstores []*tracedStore // traced only

	router *shard.Router
	srv    *shard.Server
	served chan error // Serve's return, so close can wait for the accept loop
	addr   string
	cli    *shard.Client

	inserted  int // extra points acknowledged so far
	sinceCkpt int // of them, since the last checkpoint
	buildSecs float64
	built     counts // counters right after the build, before the warm-up
	recovered recovery
	payloads  []uint64
}

// setup builds def's system in dir from freshly generated points, the way
// a user starting from nothing would: generate, build in buildChunk
// batches in generation order, flush or checkpoint.
//
// Trees are never built with BulkLoad: on these point sets it yields
// heights of 48 to 185 instead of 4 to 6, different on every run, and
// lookups 5 to 20 times slower. That defect has its own layer metrics
// (bvtree.bulkload_height, bvtree.bulkload_points_per_s).
func setup(in *inputs, dir string, rec *recorder) (*system, error) {
	pts, err := workload.Generate(workload.Clustered, dims, in.def.points, in.seed)
	if err != nil {
		return nil, err
	}
	s := &system{in: in, dir: dir, rec: rec, counters: &fsCounters{}}
	if err := in.def.build(s, pts); err != nil {
		return nil, errors.Join(err, s.close())
	}
	s.built = s.counts()
	return s, nil
}

// lane returns a new lane for a traced system's i-th call chain: the
// client's own for a library workload, one per shard for the server.
func (s *system) lane(perShard bool) *lane {
	if s.rec == nil {
		return nil
	}
	if perShard {
		return s.rec.newLane()
	}
	return s.rec.client
}

// store registers st and returns what the tree should be handed: st
// itself, or its traced wrapper.
func (s *system) store(st *storage.FileStore, ln *lane, live map[page.ID]struct{}) storage.Store {
	s.files = append(s.files, st)
	if ln == nil {
		return st
	}
	ts := newTracedStore(st, ln, live)
	s.tstores = append(s.tstores, ts)
	return ts
}

// eachChunk calls fn with consecutive buildChunk-sized pieces of pts and
// their payloads base, base+1, ...
func eachChunk(pts []geometry.Point, base uint64, fn func(pts []geometry.Point, payloads []uint64) error) error {
	payloads := make([]uint64, 0, buildChunk)
	for lo := 0; lo < len(pts); lo += buildChunk {
		hi := min(lo+buildChunk, len(pts))
		payloads = payloads[:0]
		for i := lo; i < hi; i++ {
			payloads = append(payloads, base+uint64(i))
		}
		if err := fn(pts[lo:hi], payloads); err != nil {
			return err
		}
	}
	return nil
}

// buildPaged builds the paged tree of the four read workloads.
func buildPaged(s *system, pts []geometry.Point) error {
	def := s.in.def
	ln := s.lane(false)
	fs := benchFS{ln: ln, counters: s.counters}
	path := filepath.Join(s.dir, "tree.db")
	st, err := storage.CreateFileStore(path, storage.FileStoreOptions{PoolSlots: hotPoolSlots, FS: fs})
	if err != nil {
		return err
	}
	t, err := bvtree.NewPaged(s.store(st, ln, nil), bvtree.Options{Dims: dims, CacheNodes: hotCacheNodes, RangeWorkers: 1})
	if err != nil {
		return err
	}
	t0 := time.Now()
	ops := make([]bvtree.BatchOp, 0, buildChunk)
	err = eachChunk(pts, 0, func(pts []geometry.Point, payloads []uint64) error {
		ops = ops[:0]
		for i, p := range pts {
			ops = append(ops, bvtree.BatchOp{Point: p, Payload: payloads[i]})
		}
		return t.ApplyBatch(ops)
	})
	if err != nil {
		return err
	}
	s.buildSecs = time.Since(t0).Seconds()
	if err := t.Flush(); err != nil {
		return err
	}
	s.tree = t
	if def.cacheNodes == 0 {
		return nil
	}
	// point-cold: drop every cache and come back with small ones.
	var live map[page.ID]struct{}
	if len(s.tstores) > 0 {
		live = s.tstores[0].live
	}
	s.tree, s.files, s.tstores = nil, nil, nil
	if err := st.Close(); err != nil {
		return err
	}
	st, err = storage.OpenFileStore(path, storage.FileStoreOptions{PoolSlots: def.poolSlots, FS: fs})
	if err != nil {
		return err
	}
	s.tree, err = bvtree.OpenPaged(s.store(st, ln, live), def.cacheNodes)
	return err
}

// newDurable creates one durable tree (store + WAL) named base in s.dir.
func (s *system) newDurable(base string, ln *lane) (*bvtree.DurableTree, error) {
	fs := benchFS{ln: ln, counters: s.counters}
	st, err := storage.CreateFileStore(filepath.Join(s.dir, base+".db"), storage.FileStoreOptions{PinDirty: true, FS: fs})
	if err != nil {
		return nil, err
	}
	store := s.store(st, ln, nil)
	l, err := wal.OpenFS(fs, filepath.Join(s.dir, base+".wal"))
	if err != nil {
		return nil, err
	}
	return bvtree.NewDurableLog(store, l, bvtree.Options{Dims: dims, RangeWorkers: 1})
}

// buildDurable builds ingest-durable's preloaded, checkpointed tree.
func buildDurable(s *system, pts []geometry.Point) error {
	d, err := s.newDurable("tree", s.lane(false))
	if err != nil {
		return err
	}
	s.dur, s.tree = d, d.Tree
	t0 := time.Now()
	if err := eachChunk(pts, 0, d.InsertBatch); err != nil {
		return err
	}
	s.buildSecs = time.Since(t0).Seconds()
	return d.Checkpoint()
}

// buildServer builds server-mixed: durable shards behind a router, an
// in-process server on a loopback port, one synchronous client.
func buildServer(s *system, pts []geometry.Point) error {
	def := s.in.def
	plan, err := shard.PlanShards(pts[:min(len(pts), 4096)], dims, def.shards, 0)
	if err != nil {
		return err
	}
	engines := make([]shard.Engine, plan.Shards())
	for i := range engines {
		ln := s.lane(true)
		d, err := s.newDurable(fmt.Sprintf("shard-%d", i), ln)
		if err != nil {
			return err
		}
		s.shards = append(s.shards, d)
		engines[i] = d
		if ln != nil {
			engines[i] = &tracedEngine{Engine: d, ln: ln}
		}
	}
	s.router, err = shard.NewRouter(plan, engines)
	if err != nil {
		return err
	}
	// Preload shard by shard through InsertBatch, as a bulk import would.
	perShard := make([][]geometry.Point, len(engines))
	ids := make([][]uint64, len(engines))
	for i, p := range pts {
		k, err := s.router.ShardFor(p)
		if err != nil {
			return err
		}
		perShard[k] = append(perShard[k], p)
		ids[k] = append(ids[k], uint64(i))
	}
	t0 := time.Now()
	for k, d := range s.shards {
		for lo := 0; lo < len(perShard[k]); lo += buildChunk {
			hi := min(lo+buildChunk, len(perShard[k]))
			if err := d.InsertBatch(perShard[k][lo:hi], ids[k][lo:hi]); err != nil {
				return err
			}
		}
	}
	s.buildSecs = time.Since(t0).Seconds()
	for _, d := range s.shards {
		if err := d.Checkpoint(); err != nil {
			return err
		}
	}
	s.srv = shard.NewServer(s.router, shard.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.cli, err = shard.Dial(s.addr)
	return err
}

// trees returns every tree of the system.
func (s *system) trees() []*bvtree.Tree {
	if s.tree != nil {
		return []*bvtree.Tree{s.tree}
	}
	out := make([]*bvtree.Tree, len(s.shards))
	for i, d := range s.shards {
		out[i] = d.Tree
	}
	return out
}

// len returns the number of live points.
func (s *system) len() int {
	n := 0
	for _, t := range s.trees() {
		n += t.Len()
	}
	return n
}

// canRound reports whether the pool still holds a round's inserts beside
// the batches kept back for the oracle.
func (s *system) canRound() bool {
	return s.inserted+s.in.roundInserts+verifyBatches*s.in.def.batch <= len(s.in.extra)
}

// Root span names, by operation kind, for library and wire calls.
var (
	libRoot = [...]string{opLookup: "bvtree.Lookup", opRange: "bvtree.RangeQuery", opBatch: "bvtree.InsertBatch"}
	cliRoot = [...]string{opLookup: "client.Lookup", opRange: "client.Range", opCount: "client.Count", opInsert: "client.Insert"}
)

func (s *system) rootName(kind uint8) string {
	if s.cli != nil {
		return cliRoot[kind]
	}
	return libRoot[kind]
}

// op runs operation i of the round. It returns the number of items the
// program delivered and whether the answer was right; err is a failure of
// the program or the wire, which also counts as a failed operation.
func (s *system) op(i int) (items int, ok bool, err error) {
	in := s.in
	switch in.kind[i] {
	case opLookup:
		idx := in.arg[i]
		var got []uint64
		if s.cli != nil {
			got, err = s.cli.Lookup(in.pts[idx])
		} else {
			got, err = s.tree.Lookup(in.pts[idx])
		}
		return len(got), contains(got, uint64(idx)), err
	case opRange:
		w := &in.wins[in.arg[i]]
		n := 0
		if s.cli != nil {
			var got []uint64
			var truncated bool
			_, got, truncated, err = s.cli.Range(w.rect, rangeLimit)
			// Inserts only add items, so the set-up's count is a floor.
			return len(got), !truncated && len(got) >= w.want.n, err
		}
		err = s.tree.RangeQuery(w.rect, func(geometry.Point, uint64) bool { n++; return true })
		if w.have {
			return n, n == w.want.n, err
		}
		return n, n >= 1, err // the window's centre is stored
	case opCount:
		w := &in.wins[in.arg[i]]
		n, err := s.cli.Count(w.rect)
		return 0, n >= w.want.n, err
	case opInsert:
		k := s.inserted
		err = s.cli.Insert(in.extra[k], uint64(len(in.pts)+k))
		if err == nil {
			s.inserted++
			s.sinceCkpt++
		}
		return 0, err == nil, err
	case opBatch:
		b := in.def.batch
		k := s.inserted
		s.payloads = s.payloads[:0]
		for j := 0; j < b; j++ {
			s.payloads = append(s.payloads, uint64(len(in.pts)+k+j))
		}
		err = s.dur.InsertBatch(in.extra[k:k+b], s.payloads)
		if err == nil {
			s.inserted += b
			s.sinceCkpt += b
		}
		return 0, err == nil, err
	}
	return 0, false, fmt.Errorf("unknown op kind %d", in.kind[i])
}

// round runs the round's operations once, then ingest-durable's
// foreground checkpoint. lat, when non-nil, receives each operation's
// duration in microseconds. It returns the items delivered and the
// operations that failed; err is set for the first program error (the
// round still completes).
func (s *system) round(lat []float64) (items, failed int, err error) {
	for i := range s.in.kind {
		var t0 time.Time
		if lat != nil {
			t0 = time.Now()
		}
		var h int32 = -1
		if s.rec != nil {
			h = s.rec.beginRoot(s.rootName(s.in.kind[i]))
		}
		n, ok, e := s.op(i)
		if s.rec != nil {
			s.rec.endRoot(h)
		}
		if lat != nil {
			lat[i] = float64(time.Since(t0)) / 1e3
		}
		items += n
		if !ok || e != nil {
			failed++
			if err == nil && e != nil {
				err = fmt.Errorf("op %d: %w", i, e)
			}
		}
	}
	if s.dur != nil {
		var h int32 = -1
		if s.rec != nil {
			h = s.rec.beginRoot("bvtree.Checkpoint")
		}
		e := s.dur.Checkpoint()
		if s.rec != nil {
			s.rec.endRoot(h)
		}
		if e != nil && err == nil {
			err = fmt.Errorf("checkpoint: %w", e)
		}
		s.sinceCkpt = 0
	}
	return items, failed, err
}

// flush makes the stores reflect every acknowledged operation.
func (s *system) flush() error {
	if s.dur != nil {
		return s.dur.Checkpoint()
	}
	if len(s.shards) > 0 {
		for _, d := range s.shards {
			if err := d.Checkpoint(); err != nil {
				return err
			}
		}
		return nil
	}
	return s.tree.Flush()
}

// diskBytes sums the files of the data directory.
func (s *system) diskBytes() (int64, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// close stops the server, closes every tree, log and store, and waits for
// all of it. It may be called on a partly built system, and twice.
func (s *system) close() error {
	var errs []error
	if s.cli != nil {
		errs = append(errs, s.cli.Close())
		s.cli = nil
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
		if s.served != nil {
			<-s.served // Serve has returned: the listener is closed
		}
		s.srv = nil
	}
	if s.dur != nil {
		errs = append(errs, s.dur.Close())
		s.dur = nil
	}
	for _, d := range s.shards {
		errs = append(errs, d.Close())
	}
	s.shards = nil
	for _, st := range s.files {
		errs = append(errs, st.Close())
	}
	s.files = nil
	return errors.Join(errs...)
}

// verify runs the oracle checks that do not fit in the timed loop. Every
// check is one attempted operation; a wrong answer is a failed one.
func (s *system) verify() (checked, failed int, err error) {
	in := s.in
	bad := func(format string, a ...any) {
		failed++
		if err == nil {
			err = fmt.Errorf("oracle: "+format, a...)
		}
	}
	checked++
	if got, want := s.len(), len(in.pts)+s.inserted; got != want {
		bad("Len %d, want %d", got, want)
	}
	base := uint64(len(in.pts))
	for i := range in.wins {
		w := &in.wins[i]
		if !w.have {
			continue
		}
		want := w.want
		scan(&want, in.extra[:s.inserted], base, w.rect)
		checked++
		var got bag
		genuine := true
		item := func(p geometry.Point, payload uint64) bool {
			got.add(payload)
			var stored geometry.Point
			switch {
			case payload < base:
				stored = in.pts[payload]
			case payload < base+uint64(s.inserted):
				stored = in.extra[payload-base]
			}
			if stored == nil || !stored.Equal(p) || !w.rect.Contains(p) {
				genuine = false
			}
			return true
		}
		if s.cli == nil {
			if e := s.tree.RangeQuery(w.rect, item); e != nil {
				bad("window %d: %v", i, e)
				continue
			}
		} else {
			pts, payloads, truncated, e := s.cli.Range(w.rect, 0)
			if e != nil || truncated {
				bad("window %d: range error %v, truncated %v", i, e, truncated)
				continue
			}
			for j := range pts {
				item(pts[j], payloads[j])
			}
			checked++
			if n, e := s.cli.Count(w.rect); e != nil || n != want.n {
				bad("window %d: count %d (error %v), want %d", i, n, e, want.n)
			}
		}
		if got != want || !genuine {
			bad("window %d: got %d items, want %d (every item stored and inside: %v)", i, got.n, want.n, genuine)
		}
	}
	src := workload.NewSource(in.seed ^ 0x766572696679)
	if s.cli != nil {
		// Acknowledged inserts must be visible over the wire.
		for j := 0; j < min(s.inserted, 500); j++ {
			k := src.Intn(s.inserted)
			checked++
			if got, e := s.cli.Lookup(in.extra[k]); e != nil || !contains(got, base+uint64(k)) {
				bad("inserted point %d not found (error %v)", k, e)
			}
		}
	}
	if s.dur != nil {
		// Leave acknowledged, uncheckpointed batches in the log to recover.
		for j := 0; j < verifyBatches && s.inserted+in.def.batch <= len(in.extra); j++ {
			checked++
			if _, ok, e := s.op(0); !ok {
				bad("insert batch: %v", e)
			}
		}
		c, f, e := s.verifyRecovery(src)
		checked += c
		failed += f
		if err == nil {
			err = e
		}
	}
	return checked, failed, err
}

// recovery describes a crash-image reopen, for the layer metrics.
type recovery struct {
	replayed int
	seconds  float64
}

// verifyRecovery checks acknowledged ⇒ durable. It copies the store, its
// journal and the log as they are on disk right now (the image a crash
// would leave: with PinDirty the store file holds the last checkpoint,
// the log every acknowledged record since) and opens the copy the way a
// restart would. The recovered tree must hold every acknowledged point.
func (s *system) verifyRecovery(src *workload.Source) (checked, failed int, err error) {
	in := s.in
	for _, suffix := range []string{".db", ".db.journal", ".wal"} {
		if e := copyFile(filepath.Join(s.dir, "tree"+suffix), filepath.Join(s.dir, "crash"+suffix)); e != nil && !errors.Is(e, os.ErrNotExist) {
			return 0, 0, e
		}
	}
	defer func() {
		for _, suffix := range []string{".db", ".db.journal", ".wal"} {
			os.Remove(filepath.Join(s.dir, "crash"+suffix))
		}
	}()
	fs := benchFS{counters: &fsCounters{}}
	t0 := time.Now()
	st, err := storage.OpenFileStore(filepath.Join(s.dir, "crash.db"), storage.FileStoreOptions{PinDirty: true, FS: fs})
	if err != nil {
		return 1, 1, fmt.Errorf("oracle: reopen store: %w", err)
	}
	defer st.Close()
	l, err := wal.OpenFS(fs, filepath.Join(s.dir, "crash.wal"))
	if err != nil {
		return 1, 1, fmt.Errorf("oracle: reopen log: %w", err)
	}
	d, err := bvtree.OpenDurableLog(st, l, 0)
	if err != nil {
		return 1, 1, fmt.Errorf("oracle: recovery: %w", err)
	}
	defer d.Close()
	s.recovered = recovery{replayed: s.sinceCkpt, seconds: time.Since(t0).Seconds()}
	bad := func(format string, a ...any) {
		failed++
		if err == nil {
			err = fmt.Errorf("oracle: "+format, a...)
		}
	}
	checked++
	total := len(in.pts) + s.inserted
	if d.Len() != total {
		bad("recovered Len %d, want %d acknowledged", d.Len(), total)
	}
	for j := 0; j < 1000; j++ {
		k := src.Intn(total)
		p := in.pts[min(k, len(in.pts)-1)]
		if k >= len(in.pts) {
			p = in.extra[k-len(in.pts)]
		}
		checked++
		if got, e := d.Lookup(p); e != nil || !contains(got, uint64(k)) {
			bad("acknowledged point %d lost in recovery (error %v)", k, e)
		}
	}
	return checked, failed, err
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}
