package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/region"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
	"bvtree/internal/zorder"
)

// maxTracedSpans stops the traced pass before its spans outgrow memory.
const maxTracedSpans = 2_000_000

// runConfig is one run of one workload.
type runConfig struct {
	def      *workloadDef
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // parent of the run's data directory
	traceOut string // where the traced pass writes its spans; "" = nowhere
	setups   int    // episodes of the untraced run: set-ups, each followed by its share of seconds

	// corrupt, when set, damages the inputs after they are generated; the
	// tests use it to prove the oracle notices.
	corrupt func(*inputs)
}

// result is what one run reports.
type result struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]float64
	hash      uint64 // fingerprint of the generated inputs
	procs     int
	rounds    int   // measured rounds of each kind (untraced run)
	err       error // first program or oracle error, for the log
}

// counts is a snapshot of every counter the layers keep.
type counts struct {
	nodes, batchTests, splits uint64
	store                     storage.Stats
	fs                        fsTotals
	commits, syncs            uint64
	bytesIn, bytesOut, errs   uint64
}

func (s *system) counts() counts {
	var c counts
	for _, t := range s.trees() {
		st := t.Stats()
		c.nodes += st.NodeAccesses
		c.batchTests += st.BatchTests
		c.splits += st.DataSplits + st.IndexSplits
	}
	for _, f := range s.files {
		st := f.Stats()
		c.store.NodeReads += st.NodeReads
		c.store.NodeWrites += st.NodeWrites
		c.store.SlotReads += st.SlotReads
		c.store.SlotWrites += st.SlotWrites
		c.store.CacheHits += st.CacheHits
		c.store.CacheMisses += st.CacheMisses
		c.store.Evictions += st.Evictions
	}
	c.fs = s.counters.snapshot()
	durables := s.shards
	if s.dur != nil {
		durables = []*bvtree.DurableTree{s.dur}
	}
	for _, d := range durables {
		commits, syncs := d.GroupStats()
		c.commits += commits
		c.syncs += syncs
	}
	if s.srv != nil {
		m := s.srv.Metrics()
		c.bytesIn, c.bytesOut, c.errs = m.BytesIn, m.BytesOut, m.Errors
	}
	return c
}

func (c counts) sub(d counts) counts {
	c.nodes -= d.nodes
	c.batchTests -= d.batchTests
	c.splits -= d.splits
	c.store = c.store.Sub(d.store)
	c.fs = c.fs.sub(d.fs)
	c.commits -= d.commits
	c.syncs -= d.syncs
	c.bytesIn -= d.bytesIn
	c.bytesOut -= d.bytesOut
	c.errs -= d.errs
	return c
}

// cpuSeconds returns the CPU time the process has used, all threads,
// user and system, from the scheduler's nanosecond clock
// (CLOCK_PROCESS_CPUTIME_ID): getrusage advances in scheduler ticks,
// which is too coarse for a round of a few milliseconds.
func cpuSeconds() float64 {
	const clockProcessCPUTime = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// run executes one run of one workload and removes its data directory.
func run(cfg runConfig) (res *result) {
	def := cfg.def
	procs := def.procs
	if procs == 0 {
		procs = min(runtime.NumCPU(), 2)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	res = &result{workload: def.name, metrics: map[string]float64{}, procs: procs}
	fail := func(err error) *result {
		res.err = errors.Join(res.err, err)
		res.failed++
		res.attempted = max(res.attempted, res.failed)
		return res
	}
	in, err := makeInputs(def, cfg.seed)
	if err != nil {
		return fail(err)
	}
	res.hash = in.hash
	if cfg.corrupt != nil {
		cfg.corrupt(in)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(cfg.dir, "data-"+def.name+"-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	if cfg.trace {
		err = runTraced(cfg, in, dir, res)
	} else {
		err = runPlain(cfg, in, dir, res)
	}
	if err != nil {
		return fail(err)
	}
	return res
}

// tally folds one round's or the oracle's outcome into the result.
func (r *result) tally(attempted, failed int, err error) {
	r.attempted += attempted
	r.failed += failed
	if r.err == nil {
		r.err = err
	}
}

// freshDir empties and recreates the data directory between set-ups.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.Mkdir(dir, 0o755)
}

// measured is what the rounds of one measured section yield: one value
// per round of each kind.
type measured struct {
	rates []float64 // whole-round rounds: operations per second
	cpus  []float64 // whole-round rounds: process CPU microseconds per operation
	p50s  []float64 // per-operation-timed rounds: median latency, µs
	p99s  []float64 // per-operation-timed rounds: 99th percentile latency, µs
	worst float64   // slowest single operation, µs
	ops   int       // operations of all rounds
	items int       // items they delivered
}

// measure alternates a round timed as a whole (throughput, CPU) with a
// round timed operation by operation (latency) until d has passed and at
// least one of each is done, or the insert pool runs dry, and adds what
// they yield to m. Alternating spreads both kinds over the whole section,
// so a stretch in which the host runs slow falls on both alike.
func (m *measured) measure(s *system, res *result, d time.Duration) {
	nops := len(s.in.kind)
	lat, asc := make([]float64, nops), make([]float64, nops)
	start := time.Now()
	for first := true; (first || time.Since(start) < d) && s.canRound(); first = false {
		cpu0, t0 := cpuSeconds(), time.Now()
		n, failed, err := s.round(nil)
		wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
		res.tally(nops, failed, err)
		m.rates = append(m.rates, float64(nops)/wall)
		m.cpus = append(m.cpus, cpu*1e6/float64(nops))
		m.ops += nops
		m.items += n
		if !s.canRound() {
			break
		}
		n, failed, err = s.round(lat)
		res.tally(nops, failed, err)
		m.ops += nops
		m.items += n
		copy(asc, lat)
		sort.Float64s(asc)
		m.p50s = append(m.p50s, percentile(asc, 50))
		m.p99s = append(m.p99s, percentile(asc, 99))
		m.worst = max(m.worst, asc[nops-1])
	}
}

// quietPercent is the rank of the round the timing metrics report. The
// host shares its caches and memory with other guests: for minutes at a
// time every memory-bound round runs 10 to 40 % slower, while a few rounds
// in a hundred still run undisturbed. The median round follows the host;
// the round at the undisturbed end of the distribution follows the
// program. README.md, "Noise on this host", has the measurements.
const quietPercent = 1

// quietLow returns the value a time-like sample (lower is better) takes in
// an undisturbed round, quietHigh the same for a rate.
func quietLow(v []float64) float64  { return percentile(sorted(v), quietPercent) }
func quietHigh(v []float64) float64 { return percentile(sorted(v), 100-quietPercent) }

// runPlain is the untraced run: it produces the end-to-end metrics.
//
// The run is cfg.setups episodes (more when a writing workload uses up its
// pool of new points first): set up in an empty directory, warm up,
// measure for a share of the time. setup_s so has a sample per episode,
// spread over the run like the rounds, and a writing workload returns to
// the tree size it names before it has grown far from it.
func runPlain(cfg runConfig, in *inputs, dir string, res *result) error {
	budget := time.Duration(cfg.seconds * float64(time.Second))
	share := budget / time.Duration(max(cfg.setups, 1))
	var m measured
	var setups []float64
	for used := time.Duration(0); used < budget; {
		if len(setups) > 0 {
			if err := freshDir(dir); err != nil {
				return err
			}
		}
		t0 := time.Now()
		sys, err := setup(in, dir, nil)
		if err != nil {
			return err
		}
		_, failed, err := sys.round(nil) // warm-up: caches fill, lazy set-up finishes
		setups = append(setups, time.Since(t0).Seconds())
		res.tally(len(in.kind), failed, err)

		if len(setups) == 1 {
			// The live heap is read on the warmed-up system, not after
			// measuring: how far a writing workload has grown its tree by
			// then depends on how fast the host ran it.
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			res.metrics["heap_live_mb"] = float64(ms.HeapAlloc) / (1 << 20)
		}

		t0 = time.Now()
		m.measure(sys, res, min(share, budget-used))
		used += time.Since(t0)
		if len(m.p50s) == 0 {
			sys.close()
			return errors.New("no round ran: insert pool too small")
		}
		if used >= budget {
			// The last system answers the oracle and is weighed on disk.
			checked, failed, err := sys.verify()
			res.tally(checked, failed, err)
			if err := sys.flush(); err != nil {
				sys.close()
				return err
			}
			bytes, err := sys.diskBytes()
			if err != nil {
				sys.close()
				return err
			}
			res.metrics["disk_bytes_per_point"] = ratio(float64(bytes), float64(sys.len()))
		}
		if err := sys.close(); err != nil {
			return err
		}
	}
	res.rounds = len(m.rates)
	res.metrics["setup_s"] = quietLow(setups)
	res.metrics["ops_per_s"] = quietHigh(m.rates)
	res.metrics["cpu_us_per_op"] = quietLow(m.cpus)
	res.metrics["lat_p50_us"] = quietLow(m.p50s)
	return nil
}

// runTraced produces the per-layer metrics. Counts and the untraced
// baseline come from a plain system; times come from a second system built
// over the decorators of seams.go, so tracing overhead is the difference
// between two otherwise identical passes.
func runTraced(cfg runConfig, in *inputs, dir string, res *result) error {
	def := in.def
	m := res.metrics
	for _, md := range perLayer {
		m[md.name] = 0
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))

	// Plain pass.
	sys, err := setup(in, dir, nil)
	if err != nil {
		return err
	}
	defer func() { sys.close() }()
	_, failed, err := sys.round(nil)
	res.tally(len(in.kind), failed, err)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := sys.counts()
	t0 := time.Now()
	var pm measured
	pm.measure(sys, res, budget/2)
	secs := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	if len(pm.p50s) == 0 {
		return errors.New("no round ran: insert pool too small")
	}
	rates, ops, items := pm.rates, pm.ops, pm.items
	c := sys.counts().sub(c0)
	plainRate := quietHigh(rates)
	nops := float64(ops)
	points := nops * float64(def.batch) // points the measured rounds inserted (ingest-durable)
	if def.shards > 0 {
		points = float64(in.roundInserts * (len(pm.rates) + len(pm.p50s)))
	}

	allocs := float64(ms1.Mallocs-ms0.Mallocs) / nops
	if def.shards > 0 {
		m["shard.allocs_per_op"] = allocs // client, server and trees: one process
		m["shard.bytes_in_per_op"] = float64(c.bytesIn) / nops
		m["shard.bytes_out_per_op"] = float64(c.bytesOut) / nops
		m["shard.error_responses"] = float64(c.errs)
	} else {
		m["bvtree.allocs_per_op"] = allocs
	}
	m["bvtree.nodes_per_op"] = float64(c.nodes) / nops
	m["bvtree.items_per_op"] = float64(items) / nops
	m["bvtree.nodes_per_item"] = ratio(float64(c.nodes), float64(items))
	m["bvtree.batch_tests_per_op"] = float64(c.batchTests) / nops
	m["bvtree.node_cache_miss_per_op"] = float64(c.store.NodeReads) / nops
	m["storage.node_reads_per_op"] = float64(c.store.NodeReads) / nops
	m["storage.slot_reads_per_op"] = float64(c.store.SlotReads) / nops
	m["storage.evictions_per_op"] = float64(c.store.Evictions) / nops
	m["storage.pool_hit_ratio"] = ratio(float64(c.store.CacheHits), float64(c.store.CacheHits+c.store.CacheMisses))
	m["wal.fsyncs_per_kop"] = float64(c.fs.syncs[fileWAL]) / nops * 1000
	m["wal.commits_per_fsync"] = ratio(float64(c.commits), float64(c.syncs))
	m["vfs.read_bytes_per_op"] = float64(sum3(c.fs.readBytes)) / nops
	m["client.round_spread_frac"] = ratio(sorted(rates)[len(rates)-1]-sorted(rates)[0], median(rates))

	// Write-side costs per point: over the measured rounds where they
	// insert, over the set-up's build elsewhere.
	w, wpoints := sys.built, float64(def.points)
	m["bvtree.points_per_s"] = ratio(wpoints, sys.buildSecs)
	if def.batch > 0 {
		w, wpoints = c, points
		m["bvtree.points_per_s"] = points / secs
	}
	m["bvtree.splits_per_kpoint"] = float64(w.splits) / wpoints * 1000
	m["storage.slot_writes_per_point"] = float64(w.store.SlotWrites) / wpoints
	m["wal.bytes_per_point"] = float64(w.fs.writeBytes[fileWAL]) / wpoints
	m["vfs.write_bytes_per_point"] = float64(sum3(w.fs.writeBytes)) / wpoints

	m["client.lat_p99_us"] = median(pm.p99s)
	m["client.lat_max_us"] = pm.worst

	if err := structureMetrics(sys, m); err != nil {
		return err
	}
	if def.shards > 0 {
		if err := serverProbes(sys, m); err != nil {
			return err
		}
	}
	if def.name == "range-large" {
		if err := engineSpeedup(sys, m); err != nil {
			return err
		}
	}
	checked, failed, err := sys.verify()
	res.tally(checked, failed, err)
	if def.batch > 0 {
		m["wal.replay_points_per_s"] = ratio(float64(sys.recovered.replayed), sys.recovered.seconds)
	}
	if err := sys.close(); err != nil {
		return err
	}
	if err := freshDir(dir); err != nil {
		return err
	}

	// Traced pass.
	rec := newRecorder()
	if sys, err = setup(in, dir, rec); err != nil {
		return err
	}
	_, failed, err = sys.round(nil)
	res.tally(len(in.kind), failed, err)
	runtime.GC()
	rec.on.Store(true)
	var tracedRates []float64
	tracedOps := 0
	start := time.Now()
	for (tracedOps == 0 || time.Since(start) < budget/2) && sys.canRound() && int(rec.nextID.Load()) < maxTracedSpans {
		t0 := time.Now()
		_, failed, err := sys.round(nil)
		tracedRates = append(tracedRates, float64(len(in.kind))/time.Since(t0).Seconds())
		res.tally(len(in.kind), failed, err)
		tracedOps += len(in.kind)
	}
	rec.on.Store(false)
	spans := rec.all()
	sum := summarize(spans)
	sum.Workload, sum.Seed, sum.Ops = def.name, in.seed, tracedOps
	tops := float64(tracedOps)
	m["shard.self_us_per_op"] = sum.LayerSelfUs["shard"] / tops
	m["bvtree.self_us_per_op"] = sum.LayerSelfUs["bvtree"] / tops
	m["storage.self_us_per_op"] = sum.LayerSelfUs["storage"] / tops
	vfsDur := func(ops ...string) float64 {
		return sum.durUs(func(name string) bool {
			if !strings.HasPrefix(name, "vfs.") {
				return false
			}
			for _, op := range ops {
				if strings.HasSuffix(name, "."+op) {
					return true
				}
			}
			return false
		})
	}
	m["vfs.read_us_per_op"] = vfsDur("Read", "ReadAt") / tops
	m["vfs.write_us_per_op"] = vfsDur("Write", "WriteAt") / tops
	m["vfs.sync_us_per_op"] = vfsDur("Sync") / tops
	if st := sum.Names["vfs.wal.Write"]; st != nil {
		m["wal.write_us_per_op"] = st.DurUs / tops
	}
	if st := sum.Names["vfs.wal.Sync"]; st != nil {
		m["wal.fsync_p50_us"] = median(st.durs)
	}
	var syncsMs []float64
	for _, ts := range sys.tstores {
		syncsMs = append(syncsMs, ts.syncsMs...)
	}
	m["storage.sync_p50_ms"] = median(syncsMs)
	count := func(names ...string) (n float64) {
		for _, name := range names {
			if st := sum.Names[name]; st != nil {
				n += float64(st.Count)
			}
		}
		return n
	}
	m["shard.engine_calls_per_range"] = ratio(count("engine.RangeQuery", "engine.Count"), count("client.Range", "client.Count"))
	m["trace.overhead_frac"] = 1 - ratio(quietHigh(tracedRates), plainRate)
	m["trace.spans"] = float64(len(spans))
	if cfg.traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			return err
		}
		if err := writeTrace(cfg.traceOut, sum, spans); err != nil {
			return err
		}
	}
	// The layers must account for the time the client saw.
	var layers float64
	for _, us := range sum.LayerSelfUs {
		layers += us
	}
	res.tally(1, 0, nil)
	if sum.RootUs == 0 || layers < 0.99*sum.RootUs || layers > 1.01*sum.RootUs {
		res.tally(0, 1, fmt.Errorf("trace: layer self times sum to %.0f µs, root spans to %.0f µs", layers, sum.RootUs))
	}
	if err := pageCodec(sys, m); err != nil {
		return err
	}
	if err := sys.close(); err != nil {
		return err
	}
	return primitives(in, m)
}

// structureMetrics reads the tree shape the paper makes claims about.
func structureMetrics(s *system, m map[string]float64) error {
	in := s.in
	minOcc := 1.0
	for _, t := range s.trees() {
		m["bvtree.height"] = max(m["bvtree.height"], float64(t.Height()))
		st, err := t.CollectStats()
		if err != nil {
			return err
		}
		minOcc = min(minOcc, st.DataMinOcc)
	}
	m["bvtree.data_min_occupancy"] = minOcc
	if s.tree == nil {
		return nil // per-shard SearchCost would need the router's internals
	}
	src := workload.NewSource(in.seed ^ 0x6775617264)
	for i := 0; i < 1000; i++ {
		_, guards, err := s.tree.SearchCost(in.pts[src.Intn(len(in.pts))])
		if err != nil {
			return err
		}
		m["bvtree.guard_set_max"] = max(m["bvtree.guard_set_max"], float64(guards))
	}
	return nil
}

// serverProbes times the pieces of a wire request in isolation.
func serverProbes(s *system, m map[string]float64) error {
	const n = 2000
	src := workload.NewSource(s.in.seed ^ 0x70726f6265)
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		if _, _, err := s.cli.Ping(); err != nil {
			return err
		}
		us[i] = float64(time.Since(t0)) / 1e3
	}
	m["shard.ping_rtt_p50_us"] = median(us)
	for i := range us {
		p := s.in.pts[src.Intn(len(s.in.pts))]
		t0 := time.Now()
		if _, err := s.router.Lookup(p); err != nil {
			return err
		}
		us[i] = float64(time.Since(t0)) / 1e3
	}
	m["shard.router_lookup_p50_us"] = median(us)
	if op, ok := s.srv.Metrics().Ops["lookup"]; ok {
		m["shard.server_exec_p50_us"] = op.Latency.P50 / 1e3
	}
	return nil
}

// engineSpeedup compares the parallel range engine at two workers with
// the serial walk on range-large's windows. With fewer than three CPUs
// the workers share cores with the caller and the ratio says little; the
// environment line prints nproc beside it.
func engineSpeedup(s *system, m map[string]float64) error {
	pass := func(workers int) (float64, error) {
		t0 := time.Now()
		for i := range s.in.wins {
			if err := s.tree.RangeQueryWorkers(s.in.wins[i].rect, func(geometry.Point, uint64) bool { return true }, workers); err != nil {
				return 0, err
			}
		}
		return time.Since(t0).Seconds(), nil
	}
	var serial, engine []float64
	for r := 0; r < 3; r++ {
		a, err := pass(1)
		if err != nil {
			return err
		}
		b, err := pass(2)
		if err != nil {
			return err
		}
		serial, engine = append(serial, a), append(engine, b)
	}
	m["bvtree.range_engine_speedup"] = ratio(median(serial), median(engine))
	return nil
}

// nsPerCall times fn over enough calls to outlast the clock's grain.
func nsPerCall(calls int, fn func(i int)) float64 {
	best := 0.0
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn(i)
		}
		ns := float64(time.Since(t0)) / float64(calls)
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// pageCodec times the page codec on blobs read back from the traced
// system's own store.
func pageCodec(s *system, m map[string]float64) error {
	var index, data [][]byte
	var pages []*page.DataPage
	items := 0
	for _, ts := range s.tstores {
		ids := make([]page.ID, 0, len(ts.live))
		for id := range ts.live {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if len(index) >= 256 && len(data) >= 256 {
				break
			}
			blob, err := ts.Store.ReadNode(id)
			if err != nil {
				return err
			}
			switch kind, _ := page.DecodeKind(blob); {
			case kind == page.KindIndex && len(index) < 256:
				index = append(index, blob)
			case kind == page.KindData && len(data) < 256:
				dp, _, err := page.DecodeData(blob)
				if err != nil {
					return err
				}
				data = append(data, blob)
				pages = append(pages, dp)
				items += len(dp.Items)
				m["page.bytes_per_item"] += float64(len(blob))
			}
		}
	}
	if len(index) == 0 || len(data) == 0 {
		return nil
	}
	m["page.bytes_per_item"] /= float64(items)
	m["page.decode_index_ns"] = nsPerCall(len(index), func(i int) { page.DecodeIndex(index[i]) })
	m["page.decode_data_ns"] = nsPerCall(len(data), func(i int) { page.DecodeData(data[i]) })
	m["page.encode_data_ns"] = nsPerCall(len(pages), func(i int) { page.EncodeData(pages[i], dims) })
	var dst []page.Item
	var coords []uint64
	m["page.append_items_ns"] = nsPerCall(len(data), func(i int) {
		dst, coords, _ = page.AppendDataItems(data[i], dst[:0], coords[:0])
	})
	return nil
}

// primitives times the leaf packages every layer above leans on, and on
// point-hot the BulkLoad path the set-ups deliberately avoid.
func primitives(in *inputs, m map[string]float64) error {
	il, err := zorder.NewInterleaver(dims, 64)
	if err != nil {
		return err
	}
	n := min(len(in.pts), 1<<14)
	addrs := make([]zorder.Address, n)
	m["zorder.interleave_ns"] = nsPerCall(n, func(i int) { addrs[i], _ = il.Interleave(in.pts[i]) })
	keys := make([]region.BitString, n)
	for i, a := range addrs {
		keys[i] = region.FromAddress(a).Prefix(24) // a brick about the size of a leaf region
	}
	rect := square(in.pts[0], 1<<40)
	hits := 0
	m["region.brick_intersects_ns"] = nsPerCall(n, func(i int) {
		if region.BrickIntersects(keys[i], dims, rect) {
			hits++
		}
	})
	t0 := time.Now()
	if _, err := workload.Generate(workload.Clustered, dims, len(in.pts), in.seed); err != nil {
		return err
	}
	m["workload.generate_points_per_s"] = float64(len(in.pts)) / time.Since(t0).Seconds()

	if in.def.name != "point-hot" {
		return nil
	}
	t, err := bvtree.New(bvtree.Options{Dims: dims})
	if err != nil {
		return err
	}
	payloads := make([]uint64, len(in.pts))
	for i := range payloads {
		payloads[i] = uint64(i)
	}
	t0 = time.Now()
	if err := t.BulkLoad(in.pts, payloads); err != nil {
		return err
	}
	m["bvtree.bulkload_points_per_s"] = float64(len(in.pts)) / time.Since(t0).Seconds()
	m["bvtree.bulkload_height"] = float64(t.Height())
	return nil
}
