// Command benchmark is the repository's one performance benchmark:
// closed-loop, single-client workloads against the BV-tree library and
// its sharded server (four listed in BENCHMARK.json, two more by name),
// six end-to-end metrics each, and a traced pass that attributes the
// client-observed time to the shard, bvtree, storage and vfs layers. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: the share by which it may worsen
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"heap_live_mb", "MiB", "lower", 0.05},
	{"disk_bytes_per_point", "B", "lower", 0.02},
}

var perLayer = []metricDef{
	{name: "shard.self_us_per_op", unit: "us", better: "lower"},
	{name: "shard.bytes_in_per_op", unit: "B", better: "lower"},
	{name: "shard.bytes_out_per_op", unit: "B", better: "lower"},
	{name: "shard.server_exec_p50_us", unit: "us", better: "lower"},
	{name: "shard.ping_rtt_p50_us", unit: "us", better: "lower"},
	{name: "shard.router_lookup_p50_us", unit: "us", better: "lower"},
	{name: "shard.engine_calls_per_range", unit: "count", better: "lower"},
	{name: "shard.allocs_per_op", unit: "count", better: "lower"},
	{name: "shard.error_responses", unit: "count", better: "lower"},
	{name: "bvtree.self_us_per_op", unit: "us", better: "lower"},
	{name: "bvtree.nodes_per_op", unit: "count", better: "lower"},
	{name: "bvtree.nodes_per_item", unit: "count", better: "lower"},
	{name: "bvtree.items_per_op", unit: "count", better: "higher"},
	{name: "bvtree.height", unit: "count", better: "lower"},
	{name: "bvtree.guard_set_max", unit: "count", better: "lower"},
	{name: "bvtree.batch_tests_per_op", unit: "count", better: "lower"},
	{name: "bvtree.node_cache_miss_per_op", unit: "count", better: "lower"},
	{name: "bvtree.splits_per_kpoint", unit: "count", better: "lower"},
	{name: "bvtree.data_min_occupancy", unit: "frac", better: "higher"},
	{name: "bvtree.allocs_per_op", unit: "count", better: "lower"},
	{name: "bvtree.points_per_s", unit: "1/s", better: "higher"},
	{name: "bvtree.range_engine_speedup", unit: "x", better: "higher"},
	{name: "bvtree.bulkload_points_per_s", unit: "1/s", better: "higher"},
	{name: "bvtree.bulkload_height", unit: "count", better: "lower"},
	{name: "page.decode_index_ns", unit: "ns", better: "lower"},
	{name: "page.decode_data_ns", unit: "ns", better: "lower"},
	{name: "page.encode_data_ns", unit: "ns", better: "lower"},
	{name: "page.append_items_ns", unit: "ns", better: "lower"},
	{name: "page.bytes_per_item", unit: "B", better: "lower"},
	{name: "storage.self_us_per_op", unit: "us", better: "lower"},
	{name: "storage.node_reads_per_op", unit: "count", better: "lower"},
	{name: "storage.pool_hit_ratio", unit: "frac", better: "higher"},
	{name: "storage.slot_reads_per_op", unit: "count", better: "lower"},
	{name: "storage.evictions_per_op", unit: "count", better: "lower"},
	{name: "storage.slot_writes_per_point", unit: "count", better: "lower"},
	{name: "storage.sync_p50_ms", unit: "ms", better: "lower"},
	{name: "wal.bytes_per_point", unit: "B", better: "lower"},
	{name: "wal.fsyncs_per_kop", unit: "count", better: "lower"},
	{name: "wal.commits_per_fsync", unit: "count", better: "higher"},
	{name: "wal.write_us_per_op", unit: "us", better: "lower"},
	{name: "wal.fsync_p50_us", unit: "us", better: "lower"},
	{name: "wal.replay_points_per_s", unit: "1/s", better: "higher"},
	{name: "vfs.read_us_per_op", unit: "us", better: "lower"},
	{name: "vfs.write_us_per_op", unit: "us", better: "lower"},
	{name: "vfs.sync_us_per_op", unit: "us", better: "lower"},
	{name: "vfs.read_bytes_per_op", unit: "B", better: "lower"},
	{name: "vfs.write_bytes_per_point", unit: "B", better: "lower"},
	{name: "zorder.interleave_ns", unit: "ns", better: "lower"},
	{name: "region.brick_intersects_ns", unit: "ns", better: "lower"},
	{name: "workload.generate_points_per_s", unit: "1/s", better: "higher"},
	{name: "client.lat_p99_us", unit: "us", better: "lower"},
	{name: "client.lat_max_us", unit: "us", better: "lower"},
	{name: "client.round_spread_frac", unit: "frac", better: "lower"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation: which workloads, how, and where.
type options struct {
	defs     []*workloadDef
	seed     uint64
	seconds  float64
	trace    bool
	repeat   int
	dir      string
	deadline time.Duration
	setups   int
	corrupt  func(*inputs) // tests only: see runConfig.corrupt
}

// realMain parses the command line and returns the exit code: 0 when
// every run was correct, 1 when an operation failed, 2 for bad usage.
func realMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "all", "workload to run, or all")
	seed := fl.Uint64("seed", 1, "seed of every generated input")
	seconds := fl.Float64("seconds", 28, "how long one run measures")
	trace := fl.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	repeat := fl.Int("repeat", 1, "run N times with seeds seed..seed+N-1 and print each end-to-end metric's quartiles against its bound")
	dir := fl.String("dir", ".bench_build", "directory for the data files and trace; a per-run subdirectory is created and removed")
	deadline := fl.Duration("deadline", 170*time.Second, "give up on a run after this long: remove its data and exit 3")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	o := options{defs: workloads, seed: *seed, seconds: *seconds, trace: *trace == 1, repeat: *repeat, dir: *dir, deadline: *deadline, setups: 3}
	if *workload != "all" {
		def := findWorkload(*workload)
		if def == nil {
			fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
			return 2
		}
		o.defs = []*workloadDef{def}
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "need -seconds > 0, -repeat >= 1 and -trace 0 or 1")
		return 2
	}

	// Whatever ends the process, the data directories go with it.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		removeRunDirs(o.dir)
		os.Exit(130)
	}()
	return execute(o, stdout, stderr)
}

// execute runs o's workloads and returns the exit code.
func execute(o options, stdout, stderr io.Writer) int {
	printEnv(stdout, o.dir)
	code := 0
	values := map[string]map[string][]float64{} // workload → metric → one value per repeat
	for _, def := range o.defs {
		values[def.name] = map[string][]float64{}
		for r := 0; r < o.repeat; r++ {
			cfg := runConfig{def: def, seed: o.seed + uint64(r), seconds: o.seconds, trace: o.trace, dir: o.dir, setups: o.setups, corrupt: o.corrupt}
			if cfg.trace {
				cfg.traceOut = filepath.Join(o.dir, "trace-"+def.name+".json")
			}
			stop := watchdog(o.deadline, func() {
				fmt.Fprintf(stderr, "benchmark: %s exceeded the %v deadline\n", def.name, o.deadline)
				removeRunDirs(o.dir)
				os.Exit(3)
			})
			res := run(cfg)
			stop()
			if !report(stdout, stderr, cfg, res) {
				code = 1
			}
			for name, v := range res.metrics {
				values[def.name][name] = append(values[def.name][name], v)
			}
		}
	}
	if o.repeat > 1 && !o.trace {
		noiseReport(stdout, o.defs, values)
	}
	return code
}

// watchdog calls expire unless the returned stop function is called
// within d.
func watchdog(d time.Duration, expire func()) (stop func()) {
	t := time.AfterFunc(d, expire)
	return func() { t.Stop() }
}

// removeRunDirs deletes every per-run data directory under dir.
func removeRunDirs(dir string) {
	matches, _ := filepath.Glob(filepath.Join(dir, "data-*"))
	for _, m := range matches {
		os.RemoveAll(m)
	}
}

// printEnv prints what a reader needs to place the numbers.
func printEnv(w io.Writer, dir string) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "env nproc=%d go=%s commit=%s data_dir=%s data_fs=%s flush=sync-counted-not-issued\n",
		runtime.NumCPU(), runtime.Version(), commit, dir, fsName(dir))
}

// fsName names the filesystem holding dir (or its nearest existing parent).
func fsName(dir string) string {
	var st syscall.Statfs_t
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	for syscall.Statfs(abs, &st) != nil {
		parent := filepath.Dir(abs)
		if parent == abs {
			return "unknown"
		}
		abs = parent
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("%#x", uint32(st.Type))
}

// report prints one run: a line per metric with its unit, the attempted
// and failed counts, and last the JSON object the benchmark's contract
// asks for. It returns whether the run was correct.
func report(stdout, stderr io.Writer, cfg runConfig, res *result) bool {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "run workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d points=%d round_ops=%d rounds=%d inputs=%016x\n",
		res.workload, cfg.seed, cfg.seconds, cfg.trace, res.procs, cfg.def.points, cfg.def.roundOps, res.rounds, res.hash)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]value{}}
	for _, md := range defs {
		v, ok := res.metrics[md.name]
		if !ok {
			continue // the run broke off before measuring it
		}
		fmt.Fprintf(stdout, "metric %s %s %.6g %s\n", res.workload, md.name, v, md.unit)
		out.Metrics[md.name] = value{v, md.unit}
	}
	fmt.Fprintf(stdout, "ops %s attempted=%d failed=%d\n", res.workload, out.Attempted, out.Failed)
	if res.err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", res.workload, res.err)
	}
	line, _ := json.Marshal(out)
	fmt.Fprintf(stdout, "%s\n", line)
	return out.Correct
}

// noiseReport prints, per workload and end-to-end metric, the quartiles of
// the repeated runs and whether their spread fits the metric's bound.
func noiseReport(w io.Writer, defs []*workloadDef, values map[string]map[string][]float64) {
	fmt.Fprintf(w, "noise %-15s %-22s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, def := range defs {
		for _, md := range endToEnd {
			v := values[def.name][md.name]
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			sp := spread(v)
			verdict := "ok"
			switch {
			case md.name == "setup_s":
				verdict = "-" // its spread is reported, not judged
			case sp > md.bound:
				verdict = "WIDE: does not fit the bound on this host"
			case sp > md.bound/3:
				verdict = "ok (above a third of the bound)"
			}
			fmt.Fprintf(w, "noise %-15s %-22s %12.6g %12.6g %12.6g %7.2f%% %5.0f%% %s\n",
				def.name, md.name, q1, q2, q3, 100*sp, 100*md.bound, verdict)
		}
	}
}
