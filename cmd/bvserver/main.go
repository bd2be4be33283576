// Command bvserver serves a sharded BV-tree cluster over the length-
// prefixed binary protocol documented in PROTOCOL.md.
//
// Usage:
//
//	bvserver -data /var/lib/bvserver [-addr :9412] [-dims 2] [-shards 4]
//	bvserver -backend mem -dims 3 -shards 8
//	bvserver -data dir -metrics-addr localhost:6060
//
// The keyspace is partitioned by Morton (Z-order) prefix ranges: at
// first start the server draws a synthetic sample from -plan-dist,
// interleaves it, and picks shard split points at sample quantiles
// rounded to -prefix-bits boundaries (see DESIGN.md §15). The resulting
// plan is persisted to <data>/plan.json and every later start reloads
// it — the plan decides where each point lives, so reopening under a
// different plan would misroute reads. -dims/-shards/-prefix-bits are
// therefore creation-time parameters; on reopen they are checked
// against the persisted plan and a mismatch is a startup error rather
// than silent corruption.
//
// Each shard owns a full durable stack under <data>/shard-NNNN/: a
// file-backed page store (tree.db) and a write-ahead log (tree.wal).
// A start opens each the one way, storage.OpenFileStore, wal.Open and
// bvtree.Open, which create what is absent and recover what is there,
// so the first start and every later one run the same code, and a crash
// during the first start reopens like any other. The plan and each
// shard directory are fsynced before the first request is served.
// -backend mem swaps every shard for
// an in-memory tree (no -data, nothing survives exit) — useful for
// protocol experiments and as a cache-style deployment.
//
// -metrics-addr serves expvar on /debug/vars (keys "bvserver" for wire
// and connection metrics, "shards" for per-shard tree/WAL/store
// snapshots, "cluster" for the plan and aggregate counters) plus the
// standard pprof profiles.
//
// SIGINT/SIGTERM drain cleanly: stop accepting, answer in-flight
// requests, close the WALs (checkpointing each shard) and exit 0.
package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"bvtree/internal/bvtree"
	"bvtree/internal/obs"
	"bvtree/internal/shard"
	"bvtree/internal/storage"
	"bvtree/internal/vfs"
	"bvtree/internal/wal"
	"bvtree/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", ":9412", "listen address")
		dataDir     = flag.String("data", "", "data directory (required for -backend durable)")
		backend     = flag.String("backend", "durable", "shard backend: durable or mem")
		dims        = flag.Int("dims", 2, "dimensionality (creation time; persisted in the plan)")
		shards      = flag.Int("shards", 4, "shard count (creation time; persisted in the plan)")
		prefixBits  = flag.Int("prefix-bits", 0, "Z-prefix granularity for split points (0 = default)")
		planDist    = flag.String("plan-dist", "clustered", "distribution sampled for split-point selection")
		planSample  = flag.Int("plan-sample", 4096, "sample size for split-point selection")
		seed        = flag.Uint64("seed", 1, "sampling seed for split-point selection")
		metricsAddr = flag.String("metrics-addr", "", "serve expvar+pprof on this address (\"\" = off)")
	)
	flag.Parse()
	if err := run(*addr, *dataDir, *backend, *dims, *shards, *prefixBits,
		*planDist, *planSample, *seed, *metricsAddr); err != nil {
		fmt.Fprintf(os.Stderr, "bvserver: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, dataDir, backend string, dims, shards, prefixBits int,
	planDist string, planSample int, seed uint64, metricsAddr string) error {
	if backend != "durable" && backend != "mem" {
		return fmt.Errorf("unknown -backend %q (want durable or mem)", backend)
	}
	if backend == "durable" && dataDir == "" {
		return errors.New("-backend durable requires -data")
	}

	plan, fresh, err := loadOrCreatePlan(vfs.OS{}, dataDir, backend, dims, shards, prefixBits,
		planDist, planSample, seed)
	if err != nil {
		return err
	}
	if fresh {
		fmt.Printf("bvserver: new plan: %d shards over %d-d Z-order, %d prefix bits\n",
			plan.Shards(), plan.Dims, plan.PrefixBits)
	} else {
		fmt.Printf("bvserver: reloaded plan from %s: %d shards, %d dims\n",
			planPath(dataDir), plan.Shards(), plan.Dims)
	}

	engines, closeEngines, err := openEngines(vfs.OS{}, dataDir, backend, plan, checkpointLogBytes)
	if err != nil {
		return err
	}
	defer closeEngines()

	router, err := shard.NewRouter(plan, engines)
	if err != nil {
		return err
	}
	if !fresh {
		for i, n := range router.ShardLens() {
			fmt.Printf("bvserver: shard %04d recovered %d items\n", i, n)
		}
	}

	srv := shard.NewServer(router, shard.ServerConfig{})
	if metricsAddr != "" {
		publishMetrics(srv, router)
		go func() {
			fmt.Printf("bvserver: metrics on http://%s/debug/vars\n", metricsAddr)
			if err := http.ListenAndServe(metricsAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "bvserver: metrics server: %v\n", err)
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(addr) }()
	fmt.Printf("bvserver: serving %s backend on %s (%d shards)\n", backend, addr, plan.Shards())

	select {
	case sig := <-sigc:
		fmt.Printf("bvserver: %v: draining...\n", sig)
		if err := srv.Close(); err != nil {
			return err
		}
		<-done // ListenAndServe returns once the listener closes
		return nil
	case err := <-done:
		return err
	}
}

func planPath(dataDir string) string { return filepath.Join(dataDir, "plan.json") }

// loadOrCreatePlan returns the cluster's shard plan. Durable clusters
// persist it through fs: the first start samples and writes plan.json,
// every later start reloads it and cross-checks the creation-time flags.
// Mem clusters get a fresh plan per process.
func loadOrCreatePlan(fs vfs.FS, dataDir, backend string, dims, shards, prefixBits int,
	planDist string, planSample int, seed uint64) (shard.Plan, bool, error) {
	if backend == "durable" {
		blob, err := os.ReadFile(planPath(dataDir))
		switch {
		case err == nil:
			var plan shard.Plan
			if err := json.Unmarshal(blob, &plan); err != nil {
				return shard.Plan{}, false, fmt.Errorf("parse %s: %w", planPath(dataDir), err)
			}
			if plan.Dims != dims || plan.Shards() != shards {
				return shard.Plan{}, false, fmt.Errorf(
					"%s says %d shards over %d dims, flags say %d/%d: the plan is fixed at creation; remove the data directory to re-shard",
					planPath(dataDir), plan.Shards(), plan.Dims, shards, dims)
			}
			return plan, false, nil
		case !errors.Is(err, os.ErrNotExist):
			return shard.Plan{}, false, err
		}
	}

	sample, err := workload.Generate(workload.Kind(planDist), dims, planSample, seed)
	if err != nil {
		return shard.Plan{}, false, err
	}
	plan, err := shard.PlanShards(sample, dims, shards, prefixBits)
	if err != nil {
		return shard.Plan{}, false, err
	}

	if backend == "durable" {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return shard.Plan{}, false, err
		}
		blob, err := json.MarshalIndent(plan, "", "  ")
		if err != nil {
			return shard.Plan{}, false, err
		}
		// Write, fsync, rename, fsync the directory: a crash at any point
		// leaves either no plan, and the next start samples the same one
		// again, or the whole plan, never a torn one that silently
		// misroutes the next start.
		tmp := planPath(dataDir) + ".tmp"
		if err := writeSynced(fs, tmp, append(blob, '\n')); err != nil {
			return shard.Plan{}, false, err
		}
		if err := os.Rename(tmp, planPath(dataDir)); err != nil {
			return shard.Plan{}, false, err
		}
		if err := syncDir(fs, dataDir); err != nil {
			return shard.Plan{}, false, err
		}
	}
	return plan, true, nil
}

// checkpointLogBytes is the WAL size at which a durable shard
// checkpoints: without a trigger a shard's log — and with it the replay
// a restart must do — grows for as long as the server runs.
const checkpointLogBytes = 64 << 20

// writeSynced writes blob to the file at path, replacing what it held,
// and fsyncs it.
func writeSynced(fs vfs.FS, path string, blob []byte) error {
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(blob); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs the directory dir, so that the entries made in it
// survive a power loss.
func syncDir(fs vfs.FS, dir string) error {
	d, err := fs.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("fsync %s: %w", dir, err)
	}
	return nil
}

// openEngines builds one engine per shard range. Durable shards live in
// <data>/shard-NNNN/ with their own store and WAL, opened through fs:
// each is opened the one way, which starts a shard on first start
// (or after a crash during it) and recovers it (checkpoint load + WAL
// replay) afterwards. Each shard directory, and then the data
// directory, is fsynced once the shard's files exist. A shard
// checkpoints once its log holds logBytes.
func openEngines(fs vfs.FS, dataDir, backend string, plan shard.Plan, logBytes int64) ([]shard.Engine, func(), error) {
	engines := make([]shard.Engine, plan.Shards())
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	opt := bvtree.Options{Dims: plan.Dims}
	for i := range engines {
		if backend == "mem" {
			tr, err := bvtree.New(opt)
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			tr.EnableMetrics()
			engines[i] = tr
			continue
		}
		dir := filepath.Join(dataDir, fmt.Sprintf("shard-%04d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			closeAll()
			return nil, nil, err
		}
		dbPath := filepath.Join(dir, "tree.db")
		walPath := filepath.Join(dir, "tree.wal")

		var (
			tr *bvtree.Tree
			l  *wal.Log
		)
		st, err := storage.OpenFileStore(dbPath, storage.FileStoreOptions{FS: fs})
		if err == nil {
			if l, err = wal.OpenFS(fs, walPath); err == nil {
				tr, err = bvtree.Open(st, l, opt)
			}
		}
		if err != nil {
			if st != nil {
				st.Close()
			}
			closeAll()
			return nil, nil, fmt.Errorf("shard %04d: %w", i, err)
		}
		tr.EnableMetrics()
		tr.AutoCheckpoint(logBytes)
		closers = append(closers, func() { tr.Close(); st.Close() })
		engines[i] = tr
		if err := syncDir(fs, dir); err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("shard %04d: %w", i, err)
		}
	}
	if backend == "durable" {
		if err := syncDir(fs, dataDir); err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	return engines, closeAll, nil
}

// publishMetrics exposes the three observability surfaces on expvar:
// the wire layer, each shard's full tree/WAL/store snapshot, and the
// cluster view (plan + aggregate structural counters + per-shard item
// counts, for spotting routing skew at a glance).
func publishMetrics(srv *shard.Server, router *shard.Router) {
	expvar.Publish("bvserver", expvar.Func(func() any { return srv.Metrics() }))
	expvar.Publish("shards", expvar.Func(func() any {
		out := make([]obs.Snapshot, 0, router.Shards())
		for i := 0; i < router.Shards(); i++ {
			if snap, ok := router.ShardMetrics(i); ok {
				out = append(out, snap)
			}
		}
		return out
	}))
	expvar.Publish("cluster", expvar.Func(func() any {
		return struct {
			Plan      shard.Plan               `json:"plan"`
			Lens      []int                    `json:"shard_lens"`
			Aggregate obs.TreeCountersSnapshot `json:"aggregate_counters"`
		}{router.Plan(), router.ShardLens(), router.AggregateCounters()}
	}))
}
