package main

import (
	"expvar"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"path/filepath"
	"time"

	"bvtree"
	"bvtree/internal/workload"
)

// runDebugServer is the observability playground behind -debug-addr: it
// builds a metrics-enabled durable tree in a temporary directory, drives
// a continuous mixed workload over it, and serves the Go debug endpoints
// on addr:
//
//	/debug/vars        expvar JSON; key "bvtree" is the live Metrics()
//	                   snapshot (tree, WAL and store sections)
//	/debug/pprof/      the standard pprof profiles
//
// It serves for hold, or until the process is killed when hold is 0.
func runDebugServer(addr string, hold time.Duration) error {
	dir, err := os.MkdirTemp("", "bvbench-debug-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := bvtree.OpenFileStore(filepath.Join(dir, "tree.db"), bvtree.FileStoreOptions{})
	if err != nil {
		return err
	}
	defer st.Close()
	l, err := bvtree.OpenWAL(filepath.Join(dir, "tree.wal"))
	if err != nil {
		return err
	}
	d, err := bvtree.Open(st, l, bvtree.Options{Dims: 2})
	if err != nil {
		return err
	}
	defer d.Close()
	d.EnableMetrics()
	d.AutoCheckpoint(4 << 20)

	expvar.Publish("bvtree", expvar.Func(func() any { return d.Metrics() }))
	go driveDemoWorkload(d)

	fmt.Printf("debug server on http://%s/debug/vars (expvar key \"bvtree\") and /debug/pprof/\n", addr)
	errc := make(chan error, 1)
	go func() { errc <- http.ListenAndServe(addr, nil) }()
	if hold == 0 {
		return <-errc
	}
	select {
	case err := <-errc:
		return err
	case <-time.After(hold):
		fmt.Printf("held for %v, shutting down\n", hold)
		return nil
	}
}

// driveDemoWorkload keeps the debug tree busy so the histograms move:
// paced inserts with interleaved lookups, deletes and range queries. It
// runs until the process exits.
func driveDemoWorkload(d *bvtree.Tree) {
	pts, err := workload.Generate(workload.Uniform, 2, 100_000, 1)
	if err != nil {
		return
	}
	rect := bvtree.UniverseRect(2)
	rect.Max[0] /= 16
	rect.Max[1] /= 16
	for i := 0; ; i++ {
		p := pts[i%len(pts)]
		if err := d.Insert(p, uint64(i)); err != nil {
			return
		}
		if _, err := d.Lookup(pts[(i*7)%len(pts)]); err != nil {
			return
		}
		if i%8 == 4 { // keep the tree from growing without bound
			if _, err := d.Delete(pts[(i-4)%len(pts)], uint64(i-4)); err != nil {
				return
			}
		}
		if i%256 == 128 {
			err := d.RangeQuery(rect, func(bvtree.Point, uint64) bool { return true })
			if err != nil {
				return
			}
		}
		if i%64 == 0 {
			time.Sleep(time.Millisecond) // pace: leave headroom for pprof
		}
	}
}
