package main

import (
	"fmt"
	"slices"
	"testing"

	"bvtree/internal/bvtree"
	"bvtree/internal/fault"
	"bvtree/internal/geometry"
	"bvtree/internal/shard"
	"bvtree/internal/vfs"
	"bvtree/internal/workload"
)

// TestEnginesCheckpoint pins that the durable shards a server opens
// carry a checkpoint trigger: with a threshold of a few KiB, a few
// hundred inserts must make every shard checkpoint, and checkpoint
// cleanly. The writer that fills a shard's log checkpoints before its
// insert returns, so once the inserts are back every shard's log is
// below the trigger.
func TestEnginesCheckpoint(t *testing.T) {
	const logBytes = 2 << 10
	plan, err := shard.PlanUniform(2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	engines, closeEngines, err := openEngines(vfs.OS{}, t.TempDir(), "durable", plan, logBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEngines()
	router, err := shard.NewRouter(plan, engines)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(workload.Uniform, 2, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := router.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range engines {
		d := e.(*bvtree.Tree)
		if d.Len() < 100 {
			t.Fatalf("shard %d holds %d of %d uniform points", i, d.Len(), len(pts))
		}
		if d.Metrics().WAL.Checkpoints == 0 {
			t.Fatalf("shard %d: no checkpoint with %d items logged past a 2 KiB trigger", i, d.Len())
		}
		if size := d.LogSize(); size >= logBytes {
			t.Fatalf("shard %d: log holds %d bytes after the inserts, trigger %d", i, size, logBytes)
		}
		if err := d.Flush(); err != nil {
			t.Fatalf("shard %d: checkpoint after the inserts: %v", i, err)
		}
	}
}

// firstStart is a server's first start in dir through fs, cut short at
// the first error: the plan, the engines, then an insert of each point
// in turn. It returns how many inserts were acknowledged.
func firstStart(fs vfs.FS, dir string, pts []geometry.Point) int {
	plan, _, err := loadOrCreatePlan(fs, dir, "durable", 2, 2, 0, "uniform", 256, 1)
	if err != nil {
		return 0
	}
	engines, _, err := openEngines(fs, dir, "durable", plan, checkpointLogBytes)
	if err != nil {
		return 0
	}
	router, err := shard.NewRouter(plan, engines)
	if err != nil {
		return 0
	}
	for i, p := range pts {
		if err := router.Insert(p, uint64(i)); err != nil {
			return i
		}
	}
	return len(pts)
}

// TestServerFirstStartCrash crashes a server's first start at every
// mutating file operation (writing the plan, creating each shard's store
// and log, starting its tree, fsyncing the directories, then a few
// inserts), as a clean error and as a torn write, and restarts it over
// the real filesystem. Every restart must open, hold every acknowledged
// insert, and serve a new one.
func TestServerFirstStartCrash(t *testing.T) {
	pts, err := workload.Generate(workload.Uniform, 2, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	dry := fault.NewFS(vfs.OS{}, fault.Plan{})
	if acked := firstStart(dry, t.TempDir(), pts); acked != len(pts) {
		t.Fatalf("dry run acknowledged %d of %d inserts", acked, len(pts))
	}
	dry.CloseAll()
	total := dry.Ops()
	points := 0
	for _, mode := range []fault.Mode{fault.ModeError, fault.ModeTorn} {
		for k := 1; k <= total; k++ {
			points++
			desc := fmt.Sprintf("mode=%v inject=%d", mode, k)
			dir := t.TempDir()
			ffs := fault.NewFS(vfs.OS{}, fault.Plan{InjectAt: k, Mode: mode, Seed: int64(k)})
			acked := firstStart(ffs, dir, pts)
			ffs.CloseAll()
			if !ffs.Injected() {
				t.Fatalf("%s: no fault injected in %d operations", desc, total)
			}

			plan, fresh, err := loadOrCreatePlan(vfs.OS{}, dir, "durable", 2, 2, 0, "uniform", 256, 1)
			if err != nil {
				t.Fatalf("%s: restart: plan: %v", desc, err)
			}
			engines, closeEngines, err := openEngines(vfs.OS{}, dir, "durable", plan, checkpointLogBytes)
			if err != nil {
				t.Fatalf("%s: restart with %d acknowledged inserts: %v", desc, acked, err)
			}
			router, err := shard.NewRouter(plan, engines)
			if err != nil {
				t.Fatal(err)
			}
			if fresh && acked > 0 {
				t.Fatalf("%s: the plan was lost after %d acknowledged inserts", desc, acked)
			}
			for i, p := range pts[:acked] {
				got, err := router.Lookup(p)
				if err != nil || !slices.Contains(got, uint64(i)) {
					t.Fatalf("%s: acknowledged insert %d lost: %v, %v", desc, i, got, err)
				}
			}
			extra := geometry.Point{1 << 40, 1 << 41}
			if err := router.Insert(extra, 99); err != nil {
				t.Fatalf("%s: insert after restart: %v", desc, err)
			}
			if got, err := router.Lookup(extra); err != nil || !slices.Contains(got, 99) {
				t.Fatalf("%s: lookup after restart: %v, %v", desc, got, err)
			}
			closeEngines()
		}
	}
	t.Logf("swept %d first-start crash points over %d file operations", points, total)
}
