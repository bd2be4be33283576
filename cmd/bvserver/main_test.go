package main

import (
	"testing"

	"bvtree/internal/bvtree"
	"bvtree/internal/shard"
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
	engines, closeEngines, err := openEngines(t.TempDir(), "durable", plan, logBytes)
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
