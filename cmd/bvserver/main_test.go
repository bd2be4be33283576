package main

import (
	"testing"
	"time"

	"bvtree/internal/bvtree"
	"bvtree/internal/shard"
	"bvtree/internal/workload"
)

// TestEnginesCheckpointInBackground pins that the durable shards a server
// opens carry a checkpoint trigger: with a threshold of a few KiB, a few
// hundred inserts must make every shard's background checkpointer run,
// and run cleanly, while the engines are still open.
func TestEnginesCheckpointInBackground(t *testing.T) {
	plan, err := shard.PlanUniform(2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	engines, closeEngines, err := openEngines(t.TempDir(), "durable", plan, 2<<10)
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
	deadline := time.Now().Add(10 * time.Second)
	for i, e := range engines {
		d := e.(*bvtree.DurableTree)
		if d.Len() < 100 {
			t.Fatalf("shard %d holds %d of %d uniform points", i, d.Len(), len(pts))
		}
		for {
			runs, firstErr := d.CheckpointerStats()
			if firstErr != nil {
				t.Fatalf("shard %d: background checkpoint failed: %v", i, firstErr)
			}
			if runs > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d: no background checkpoint with %d items logged past a 2 KiB trigger", i, d.Len())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
