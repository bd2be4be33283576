package main

import (
	"testing"
	"time"

	"bvtree/internal/bvtree"
	"bvtree/internal/obs"
	"bvtree/internal/shard"
	"bvtree/internal/workload"
)

// TestEnginesCheckpointInBackground pins that the durable shards a server
// opens carry a checkpoint trigger: with a threshold of a few KiB, a few
// hundred inserts must make every shard's background checkpointer run,
// and run cleanly, while the engines are still open. Nothing else
// checkpoints while the test runs, so a traced checkpoint is the
// background checkpointer's.
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
	// Each shard's tracer reports its checkpoints: a checkpoint traces
	// itself only once it has succeeded.
	checkpointed := make([]chan struct{}, len(engines))
	for i, e := range engines {
		checkpointed[i] = make(chan struct{}, 1)
		e.(*bvtree.DurableTree).SetTracer(checkpointTracer(checkpointed[i]))
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
	timeout := time.After(10 * time.Second)
	for i, e := range engines {
		d := e.(*bvtree.DurableTree)
		if d.Len() < 100 {
			t.Fatalf("shard %d holds %d of %d uniform points", i, d.Len(), len(pts))
		}
		select {
		case <-checkpointed[i]:
		case <-timeout:
			t.Fatalf("shard %d: no background checkpoint with %d items logged past a 2 KiB trigger", i, d.Len())
		}
		if _, firstErr := d.CheckpointerStats(); firstErr != nil {
			t.Fatalf("shard %d: background checkpoint failed: %v", i, firstErr)
		}
	}
}

// checkpointTracer signals c on every checkpoint a tree traces.
type checkpointTracer chan struct{}

func (c checkpointTracer) Trace(e obs.Event) {
	if e.Layer == obs.LayerWAL && e.Op == obs.OpCheckpoint {
		select {
		case c <- struct{}{}:
		default:
		}
	}
}
