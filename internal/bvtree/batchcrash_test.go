package bvtree

// Crash torture for the batched write path. A batch is logged as N
// framed records written in one buffer and synced once, so the torn-tail
// truncation of recovery must land exactly on a record boundary: a crash
// mid-group-commit recovers to a prefix of the batch at record
// granularity, never a torn record applied. A crash during a checkpoint
// that AutoCheckpoint runs must replay from the prior checkpoint without
// losing any acknowledged operation.

import (
	"errors"
	"fmt"
	"testing"

	"bvtree/internal/fault"
	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/vfs"
)

// batchCrashOps builds an insert batch of 12 distinct points far from the
// clustered baseline, payloads 500..511.
func batchCrashOps() []BatchOp {
	ops := make([]BatchOp, 12)
	for i := range ops {
		ops[i] = BatchOp{
			Point:   geometry.Point{uint64(i+1) << 36, uint64(12-i) << 52},
			Payload: uint64(500 + i),
		}
	}
	return ops
}

// TestBatchCrashPrefixSweep crashes the WAL at the batch append's write
// (error and torn, several tear offsets) and at its sync, and asserts
// that recovery always yields an exact prefix of the batch, in the
// caller's order: error-at-write → empty prefix, error-at-sync → full batch
// (the harness models completed writes as persistent), torn-at-write →
// whatever whole records survived the tear.
func TestBatchCrashPrefixSweep(t *testing.T) {
	type crashCase struct {
		name string
		at   int // offset from walFS.Ops(): 1 = batch write, 2 = batch sync
		mode fault.Mode
		seed int64
	}
	cases := []crashCase{
		{name: "error-at-write", at: 1, mode: fault.ModeError},
		{name: "error-at-sync", at: 2, mode: fault.ModeError},
	}
	for s := int64(1); s <= 8; s++ {
		cases = append(cases, crashCase{
			name: fmt.Sprintf("torn-at-write-seed%d", s), at: 1, mode: fault.ModeTorn, seed: s,
		})
	}

	sawPartial := false
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newMatrixEnv(t)
			ops := batchCrashOps()
			e.walFS.SetPlan(fault.Plan{InjectAt: e.walFS.Ops() + tc.at, Mode: tc.mode, Seed: tc.seed})
			err := e.d.ApplyBatch(ops)
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("ApplyBatch err = %v, want injected", err)
			}
			// ApplyBatch logs ops in the order given, so ops is the log
			// order the prefix must follow.
			d := e.reopen(t) // asserts baseline intact + invariants hold

			prefix := len(ops)
			for i := range ops {
				found, err := contains(d, ops[i].Point, ops[i].Payload)
				if err != nil {
					t.Fatal(err)
				}
				if !found {
					prefix = i
					break
				}
			}
			for i := prefix; i < len(ops); i++ {
				found, err := contains(d, ops[i].Point, ops[i].Payload)
				if err != nil {
					t.Fatal(err)
				}
				if found {
					t.Fatalf("recovered ops are not a prefix: op %d present but op %d absent", i, prefix)
				}
			}
			if d.Len() != len(e.base)+prefix {
				t.Fatalf("Len=%d, want baseline %d + prefix %d", d.Len(), len(e.base), prefix)
			}
			switch {
			case tc.mode == fault.ModeError && tc.at == 1 && prefix != 0:
				t.Fatalf("write never reached the file but %d batch records recovered", prefix)
			case tc.mode == fault.ModeError && tc.at == 2 && prefix != len(ops):
				t.Fatalf("whole batch was written before the failed sync but only %d records recovered", prefix)
			}
			if prefix > 0 && prefix < len(ops) {
				sawPartial = true
			}
			t.Logf("%s: recovered prefix %d of %d", tc.name, prefix, len(ops))
		})
	}
	if !sawPartial {
		t.Fatal("no torn case produced a strictly partial prefix; the sweep is not exercising record-granularity truncation")
	}
}

// TestBatchCrashDuringAutoCheckpoint sweeps a crash across the store
// operations of a workload whose inserts trip a size-triggered checkpoint
// every few records. The fault lands either on a foreground allocation
// (file extension), and the insert fails, or inside the checkpoint that
// an insert runs after its own fsync, and the insert, durable already,
// returns nil: an insert that returns nil while the fault fired during
// it counts as a mid-checkpoint crash. Either way the store is
// poisoned; reopening rolls any interrupted flush back to the prior
// checkpoint and replays the log, so every acknowledged insert must be
// present. The checkpoint runs on the inserting goroutine, so the sweep
// is deterministic: it runs twice and must count the same crashes.
func TestBatchCrashDuringAutoCheckpoint(t *testing.T) {
	const sweep = 80
	first := autoCheckpointCrashSweep(t, sweep)
	if again := autoCheckpointCrashSweep(t, sweep); again != first {
		t.Fatalf("the sweep counted %d mid-checkpoint crashes, then %d", first, again)
	}
	if first < sweep/2 {
		t.Fatalf("only %d of %d sweep points crashed inside a checkpoint", first, sweep)
	}
	t.Logf("swept %d crash points, %d inside a checkpoint", sweep, first)
}

// autoCheckpointCrashSweep runs TestBatchCrashDuringAutoCheckpoint's
// sweep once and returns how many of its points crashed inside a
// checkpoint.
func autoCheckpointCrashSweep(t *testing.T, sweep int) (checkpointCrashes int) {
	for k := 1; k <= sweep; k++ {
		storeFS := fault.NewFS(vfs.OS{}, fault.Plan{})
		dir := t.TempDir()
		_, d, err := openDir(dir, storeFS, vfs.OS{}, crashOpts)
		if err != nil {
			t.Fatal(err)
		}
		// A durable baseline checkpoint, taken before the trigger is set.
		type ack struct {
			p       geometry.Point
			payload uint64
		}
		var acked []ack
		for i := 0; i < 20; i++ {
			p := geometry.Point{uint64(i+1) << 30, uint64(i+1) << 45}
			if err := d.Insert(p, uint64(i)); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, ack{p, uint64(i)})
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		d.AutoCheckpoint(256)
		// Arm the k-th store operation from here. Inserts still reach the
		// store file through eager slot extension, so the fault lands
		// either on one of those truncates or inside a checkpoint.
		storeFS.SetPlan(fault.Plan{InjectAt: storeFS.Ops() + k, Mode: fault.ModeError})
		for i := 0; i < 400 && !storeFS.Injected(); i++ {
			p := geometry.Point{uint64(i+1) << 29, uint64(400-i) << 47}
			err := d.Insert(p, uint64(1000+i))
			if err != nil {
				// The fault struck the insert's own store operations: it
				// is not acknowledged.
				if !errors.Is(err, storage.ErrPoisoned) && !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("k=%d: insert err = %v, want ErrPoisoned or injected", k, err)
				}
				break
			}
			acked = append(acked, ack{p, uint64(1000 + i)})
			if storeFS.Injected() {
				// The only store I/O after the insert's fsync is the
				// checkpoint its commit ran.
				checkpointCrashes++
			}
		}
		if !storeFS.Injected() {
			t.Fatalf("k=%d: fault never fired across %d inserts; the sweep offset is past the workload", k, 400)
		}

		// Crash: abandon the poisoned store (its descriptors close without
		// flushing) and recover from the real filesystem.
		storeFS.CloseAll()
		st2, re, err := openDir(dir, vfs.OS{}, vfs.OS{}, crashOpts)
		if err != nil {
			t.Fatalf("k=%d: reopen: %v", k, err)
		}
		if err := re.Validate(true); err != nil {
			t.Fatalf("k=%d: invariants after recovery: %v", k, err)
		}
		for _, a := range acked {
			found, err := contains(re, a.p, a.payload)
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatalf("k=%d: acknowledged insert payload %d lost across a checkpoint crash", k, a.payload)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatalf("k=%d: close recovered tree: %v", k, err)
		}
		if err := st2.Close(); err != nil {
			t.Fatalf("k=%d: close recovered store: %v", k, err)
		}
	}
	return checkpointCrashes
}
