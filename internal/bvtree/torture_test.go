package bvtree

// Crash-recovery torture harness (the robustness tentpole): a scripted
// insert/delete/checkpoint workload runs over a fault-injecting
// filesystem, a crash or corruption is injected at the Nth file
// operation for N swept across the whole workload, and after each
// injection the tree is reopened with Open and diffed against a
// logical shadow model. Acknowledged operations must survive every
// crash; the single in-flight operation must be atomic (fully present or
// fully absent); injected bit-flips must either be harmless, detected as
// ErrCorrupt, or — only when the flip landed in the WAL's final record,
// which is physically indistinguishable from a torn tail — cost exactly
// that one trailing operation.

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"bvtree/internal/fault"
	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/storage"
	"bvtree/internal/vfs"
	"bvtree/internal/wal"
)

type torOp struct {
	kind    byte // 'i' insert, 'd' delete, 'c' checkpoint
	p       geometry.Point
	payload uint64
}

func (o torOp) String() string {
	switch o.kind {
	case 'i':
		return fmt.Sprintf("insert(%v,%d)", o.p, o.payload)
	case 'd':
		return fmt.Sprintf("delete(%v,%d)", o.p, o.payload)
	default:
		return "checkpoint"
	}
}

// tortureScript builds the fixed workload every sweep point replays:
// inserts with unique payloads, deletes of live items, a checkpoint every
// 45 operations, and a trailing run of operations after the last
// checkpoint so that recovery always has log records to replay.
func tortureScript() []torOp {
	rng := rand.New(rand.NewSource(1234))
	var ops []torOp
	var live []uint64
	pts := make(map[uint64]geometry.Point)
	next := uint64(1)
	for i := 0; i < 240; i++ {
		switch {
		case i > 0 && i%45 == 0:
			ops = append(ops, torOp{kind: 'c'})
		case len(live) > 10 && rng.Intn(4) == 0:
			j := rng.Intn(len(live))
			pl := live[j]
			live = append(live[:j], live[j+1:]...)
			ops = append(ops, torOp{kind: 'd', p: pts[pl], payload: pl})
		default:
			p := clusteredPoint(rng, 2)
			ops = append(ops, torOp{kind: 'i', p: p, payload: next})
			pts[next] = p
			live = append(live, next)
			next++
		}
	}
	return ops
}

// runTortureWorkload replays the script over ffs until the first error
// (the injected crash) or completion. It returns the shadow model of
// acknowledged operations, the last acknowledged tree operation, the
// operation in flight when the crash hit (nil if none), and the count of
// acknowledged operations.
func runTortureWorkload(script []torOp, ffs *fault.FS, dir string) (shadow map[uint64]geometry.Point, last, inflight *torOp, acked int) {
	shadow = make(map[uint64]geometry.Point)
	_, d, err := openDir(dir, ffs, ffs, crashOpts)
	if err != nil {
		return shadow, nil, nil, 0
	}
	for i := range script {
		op := &script[i]
		switch op.kind {
		case 'i':
			err = d.Insert(op.p, op.payload)
		case 'd':
			_, err = d.Delete(op.p, op.payload)
		case 'c':
			err = d.Flush()
		}
		if err != nil {
			return shadow, last, op, acked
		}
		acked++
		switch op.kind {
		case 'i':
			shadow[op.payload] = op.p
			last = op
		case 'd':
			delete(shadow, op.payload)
			last = op
		}
	}
	return shadow, last, nil, acked
}

// checkRecoveredState diffs a recovered tree against the shadow model.
// The in-flight operation (if any) is allowed either effect, but the
// rest of the state must match exactly, and the structural invariants
// must hold.
func checkRecoveredState(d *Tree, shadow map[uint64]geometry.Point, inflight *torOp) error {
	wantLen := len(shadow)
	skip := uint64(0)
	hasSkip := false
	if inflight != nil && inflight.kind != 'c' {
		found, err := contains(d, inflight.p, inflight.payload)
		if err != nil {
			return fmt.Errorf("lookup of in-flight %v: %w", inflight, err)
		}
		switch inflight.kind {
		case 'i':
			if found {
				wantLen++
			}
		case 'd':
			if !found {
				wantLen--
				skip, hasSkip = inflight.payload, true
			}
		}
	}
	if d.Len() != wantLen {
		return fmt.Errorf("recovered Len=%d, want %d (shadow %d, in-flight %v)", d.Len(), wantLen, len(shadow), inflight)
	}
	for pl, p := range shadow {
		if hasSkip && pl == skip {
			continue
		}
		found, err := contains(d, p, pl)
		if err != nil {
			return fmt.Errorf("lookup of payload %d: %w", pl, err)
		}
		if !found {
			return fmt.Errorf("acknowledged operation lost: payload %d at %v missing", pl, p)
		}
	}
	if err := d.Validate(true); err != nil {
		return fmt.Errorf("invariant violation: %w", err)
	}
	// A freshly recovered tree has no pinned readers, so the epoch
	// reclamation ledger must be empty — a leak here means recovery (or
	// the replay's write path) left version-chain state behind.
	if err := d.CheckSnapshots(); err != nil {
		return fmt.Errorf("epoch reclamation invariant: %w", err)
	}
	return nil
}

func isCorruptionError(err error) bool {
	return errors.Is(err, wal.ErrCorrupt) || errors.Is(err, storage.ErrCorrupt) || errors.Is(err, page.ErrCorrupt)
}

// tortureOpTotal sizes the sweep: a dry run with a never-firing plan
// counts the workload's mutating file operations.
func tortureOpTotal(t *testing.T, script []torOp) int {
	t.Helper()
	ffs := fault.NewFS(vfs.OS{}, fault.Plan{})
	_, _, inflight, _ := runTortureWorkload(script, ffs, t.TempDir())
	ffs.CloseAll()
	if inflight != nil {
		t.Fatalf("dry run crashed at %v without fault injection", inflight)
	}
	total := ffs.Ops()
	if total < 200 {
		t.Fatalf("dry run performed only %d file operations", total)
	}
	return total
}

// TestTortureCrashSweep injects a process crash (clean error or torn
// write, filesystem down afterwards) at every stride-th file operation of
// the workload and verifies recovery after each.
func TestTortureCrashSweep(t *testing.T) {
	script := tortureScript()
	total := tortureOpTotal(t, script)
	perMode := 55
	if testing.Short() {
		perMode = 12
	}
	stride := total / perMode
	if stride < 1 {
		stride = 1
	}
	points := 0
	for _, mode := range []fault.Mode{fault.ModeError, fault.ModeTorn} {
		for k := 1; k <= total; k += stride {
			points++
			desc := fmt.Sprintf("mode=%v inject=%d", mode, k)
			dir := t.TempDir()
			ffs := fault.NewFS(vfs.OS{}, fault.Plan{InjectAt: k, Mode: mode, Seed: int64(k)})
			shadow, _, inflight, acked := runTortureWorkload(script, ffs, dir)
			ffs.CloseAll()

			st, d, err := openDir(dir, vfs.OS{}, vfs.OS{}, crashOpts)
			if err != nil {
				// Every crash point reopens, including one that tore the
				// store's header while it was being created.
				t.Fatalf("%s: reopen failed with %d acknowledged operations: %v", desc, acked, err)
			}
			if err := checkRecoveredState(d, shadow, inflight); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			d.Close()
			st.Close()
		}
	}
	if !testing.Short() && points < 100 {
		t.Fatalf("swept only %d crash points, want >= 100", points)
	}
	t.Logf("swept %d crash points over %d file operations", points, total)
}

// TestTortureCorruptionSweep silently flips one bit in every stride-th
// written buffer (the filesystem stays up, the workload completes, the
// state is abandoned un-closed) and verifies that recovery either fully
// succeeds, reports the corruption as ErrCorrupt, or — when the flip
// landed in the WAL file, where damage to the final record is physically
// indistinguishable from a torn tail — loses at most that one trailing
// operation.
func TestTortureCorruptionSweep(t *testing.T) {
	script := tortureScript()
	total := tortureOpTotal(t, script)
	perMode := 50
	if testing.Short() {
		perMode = 10
	}
	stride := total / perMode
	if stride < 1 {
		stride = 1
	}
	// Stride across the whole workload, plus every operation of the tail:
	// flips behind the last checkpoint are absorbed by it, so the
	// interesting detections (mid-log ErrCorrupt, final-record torn tail)
	// cluster in the trailing post-checkpoint operations.
	sweep := make([]int, 0, perMode+30)
	for k := 1; k <= total; k += stride {
		sweep = append(sweep, k)
	}
	tail := total - 30
	if testing.Short() {
		tail = total - 8
	}
	for k := tail; k <= total; k++ {
		if k >= 1 && (k-1)%stride != 0 {
			sweep = append(sweep, k)
		}
	}
	points, detected, masked, torn := 0, 0, 0, 0
	for _, k := range sweep {
		points++
		desc := fmt.Sprintf("mode=flip inject=%d", k)
		dir := t.TempDir()
		ffs := fault.NewFS(vfs.OS{}, fault.Plan{InjectAt: k, Mode: fault.ModeFlip, Seed: int64(k)})
		shadow, last, inflight, acked := runTortureWorkload(script, ffs, dir)
		if inflight != nil {
			t.Fatalf("%s: flip mode crashed the workload at %v", desc, inflight)
		}
		walFlip := ffs.InjectedPath() == filepath.Join(dir, "t.wal")
		ffs.CloseAll()

		st, d, err := openDir(dir, vfs.OS{}, vfs.OS{}, crashOpts)
		if err != nil {
			if st != nil {
				st.Close()
			}
			if !isCorruptionError(err) {
				t.Fatalf("%s: reopen failed with non-corruption error (acked=%d): %v", desc, acked, err)
			}
			detected++
			continue
		}
		err = checkRecoveredState(d, shadow, nil)
		switch {
		case err == nil:
			masked++
		case isCorruptionError(err):
			// The flip survived to a page read during verification.
			detected++
		case walFlip && last != nil:
			// A flip in the WAL's final record truncates as a torn tail,
			// undoing exactly the last acknowledged operation. Re-verify
			// against the shadow with that operation undone.
			undone := make(map[uint64]geometry.Point, len(shadow))
			for pl, p := range shadow {
				undone[pl] = p
			}
			if last.kind == 'i' {
				delete(undone, last.payload)
			} else {
				undone[last.payload] = last.p
			}
			if err2 := checkRecoveredState(d, undone, nil); err2 != nil {
				t.Fatalf("%s: wal flip lost more than the final record: exact diff %v; undo-last diff %v", desc, err, err2)
			}
			torn++
		default:
			t.Fatalf("%s: silent corruption: %v", desc, err)
		}
		d.Close()
		st.Close()
	}
	t.Logf("swept %d corruption points: %d masked, %d detected, %d torn-tail", points, masked, detected, torn)
}
