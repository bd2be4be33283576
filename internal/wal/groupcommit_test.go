package wal

// Group-commit suite: Enqueue, Wait and Drain. The TestGroupCommit* name
// prefix is load-bearing: `make verify` runs this subset under the race
// detector alongside the TestConcurrent* smoke tests.

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"bvtree/internal/fault"
	"bvtree/internal/vfs"
)

func openTestLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "gc.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l, path
}

// replayAll reopens path and returns every intact record in order.
func replayAll(t *testing.T, path string) [][]byte {
	t.Helper()
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var out [][]byte
	err = l.Replay(func(rec []byte) error {
		out = append(out, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// commit enqueues recs and waits until they are durable.
func commit(l *Log, recs ...[]byte) error {
	seq, err := l.Enqueue(recs...)
	if err != nil {
		return err
	}
	return l.Wait(seq)
}

func TestGroupCommitEnqueueRoundTrip(t *testing.T) {
	l, path := openTestLog(t)
	var want [][]byte
	for i := 0; i < 5; i++ {
		want = append(want, []byte(fmt.Sprintf("batch-rec-%d", i)))
	}
	if err := commit(l, want...); err != nil {
		t.Fatal(err)
	}
	// A second flush reuses the pending buffer.
	if err := commit(l, []byte("tail-a"), []byte("tail-b")); err != nil {
		t.Fatal(err)
	}
	want = append(want, []byte("tail-a"), []byte("tail-b"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch: %q != %q", i, got[i], want[i])
		}
	}
}

func TestGroupCommitEnqueueEmptyAndInvalid(t *testing.T) {
	l, _ := openTestLog(t)
	defer l.Close()
	if err := l.Drain(); err != nil {
		t.Fatalf("draining an empty log should be a no-op: %v", err)
	}
	if _, err := l.Enqueue([]byte("ok"), nil); err == nil {
		t.Fatal("enqueue containing an empty record must be rejected")
	}
	if err := l.Drain(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("rejected enqueue must not grow the log (size=%d)", l.Size())
	}
}

// TestEnqueueCopiesRecords scribbles over the caller's buffer between
// Enqueue and Wait: the log owns its copy, so replay returns the bytes
// as they were at Enqueue.
func TestEnqueueCopiesRecords(t *testing.T) {
	l, path := openTestLog(t)
	buf := []byte("original")
	seq, err := l.Enqueue(buf)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXXXXX")
	if err := l.Wait(seq); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 1 || string(got[0]) != "original" {
		t.Fatalf("replayed %q, want [original]", got)
	}
}

// TestGroupCommitConcurrentDurability hammers one log from many
// goroutines and verifies every acknowledged record is replayable, in an
// order consistent with a sequential log, with strictly fewer syncs than
// commits (the amortization group commit exists for).
func TestGroupCommitConcurrentDurability(t *testing.T) {
	l, path := openTestLog(t)
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := []byte(fmt.Sprintf("w%02d-%03d", w, i))
				if err := commit(l, rec); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	commits, syncs := l.Stats()
	if want := uint64(writers * perWriter); commits != want {
		t.Fatalf("commits=%d, want %d", commits, want)
	}
	if syncs == 0 || syncs > commits {
		t.Fatalf("syncs=%d out of range (commits=%d)", syncs, commits)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs := replayAll(t, path)
	if len(recs) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*perWriter)
	}
	// Per-writer order must be preserved (each writer commits sequentially,
	// and the log promises log order == enqueue order).
	next := make([]int, writers)
	for _, rec := range recs {
		var w, i int
		if _, err := fmt.Sscanf(string(rec), "w%02d-%03d", &w, &i); err != nil {
			t.Fatalf("unparseable record %q: %v", rec, err)
		}
		if i != next[w] {
			t.Fatalf("writer %d records out of order: got %d, want %d", w, i, next[w])
		}
		next[w]++
	}
}

// TestGroupCommitAmortizesSyncs enqueues every record before any Wait, so
// the first waiter's flush writes all of them: one sync for all.
func TestGroupCommitAmortizesSyncs(t *testing.T) {
	l, _ := openTestLog(t)
	defer l.Close()
	const n = 16
	seqs := make([]uint64, n)
	for i := range seqs {
		seq, err := l.Enqueue([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = seq
	}
	var wg sync.WaitGroup
	for _, seq := range seqs {
		wg.Add(1)
		go func(seq uint64) {
			defer wg.Done()
			if err := l.Wait(seq); err != nil {
				t.Error(err)
			}
		}(seq)
	}
	wg.Wait()
	if err := l.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, syncs := l.Stats(); syncs != 1 {
		t.Fatalf("all %d records enqueued before any Wait should share one sync, got %d", n, syncs)
	}
}

// TestGroupCommitEnqueueBatchContiguous verifies the records of one Enqueue land
// adjacently even with competing enqueuers interleaving.
func TestGroupCommitEnqueueBatchContiguous(t *testing.T) {
	l, path := openTestLog(t)
	const batches, per = 20, 5
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			recs := make([][]byte, per)
			for i := range recs {
				recs[i] = []byte(fmt.Sprintf("b%02d-%d", b, i))
			}
			if err := commit(l, recs...); err != nil {
				t.Error(err)
			}
		}(b)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs := replayAll(t, path)
	if len(recs) != batches*per {
		t.Fatalf("replayed %d, want %d", len(recs), batches*per)
	}
	for at := 0; at < len(recs); at += per {
		var b, i int
		if _, err := fmt.Sscanf(string(recs[at]), "b%02d-%d", &b, &i); err != nil || i != 0 {
			t.Fatalf("offset %d: batch must start at member 0, got %q", at, recs[at])
		}
		for j := 1; j < per; j++ {
			want := fmt.Sprintf("b%02d-%d", b, j)
			if string(recs[at+j]) != want {
				t.Fatalf("batch %d torn apart in log: offset %d is %q, want %q", b, at+j, recs[at+j], want)
			}
		}
	}
}

// TestGroupCommitStickyFailure injects one I/O fault and verifies the
// failing flush reports it, every later operation reports it, and Drain
// and Close surface it.
func TestGroupCommitStickyFailure(t *testing.T) {
	dir := t.TempDir()
	ffs := fault.NewFS(vfs.OS{}, fault.Plan{InjectAt: -1})
	l, err := OpenFS(ffs, filepath.Join(dir, "gc.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := commit(l, []byte("pre-fault")); err != nil {
		t.Fatal(err)
	}
	// Arm the very next mutating op (the flush's write) to fail.
	ffs.SetPlan(fault.Plan{InjectAt: ffs.Ops() + 1, Mode: fault.ModeError})
	if err := commit(l, []byte("doomed")); err == nil {
		t.Fatal("commit through a failing write must report the failure")
	}
	if _, err := l.Enqueue([]byte("after")); err == nil {
		t.Fatal("enqueue after a flush failure must be rejected")
	}
	if err := l.Drain(); err == nil {
		t.Fatal("drain must surface the sticky failure")
	}
	if err := l.Close(); err == nil {
		t.Fatal("close must surface the sticky failure")
	}
}

// TestGroupCommitDrainThenReset exercises the checkpoint handshake: drain
// the log, ResetAt underneath it, and keep committing.
func TestGroupCommitDrainThenReset(t *testing.T) {
	l, path := openTestLog(t)
	for i := 0; i < 5; i++ {
		if err := commit(l, []byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := l.ResetAt(5); err != nil {
		t.Fatal(err)
	}
	if err := commit(l, []byte("after-reset")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs := replayAll(t, path)
	if len(recs) != 1 || string(recs[0]) != "after-reset" {
		t.Fatalf("post-reset log should hold exactly the new record, got %d records", len(recs))
	}
}

// TestGroupCommitClosedRejects verifies enqueue after Close fails with
// ErrClosed, and that Close wrote what was still pending.
func TestGroupCommitClosedRejects(t *testing.T) {
	l, path := openTestLog(t)
	seq, err := l.Enqueue([]byte("pending"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Wait(seq); err != nil {
		t.Fatalf("a record enqueued before Close is durable after it: %v", err)
	}
	if _, err := l.Enqueue([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: err=%v, want ErrClosed", err)
	}
	if recs := replayAll(t, path); len(recs) != 1 || string(recs[0]) != "pending" {
		t.Fatalf("replayed %q, want [pending]", recs)
	}
}
