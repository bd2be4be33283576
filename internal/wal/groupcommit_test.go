package wal

// Group-commit suite. The TestGroupCommit* name prefix is load-bearing:
// `make verify` runs this subset under the race detector alongside the
// TestConcurrent* smoke tests.

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

// commit enqueues rec and waits until it is durable.
func commit(g *GroupCommitter, rec []byte) error {
	tk, err := g.Enqueue(rec)
	if err != nil {
		return err
	}
	return g.Wait(tk)
}

func TestGroupCommitAppendBatchRoundTrip(t *testing.T) {
	l, path := openTestLog(t)
	var want [][]byte
	for i := 0; i < 5; i++ {
		want = append(want, []byte(fmt.Sprintf("batch-rec-%d", i)))
	}
	if err := l.AppendBatch(want); err != nil {
		t.Fatal(err)
	}
	// A second batch reuses the framing scratch.
	if err := l.AppendBatch([][]byte{[]byte("tail-a"), []byte("tail-b")}); err != nil {
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

func TestGroupCommitAppendBatchEmptyAndInvalid(t *testing.T) {
	l, _ := openTestLog(t)
	defer l.Close()
	if err := l.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch should be a no-op sync: %v", err)
	}
	if err := l.AppendBatch([][]byte{[]byte("ok"), nil}); err == nil {
		t.Fatal("batch containing an empty record must be rejected")
	}
	if l.Size() != 0 {
		t.Fatalf("rejected batch must not grow the log (size=%d)", l.Size())
	}
}

// TestGroupCommitConcurrentDurability hammers one committer from many
// goroutines and verifies every acknowledged record is replayable, in an
// order consistent with a sequential log, with strictly fewer syncs than
// commits (the amortization group commit exists for).
func TestGroupCommitConcurrentDurability(t *testing.T) {
	l, path := openTestLog(t)
	g := NewGroupCommitter(l)
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := []byte(fmt.Sprintf("w%02d-%03d", w, i))
				if err := commit(g, rec); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := g.Commits(), uint64(writers*perWriter); got != want {
		t.Fatalf("Commits=%d, want %d", got, want)
	}
	if g.Syncs() == 0 || g.Syncs() > g.Commits() {
		t.Fatalf("Syncs=%d out of range (commits=%d)", g.Syncs(), g.Commits())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs := replayAll(t, path)
	if len(recs) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*perWriter)
	}
	// Per-writer order must be preserved (each writer commits sequentially,
	// and the committer promises log order == enqueue order).
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
// all of them are in the batch its leader then writes: one sync for all.
func TestGroupCommitAmortizesSyncs(t *testing.T) {
	l, _ := openTestLog(t)
	defer l.Close()
	g := NewGroupCommitter(l)
	const n = 16
	tickets := make([]*Ticket, n)
	for i := 0; i < n; i++ {
		tk, err := g.Enqueue([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	var wg sync.WaitGroup
	for _, tk := range tickets {
		wg.Add(1)
		go func(tk *Ticket) {
			defer wg.Done()
			if err := g.Wait(tk); err != nil {
				t.Error(err)
			}
		}(tk)
	}
	wg.Wait()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if g.Syncs() != 1 {
		t.Fatalf("all %d records enqueued before any Wait should share one sync, got %d", n, g.Syncs())
	}
}

// TestGroupCommitEnqueueBatchContiguous verifies the records of one Enqueue land
// adjacently even with a competing committer interleaving.
func TestGroupCommitEnqueueBatchContiguous(t *testing.T) {
	l, path := openTestLog(t)
	g := NewGroupCommitter(l)
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
			tk, err := g.Enqueue(recs...)
			if err != nil {
				t.Error(err)
				return
			}
			if err := g.Wait(tk); err != nil {
				t.Error(err)
			}
		}(b)
	}
	wg.Wait()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
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
// failing batch reports it, every later operation reports it, and Drain
// surfaces it.
func TestGroupCommitStickyFailure(t *testing.T) {
	dir := t.TempDir()
	ffs := fault.NewFS(vfs.OS{}, fault.Plan{InjectAt: -1})
	l, err := OpenFS(ffs, filepath.Join(dir, "gc.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := NewGroupCommitter(l)
	if err := commit(g, []byte("pre-fault")); err != nil {
		t.Fatal(err)
	}
	// Arm the very next mutating op (the batch write) to fail.
	ffs.SetPlan(fault.Plan{InjectAt: ffs.Ops() + 1, Mode: fault.ModeError})
	if err := commit(g, []byte("doomed")); err == nil {
		t.Fatal("commit through a failing write must report the failure")
	}
	if _, err := g.Enqueue([]byte("after")); err == nil {
		t.Fatal("enqueue after a group I/O failure must be rejected")
	}
	if err := g.Drain(); err == nil {
		t.Fatal("drain must surface the sticky failure")
	}
	if err := g.Close(); err == nil {
		t.Fatal("close must surface the sticky failure")
	}
}

// TestGroupCommitDrainThenReset exercises the checkpoint handshake: drain
// the committer, Reset the log underneath it, and keep committing.
func TestGroupCommitDrainThenReset(t *testing.T) {
	l, path := openTestLog(t)
	g := NewGroupCommitter(l)
	for i := 0; i < 5; i++ {
		if err := commit(g, []byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(7); err != nil {
		t.Fatal(err)
	}
	if err := commit(g, []byte("new-epoch")); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs := replayAll(t, path)
	if len(recs) != 1 || string(recs[0]) != "new-epoch" {
		t.Fatalf("post-reset log should hold exactly the new record, got %d records", len(recs))
	}
}

// TestGroupCommitClosedRejects verifies enqueue after Close fails with
// ErrClosed.
func TestGroupCommitClosedRejects(t *testing.T) {
	l, _ := openTestLog(t)
	defer l.Close()
	g := NewGroupCommitter(l)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Enqueue([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: err=%v, want ErrClosed", err)
	}
}
