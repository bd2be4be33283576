package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay feeds arbitrary byte images to Open+Replay. Whatever the
// bytes, the log must never panic, and a successful replay must be
// deterministic: replaying the (possibly tail-truncated) log a second
// time yields the identical record sequence.
func FuzzReplay(f *testing.F) {
	// Seed with a valid two-record image and damaged variants of it.
	seedDir := f.TempDir()
	seedPath := filepath.Join(seedDir, "seed.wal")
	l, err := Open(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	_ = l.ResetAt(3, 0)
	_ = commit(l, []byte("first-record"), []byte("second"))
	_ = l.Close()
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[preambleSize+recordHeader+2] ^= 0x10 // mid-log corruption
	f.Add(flipped)
	f.Add(valid[:preambleSize]) // empty log
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err != nil {
			return // rejected images are fine; panics are not
		}
		defer l.Close()
		var first [][]byte
		if err := l.Replay(func(r []byte) error {
			first = append(first, append([]byte(nil), r...))
			return nil
		}); err != nil {
			return
		}
		// Replay may have truncated a torn tail; a second replay of the
		// now-consistent log must reproduce the same records.
		var second [][]byte
		if err := l.Replay(func(r []byte) error {
			second = append(second, append([]byte(nil), r...))
			return nil
		}); err != nil {
			t.Fatalf("second replay errored after clean first replay: %v", err)
		}
		if len(first) != len(second) {
			t.Fatalf("replay not deterministic: %d then %d records", len(first), len(second))
		}
		for i := range first {
			if !bytes.Equal(first[i], second[i]) {
				t.Fatalf("record %d differs between replays", i)
			}
		}
	})
}
