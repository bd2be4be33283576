package wal

import (
	"bytes"
	"testing"
)

// FuzzReplay feeds arbitrary byte images to Open+Replay. Whatever the
// bytes, the log must never panic, and a successful replay must be
// deterministic: replaying the (possibly tail-truncated) log a second
// time yields the identical record sequence. Each image is a file of an
// in-memory filesystem (memFS), so an exec touches no disk.
func FuzzReplay(f *testing.F) {
	// Seed with a valid two-record image and damaged variants of it.
	seed := memFS{}
	l, err := OpenFS(seed, "seed.wal")
	if err != nil {
		f.Fatal(err)
	}
	_ = l.ResetAt(3)
	_ = commit(l, []byte("first-record"), []byte("second"))
	_ = l.Close()
	valid := *seed["seed.wal"]
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[preambleSize+recordHeader+2] ^= 0x10 // mid-log corruption
	f.Add(flipped)
	f.Add(valid[:preambleSize]) // empty log
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		image := bytes.Clone(data)
		l, err := OpenFS(memFS{"f.wal": &image}, "f.wal")
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
