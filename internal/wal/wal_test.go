package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var recs [][]byte
	for i := 0; i < 200; i++ {
		r := make([]byte, 1+rng.Intn(300)) // empty records are rejected by design
		rng.Read(r)
		recs = append(recs, r)
		if _, err := l.Enqueue(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	i := 0
	err = re.Replay(func(rec []byte) error {
		if !bytes.Equal(rec, recs[i]) {
			t.Fatalf("record %d mismatch", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(recs) {
		t.Fatalf("replayed %d of %d", i, len(recs))
	}
	// Appending after replay must extend, not clobber.
	if err := commit(re, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := re.Replay(func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != len(recs)+1 {
		t.Fatalf("after append: %d records", n)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	l, _ := Open(path)
	_ = commit(l, []byte("alpha"), []byte("beta"))
	_ = l.Close()
	// Append a torn header + partial record.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{0xFF, 0x00, 0x00, 0x00, 1, 2, 3})
	f.Close()

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var got []string
	if err := re.Replay(func(r []byte) error { got = append(got, string(r)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("recovered %v", got)
	}
	// The torn tail must be gone: size equals the two intact records.
	want := int64(2*recordHeader + len("alpha") + len("beta"))
	if re.Size() != want {
		t.Fatalf("size %d, want %d", re.Size(), want)
	}
}

func TestCorruptMiddleIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.wal")
	l, _ := Open(path)
	_ = commit(l, []byte("first"), []byte("second"))
	_ = l.Close()
	// Flip a byte inside the first record's body. The second record is
	// intact and was acknowledged, so replay must refuse to silently
	// truncate — this is mid-log corruption, not a torn tail.
	data, _ := os.ReadFile(path)
	data[preambleSize+recordHeader] ^= 0x80
	_ = os.WriteFile(path, data, 0o644)

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	err = re.Replay(func([]byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption replayed with err=%v, want ErrCorrupt", err)
	}
}

func TestCorruptPreambleIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "preamble.wal")
	l, _ := Open(path)
	_ = commit(l, []byte("only"))
	_ = l.Close()
	data, _ := os.ReadFile(path)
	data[4] ^= 0x01 // base LSN field
	_ = os.WriteFile(path, data, 0o644)

	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged preamble in front of an intact record opened with err=%v, want ErrCorrupt", err)
	}
}

func TestBaseLSNRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.wal")
	l, _ := Open(path)
	if l.BaseLSN() != 0 {
		t.Fatalf("fresh log base LSN %d", l.BaseLSN())
	}
	if err := l.ResetAt(7); err != nil {
		t.Fatal(err)
	}
	_ = commit(l, []byte("rec"))
	_ = l.Close()
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.BaseLSN() != 7 {
		t.Fatalf("reopened base LSN %d, want 7", re.BaseLSN())
	}
	n := 0
	if err := re.Replay(func([]byte) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("replay n=%d err=%v", n, err)
	}
}

// TestEarlierLayoutIsRefused: a log in the earlier 24-byte layout (magic
// "WALF", checkpoint epoch, base LSN, CRC) holding a record is refused
// with ErrCorrupt, not read as records under the current preamble.
func TestEarlierLayoutIsRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.wal")
	hdr := binary.LittleEndian.AppendUint32(nil, 0x464C4157)
	hdr = binary.LittleEndian.AppendUint64(hdr, 2)  // epoch
	hdr = binary.LittleEndian.AppendUint64(hdr, 40) // base LSN
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, crcTable))
	rec := []byte("an insert")
	img := binary.LittleEndian.AppendUint32(hdr, uint32(len(rec)))
	img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(rec, crcTable))
	img = append(img, rec...)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := Open(path); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			l.Close()
		}
		t.Fatalf("earlier-layout log opened with err=%v, want ErrCorrupt", err)
	}
}

func TestReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reset.wal")
	l, _ := Open(path)
	_ = commit(l, []byte("x"))
	if err := l.ResetAt(0); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatal("size after reset")
	}
	n := 0
	_ = l.Replay(func([]byte) error { n++; return nil })
	if n != 0 {
		t.Fatal("records after reset")
	}
	_ = l.Close()
	if _, err := l.Enqueue([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: err=%v, want ErrClosed", err)
	}
}
