package wal

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bvtree/internal/vfs"
)

// memFS is an in-memory vfs.FS with the os semantics the log relies on:
// files by name, O_CREATE and O_TRUNC, one shared image per name behind
// every handle, and a Sync that does nothing. FuzzReplay runs over it,
// so an exec costs no directory, file or fsync.
type memFS map[string]*[]byte

// OpenFile implements vfs.FS.
func (m memFS) OpenFile(name string, flag int, _ os.FileMode) (vfs.File, error) {
	b, ok := m[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		b = new([]byte)
		m[name] = b
	}
	if flag&os.O_TRUNC != 0 {
		*b = (*b)[:0]
	}
	return &memFile{name: name, b: b}, nil
}

// memFile is one handle on a memFS file: the shared image and this
// handle's offset.
type memFile struct {
	name string
	b    *[]byte
	off  int64
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(*f.b)) {
		return 0, io.EOF
	}
	n := copy(p, (*f.b)[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.off)
	f.off += int64(n)
	if err == io.EOF && n > 0 {
		err = nil
	}
	return n, err
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if end := off + int64(len(p)); end > int64(len(*f.b)) {
		*f.b = append(*f.b, make([]byte, end-int64(len(*f.b)))...)
	}
	return copy((*f.b)[off:], p), nil
}

func (f *memFile) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.off)
	f.off += int64(n)
	return n, err
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += int64(len(*f.b))
	}
	if offset < 0 {
		return 0, &fs.PathError{Op: "seek", Path: f.name, Err: fs.ErrInvalid}
	}
	f.off = offset
	return offset, nil
}

func (f *memFile) Truncate(size int64) error {
	if size <= int64(len(*f.b)) {
		*f.b = (*f.b)[:size]
		return nil
	}
	_, err := f.WriteAt(make([]byte, size-int64(len(*f.b))), int64(len(*f.b)))
	return err
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

func (f *memFile) Stat() (os.FileInfo, error) { return memInfo{f.name, int64(len(*f.b))}, nil }

// memInfo is the os.FileInfo of a memFile: a name and a size.
type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() os.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }

// TestMemFSMatchesOS: the same log program — a reset, a commit, a
// replay that truncates a torn tail, another commit — leaves the same
// bytes in a memFS file as in a real one, so FuzzReplay over memFS sees
// the images it would see on disk.
func TestMemFSMatchesOS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "os.wal")
	mem := memFS{}
	for _, run := range []struct {
		fs   vfs.FS
		path string
	}{{vfs.OS{}, path}, {mem, "mem.wal"}} {
		l, err := OpenFS(run.fs, run.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.ResetAt(7); err != nil {
			t.Fatal(err)
		}
		if err := commit(l, []byte("first-record"), []byte("second")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := run.fs.OpenFile(run.path, os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(st.Size() - 3); err != nil { // a torn tail
			t.Fatal(err)
		}
		f.Close()
		if l, err = OpenFS(run.fs, run.path); err != nil {
			t.Fatal(err)
		}
		if err := l.Replay(func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := commit(l, []byte("third")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, *mem["mem.wal"]) {
		t.Fatalf("memFS image differs from the file:\n%x\n%x", *mem["mem.wal"], disk)
	}
}
