package bvtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strings"
	"testing"

	"bvtree/internal/page"
	"bvtree/internal/storage"
	"bvtree/internal/wal"
	"bvtree/internal/workload"
)

// pageCRC is the page envelope's checksum table (CRC-32C).
var pageCRC = crc32.MakeTable(crc32.Castagnoli)

// earlierFormat rewrites a page image of format 3 as format ver (1 or 2)
// wrote it, signed so that its checksum holds. Format 2 had format 3's
// bodies, its data pages' items in insertion order; format 1 stored a
// data page's items row-major, each item's coordinates and then its
// payload. Index and meta bodies did not change between the formats.
func earlierFormat(t *testing.T, blob []byte, ver byte) []byte {
	t.Helper()
	old := bytes.Clone(blob)
	old[3] = ver
	if k, err := page.DecodeKind(blob); err != nil {
		t.Fatal(err)
	} else if k == page.KindData && ver == 1 {
		p, _, err := page.DecodeDataCols(blob, nil)
		if err != nil {
			t.Fatal(err)
		}
		body := old[:4+4+4+8*len(p.Region.Words())+4] // envelope, dims, region, count
		for _, it := range p.ReadItems() {
			for _, v := range it.Point {
				body = binary.LittleEndian.AppendUint64(body, v)
			}
			body = binary.LittleEndian.AppendUint64(body, it.Payload)
		}
		if len(body) != len(blob)-4 {
			t.Fatalf("row-major page of %d items is %d bytes, want %d", p.Len(), len(body), len(blob)-4)
		}
	}
	binary.LittleEndian.PutUint32(old[len(old)-4:], crc32.Checksum(old[:len(old)-4], pageCRC))
	return old
}

// storedPages returns the IDs of the meta page and of every page of the
// tree it records, read from st.
func storedPages(t *testing.T, st storage.Store) []page.ID {
	t.Helper()
	blob, err := st.ReadNode(metaPageID)
	if err != nil {
		t.Fatal(err)
	}
	m, err := page.DecodeMeta(blob)
	if err != nil {
		t.Fatal(err)
	}
	ids := []page.ID{metaPageID, m.Root}
	if m.RootLevel == 0 {
		return ids
	}
	for todo := []page.ID{m.Root}; len(todo) > 0; {
		blob, err := st.ReadNode(todo[len(todo)-1])
		todo = todo[:len(todo)-1]
		if err != nil {
			t.Fatal(err)
		}
		n, err := page.DecodeIndex(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range n.ReadEntries() {
			ids = append(ids, e.Child)
			if e.Level > 0 {
				todo = append(todo, e.Child)
			}
		}
	}
	return ids
}

// refusesFormat fails unless err is page.ErrCorrupt naming format
// version ver.
func refusesFormat(t *testing.T, what string, ver byte, err error) {
	t.Helper()
	if name := fmt.Sprintf("format version %d", ver); !errors.Is(err, page.ErrCorrupt) || !strings.Contains(err.Error(), name) {
		t.Fatalf("%s of format %d: %v, want page.ErrCorrupt naming %s", what, ver, err, name)
	}
}

// TestEarlierPageFormatIsRefused: page format 3 stores a data page's
// items column-major in first-coordinate order, and nothing decodes
// format 1, whose row-major body has the same length and would read as
// other points, or format 2, whose items stand in insertion order. Each
// kind of page in either format, re-signed so that its checksum holds,
// is refused with page.ErrCorrupt naming the version; a store written in
// either is refused at Open, which leaves the store and its log as they
// were; and a backup stream of version 3 or 4, whose frames hold pages
// of format 1 or 2, is refused by its header before any page is written.
func TestEarlierPageFormatIsRefused(t *testing.T) {
	pts, err := workload.Generate(workload.Clustered, 2, 320, 48)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, walPath := filepath.Join(dir, "t.db"), filepath.Join(dir, "t.wal")
	st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(st, l, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts[:300] {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var backup bytes.Buffer
	if _, err := tr.SnapshotBackup(&backup); err != nil {
		t.Fatal(err)
	}
	for i, p := range pts[300:] { // in the log alone
		if err := tr.Insert(p, uint64(300+i)); err != nil {
			t.Fatal(err)
		}
	}

	// Every page of the store, one by one, in formats 1 and 2.
	ids := storedPages(t, st)
	blobs := make(map[page.ID][]byte, len(ids))
	kinds := map[page.Kind]int{}
	for _, id := range ids {
		blob, err := st.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		blobs[id] = bytes.Clone(blob)
		k, err := page.DecodeKind(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, ver := range []byte{1, 2} {
			old := earlierFormat(t, blob, ver)
			switch k {
			case page.KindData:
				_, _, err := page.DecodeDataCols(old, nil)
				refusesFormat(t, "DecodeDataCols", ver, err)
				_, _, err = page.DecodeData(old)
				refusesFormat(t, "DecodeData", ver, err)
				_, _, err = page.AppendDataItems(old, nil, nil)
				refusesFormat(t, "AppendDataItems", ver, err)
			case page.KindIndex:
				_, err := page.DecodeIndexCols(old, 2)
				refusesFormat(t, "DecodeIndexCols", ver, err)
				_, err = page.DecodeIndex(old)
				refusesFormat(t, "DecodeIndex", ver, err)
			case page.KindMeta:
				_, err := page.DecodeMeta(old)
				refusesFormat(t, "DecodeMeta", ver, err)
			default:
				t.Fatalf("page %d is of kind %d", id, k)
			}
		}
		kinds[k]++
	}
	if kinds[page.KindData] == 0 || kinds[page.KindIndex] == 0 || kinds[page.KindMeta] != 1 {
		t.Fatalf("the tree's pages by kind: %v; want data pages, index nodes and one meta record", kinds)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The whole store in format 1, then in format 2, beside a log holding
	// 20 inserts past its checkpoint: Open refuses it at its meta record
	// and writes neither the store nor the log.
	for _, ver := range []byte{1, 2} {
		st, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if err := st.WriteNode(id, earlierFormat(t, blobs[id], ver)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		storeBefore, logBefore := readFile(t, path), readFile(t, walPath)
		if len(logBefore) == 0 {
			t.Fatal("the log holds no records")
		}
		re, err := storage.OpenFileStore(path, storage.FileStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rl, err := wal.Open(walPath)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Open(re, rl, Options{})
		refusesFormat(t, "Open of a store", ver, err)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		if err := rl.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFile(t, path), storeBefore) || !bytes.Equal(readFile(t, walPath), logBefore) {
			t.Fatalf("a refused Open of a format-%d store changed the store or the log", ver)
		}
	}

	// The backup as versions 3 and 4 wrote it: that header version,
	// frames of format-1 or format-2 pages, every checksum holding.
	b := backup.Bytes()
	for _, old := range []struct {
		stream uint32
		pages  byte
	}{{3, 1}, {4, 2}} {
		s := bytes.Clone(b[:backupHeaderSize])
		binary.LittleEndian.PutUint32(s[4:], old.stream)
		binary.LittleEndian.PutUint32(s[backupHeaderSize-4:], crc32.Checksum(s[:backupHeaderSize-4], backupCRCTable))
		frames := 0
		for off := backupHeaderSize; off < len(b)-backupTrailerSize; frames++ {
			n := int(binary.LittleEndian.Uint32(b[off:]))
			s = binary.LittleEndian.AppendUint32(s, uint32(n))
			s = append(s, earlierFormat(t, b[off+4:off+4+n], old.pages)...)
			off += 4 + n
		}
		s = binary.LittleEndian.AppendUint32(s, trailerMagic)
		s = binary.LittleEndian.AppendUint32(s, crc32.Checksum(s, backupCRCTable))
		if len(s) != len(b) || frames != len(ids)-1 {
			t.Fatalf("version-%d stream: %d bytes and %d frames, want %d and %d", old.stream, len(s), frames, len(b), len(ids)-1)
		}
		ms := storage.NewMemStore()
		_, err = RestoreSnapshot(ms, bytes.NewReader(s))
		if name := fmt.Sprintf("backup version %d", old.stream); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), name) {
			t.Fatalf("version-%d backup: %v, want ErrCorrupt naming %s", old.stream, err, name)
		}
		if st := ms.Stats(); st.Allocs != 0 || st.NodeWrites != 0 {
			t.Fatalf("version-%d backup: refused after %d allocations and %d page writes", old.stream, st.Allocs, st.NodeWrites)
		}
	}
}
