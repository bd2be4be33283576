package bvtree

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// formatV1 rewrites a page image of format 2 as format 1 wrote it,
// signed so that its checksum holds: the version byte is 1 and a data
// page's items are row-major, each item's coordinates and then its
// payload. Index and meta bodies did not change between the formats.
func formatV1(t *testing.T, blob []byte) []byte {
	t.Helper()
	old := bytes.Clone(blob)
	old[3] = 1
	if k, err := page.DecodeKind(blob); err != nil {
		t.Fatal(err)
	} else if k == page.KindData {
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

// refusesV1 fails unless err is page.ErrCorrupt naming format version 1.
func refusesV1(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, page.ErrCorrupt) || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("%s of format 1: %v, want page.ErrCorrupt naming format version 1", what, err)
	}
}

// TestEarlierPageFormatIsRefused: page format 2 stores a data page's
// items column-major, and nothing decodes format 1, whose row-major body
// has the same length and would read as other points. Each kind of page
// in format 1, re-signed so that its checksum holds, is refused with
// page.ErrCorrupt naming the version; a store written in format 1 is
// refused at Open, which leaves the store and its log as they were; and
// a backup stream of version 3, whose frames hold format-1 pages, is
// refused by its header before any page is written.
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

	// Every page of the store, one by one, in format 1.
	ids := storedPages(t, st)
	kinds := map[page.Kind]int{}
	for _, id := range ids {
		blob, err := st.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		old := formatV1(t, blob)
		k, err := page.DecodeKind(blob)
		if err != nil {
			t.Fatal(err)
		}
		switch k {
		case page.KindData:
			_, _, err := page.DecodeDataCols(old, nil)
			refusesV1(t, "DecodeDataCols", err)
			_, _, err = page.DecodeData(old)
			refusesV1(t, "DecodeData", err)
			_, _, err = page.AppendDataItems(old, nil, nil)
			refusesV1(t, "AppendDataItems", err)
		case page.KindIndex:
			_, err := page.DecodeIndexCols(old, 2)
			refusesV1(t, "DecodeIndexCols", err)
			_, err = page.DecodeIndex(old)
			refusesV1(t, "DecodeIndex", err)
		case page.KindMeta:
			_, err := page.DecodeMeta(old)
			refusesV1(t, "DecodeMeta", err)
		default:
			t.Fatalf("page %d is of kind %d", id, k)
		}
		kinds[k]++
	}
	if kinds[page.KindData] == 0 || kinds[page.KindIndex] == 0 || kinds[page.KindMeta] != 1 {
		t.Fatalf("the tree's pages by kind: %v; want data pages, index nodes and one meta record", kinds)
	}

	// The whole store in format 1, beside a log holding 20 inserts past
	// its checkpoint: Open refuses it at its meta record and writes
	// neither the store nor the log.
	for _, id := range ids {
		blob, err := st.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteNode(id, formatV1(t, blob)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
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
	refusesV1(t, "Open of a store", err)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, path), storeBefore) || !bytes.Equal(readFile(t, walPath), logBefore) {
		t.Fatal("a refused Open changed the store or the log")
	}

	// The backup as version 3 wrote it: header version 3, frames of
	// format-1 pages, every checksum holding.
	b := backup.Bytes()
	v3 := bytes.Clone(b[:backupHeaderSize])
	binary.LittleEndian.PutUint32(v3[4:], 3)
	binary.LittleEndian.PutUint32(v3[backupHeaderSize-4:], crc32.Checksum(v3[:backupHeaderSize-4], backupCRCTable))
	frames := 0
	for off := backupHeaderSize; off < len(b)-backupTrailerSize; frames++ {
		n := int(binary.LittleEndian.Uint32(b[off:]))
		v3 = binary.LittleEndian.AppendUint32(v3, uint32(n))
		v3 = append(v3, formatV1(t, b[off+4:off+4+n])...)
		off += 4 + n
	}
	v3 = binary.LittleEndian.AppendUint32(v3, trailerMagic)
	v3 = binary.LittleEndian.AppendUint32(v3, crc32.Checksum(v3, backupCRCTable))
	if len(v3) != len(b) || frames != len(ids)-1 {
		t.Fatalf("version-3 stream: %d bytes and %d frames, want %d and %d", len(v3), frames, len(b), len(ids)-1)
	}
	ms := storage.NewMemStore()
	_, err = RestoreSnapshot(ms, bytes.NewReader(v3))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "backup version 3") {
		t.Fatalf("version-3 backup: %v, want ErrCorrupt naming backup version 3", err)
	}
	if s := ms.Stats(); s.Allocs != 0 || s.NodeWrites != 0 {
		t.Fatalf("version-3 backup: refused after %d allocations and %d page writes", s.Allocs, s.NodeWrites)
	}
}
