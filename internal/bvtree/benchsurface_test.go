package bvtree

import (
	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/wal"
)

// The benchmark/ module, which `go test ./...` at the root skips, uses
// these identifiers of this package. Naming each here, with its
// signature, makes a change that deletes or reshapes one fail the root
// build, not only `make verify`.
var (
	_ func(storage.Store, Options) (*Tree, error)                  = NewPaged
	_ func(storage.Store, int) (*Tree, error)                      = OpenPaged
	_ func(storage.Store, *wal.Log, Options) (*DurableTree, error) = NewDurableLog
	_ func(storage.Store, *wal.Log, int) (*DurableTree, error)     = OpenDurableLog
	_ *Tree                                                        = DurableTree{}.Tree
	_ func(*DurableTree, []geometry.Point, []uint64) error         = (*DurableTree).InsertBatch
	_ func(*DurableTree) error                                     = (*DurableTree).Checkpoint
	_ func(*DurableTree) (commits, syncs uint64)                   = (*DurableTree).GroupStats
	_ func(*DurableTree) error                                     = (*DurableTree).Close
	_                                                              = Options{RangeWorkers: 1}
)
