package storage

import "errors"

// Sentinel errors. Callers classify failures with errors.Is.
var (
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("storage: store is closed")

	// ErrCorrupt is returned when on-disk state fails validation: a bad
	// header checksum, an out-of-range slot chain, a damaged free list.
	ErrCorrupt = errors.New("storage: corrupt store")

	// ErrUnallocated is returned by a read of a page that was never
	// allocated — on a fresh store, every page — and by MemStore for a
	// freed one too. It is how a reader tells an empty store from a
	// damaged one.
	ErrUnallocated = errors.New("storage: page never allocated")

	// ErrPoisoned is returned by every operation after a write has failed.
	// A failed write leaves the write set and the file in an unknown
	// relationship, so the store refuses to serve possibly-stale slots or
	// compound the damage; the only way out is to reopen the store, which
	// rolls back to the last durable checkpoint.
	ErrPoisoned = errors.New("storage: store poisoned by earlier write failure")
)
