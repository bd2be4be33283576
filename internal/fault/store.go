package fault

import (
	"fmt"
	"sync"

	"bvtree/internal/page"
	"bvtree/internal/storage"
)

// Store wraps a storage.Store and injects a sticky failure at the Nth
// logical store operation (Alloc, ReadNode, WriteNode, Free, Sync). Once
// tripped, every subsequent operation fails with ErrInjected — the tree
// above must treat the store as gone, exactly as FileStore's own
// poisoning contract demands. Stats, SlotPayload and Close always pass
// through.
type Store struct {
	inner storage.Store

	mu      sync.Mutex
	n       int
	failAt  int
	tripped bool
}

// NewStore wraps inner, failing the failAt-th operation (1-based);
// failAt == 0 never fails.
func NewStore(inner storage.Store, failAt int) *Store {
	return &Store{inner: inner, failAt: failAt}
}

// Arm makes the k-th operation from now fail; Arm(1) fails the very
// next one.
func (s *Store) Arm(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAt = s.n + k
}

// Ops returns the number of operations observed so far.
func (s *Store) Ops() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Tripped reports whether the injection has fired.
func (s *Store) Tripped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tripped
}

func (s *Store) gate(op string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tripped {
		return fmt.Errorf("storage %s: %w", op, ErrInjected)
	}
	s.n++
	if s.failAt != 0 && s.n == s.failAt {
		s.tripped = true
		return fmt.Errorf("storage %s: %w", op, ErrInjected)
	}
	return nil
}

// Alloc implements storage.Store.
func (s *Store) Alloc() (page.ID, error) {
	if err := s.gate("alloc"); err != nil {
		return 0, err
	}
	return s.inner.Alloc()
}

// ReadNode implements storage.Store.
func (s *Store) ReadNode(id page.ID) ([]byte, error) {
	if err := s.gate("read"); err != nil {
		return nil, err
	}
	return s.inner.ReadNode(id)
}

// WriteNode implements storage.Store.
func (s *Store) WriteNode(id page.ID, blob []byte) error {
	if err := s.gate("write"); err != nil {
		return err
	}
	return s.inner.WriteNode(id, blob)
}

// Free implements storage.Store.
func (s *Store) Free(id page.ID) error {
	if err := s.gate("free"); err != nil {
		return err
	}
	return s.inner.Free(id)
}

// Sync implements storage.Store.
func (s *Store) Sync() error {
	if err := s.gate("sync"); err != nil {
		return err
	}
	return s.inner.Sync()
}

// Stats implements storage.Store.
func (s *Store) Stats() storage.Stats { return s.inner.Stats() }

// SlotPayload implements storage.Store.
func (s *Store) SlotPayload() int { return s.inner.SlotPayload() }

// Close implements storage.Store.
func (s *Store) Close() error { return s.inner.Close() }
