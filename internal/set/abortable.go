package set

import (
	"slices"

	"repro/internal/core"
	"repro/internal/memory"
)

// cowState is one immutable version of the copy-on-write set: its keys
// in strictly ascending order, and whether Seal froze it. Neither the
// record nor the array behind keys is written after publication, so a
// Seal record may share its predecessor's array.
type cowState struct {
	keys   []uint64
	sealed bool
}

// Abortable is the set tier's Figure 1 analogue: an abortable sorted
// set whose entire state hangs off one boxed root register holding an
// immutable sorted array. Because published arrays are never mutated,
// pointer identity of the root implies identity of the whole abstract
// state — so a single CAS on the root is a correct "compare the set,
// swap the set", the exact role TOP plays for the paper's weak stack.
// A mutating attempt that loses the root CAS returns ErrAborted with no
// effect; a solo attempt never aborts.
//
// TryContains (and the read-only outcomes of TryAdd/TryRemove — key
// already present / already absent) linearize at the single root read
// and never abort: membership checks are wait-free, O(log n) binary
// searches of private immutable memory. A successful update copies the
// array around its key (O(n) memmove) and allocates the new array plus
// its record. All updates interfere at the root even on disjoint keys;
// Harris is the backend that trades the simple abort discipline for
// disjoint-window parallelism.
type Abortable struct {
	root *memory.Ref[cowState]
}

// NewAbortable returns an empty abortable set.
func NewAbortable() *Abortable {
	return NewAbortableObserved(nil)
}

// NewAbortableObserved returns an abortable set whose root accesses
// are reported to obs first (nil disables instrumentation); the
// deterministic scheduler gates on them. The key arrays are private
// and immutable, so the root is the object's only shared register.
func NewAbortableObserved(obs memory.Observer) *Abortable {
	return NewAbortableSorted(nil, obs)
}

// NewAbortableSorted returns an abortable set holding keys, which must
// be strictly ascending (a Snapshot of any set in this package is). It
// copies keys into one new array and touches no shared register, so a
// migration can rebuild a set of n keys in O(n) instead of n updates.
// Root accesses are reported to obs as in NewAbortableObserved.
func NewAbortableSorted(keys []uint64, obs memory.Observer) *Abortable {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			panic("set: NewAbortableSorted keys not strictly ascending")
		}
	}
	return &Abortable{root: memory.NewRefObserved(&cowState{keys: slices.Clone(keys)}, obs)}
}

// TryAdd is one attempt to insert k. It returns (true, nil) when k was
// inserted, (false, nil) when k was already present (a read-only
// outcome, linearized at the root read), and (false, ErrAborted) when
// a concurrent update won the root CAS.
func (s *Abortable) TryAdd(k uint64) (bool, error) {
	old := s.root.Read()
	if old.sealed {
		return false, ErrSealed
	}
	i, found := slices.BinarySearch(old.keys, k)
	if found {
		return false, nil
	}
	keys := make([]uint64, len(old.keys)+1)
	copy(keys, old.keys[:i])
	keys[i] = k
	copy(keys[i+1:], old.keys[i:])
	if s.root.CAS(old, &cowState{keys: keys}) {
		return true, nil
	}
	return false, ErrAborted
}

// TryRemove is one attempt to delete k. It returns (true, nil) when k
// was removed, (false, nil) when k was absent, and (false, ErrAborted)
// on interference.
func (s *Abortable) TryRemove(k uint64) (bool, error) {
	old := s.root.Read()
	if old.sealed {
		return false, ErrSealed
	}
	i, found := slices.BinarySearch(old.keys, k)
	if !found {
		return false, nil
	}
	keys := make([]uint64, len(old.keys)-1)
	copy(keys, old.keys[:i])
	copy(keys[i:], old.keys[i+1:])
	if s.root.CAS(old, &cowState{keys: keys}) {
		return true, nil
	}
	return false, ErrAborted
}

// TryContains reports whether k is in the set. It reads one shared
// register and then binary-searches private immutable memory:
// wait-free, allocation-free, and the error is always nil (it
// satisfies Weak so the strong constructions can treat the three
// operations uniformly). A sealed root still answers reads.
func (s *Abortable) TryContains(k uint64) (bool, error) {
	_, found := slices.BinarySearch(s.root.Read().keys, k)
	return found, nil
}

// Contains is TryContains without the vestigial error.
func (s *Abortable) Contains(k uint64) bool {
	ok, _ := s.TryContains(k)
	return ok
}

// Len returns the number of keys (one root read).
func (s *Abortable) Len() int {
	return len(s.root.Read().keys)
}

// Snapshot returns the keys in ascending order, from one atomic root
// read. The result is a fresh copy: the published array is shared
// immutable state, so the caller may modify what it gets.
func (s *Abortable) Snapshot() []uint64 {
	return slices.Clone(s.root.Read().keys)
}

// Seal is one attempt to freeze the set for migration: it CASes the
// root to a sealed record sharing the current key array, which makes
// every later update attempt return ErrSealed. Reads keep working
// through it. Crucially, an update that read the root before the seal
// landed fails its root CAS (the register no longer holds the record
// it read) — sealing wins every race with in-flight writers, so the
// snapshot taken after a successful Seal is the set's final abstract
// state. Seal returns nil when the set is sealed after the call
// (freshly, or already — sealing is idempotent) and ErrAborted when a
// concurrent update won the root CAS; a sealed root is never unsealed.
func (s *Abortable) Seal() error {
	old := s.root.Read()
	if old.sealed {
		return nil
	}
	if s.root.CAS(old, &cowState{keys: old.keys, sealed: true}) {
		return nil
	}
	return ErrAborted
}

// Sealed reports whether the set is frozen (one root read).
func (s *Abortable) Sealed() bool {
	return s.root.Read().sealed
}

// Progress classifies the weak set: abortable, hence on the
// obstruction-free rung of the paper's hierarchy (§1.2).
func (s *Abortable) Progress() core.Progress { return core.ObstructionFree }

var _ Weak = (*Abortable)(nil)
