package set

import (
	"errors"
	"testing"

	"repro/internal/memory"
	"repro/internal/spec"
)

// TestAbortableSoloAccessCounts pins the weak set's cost model in the
// paper's unit: every operation reads the root once, and only a
// successful update (or Seal) adds the root CAS. The sorted array is
// private memory and costs no shared access however large it is.
func TestAbortableSoloAccessCounts(t *testing.T) {
	var st memory.Stats
	s := NewAbortableObserved(&st)
	for k := uint64(0); k < 64; k += 2 {
		s.TryAdd(k)
	}
	check := func(name string, op func() (bool, error), want bool, reads, cas uint64) {
		t.Helper()
		st.Reset()
		got, err := op()
		if err != nil || got != want {
			t.Fatalf("%s = (%v, %v), want (%v, nil)", name, got, err, want)
		}
		if snap := st.Snapshot(); snap.Reads != reads || snap.CASes != cas || snap.Writes != 0 {
			t.Fatalf("%s accesses = %+v, want %d reads, %d CASes", name, snap, reads, cas)
		}
	}
	check("TryContains(10)", func() (bool, error) { return s.TryContains(10) }, true, 1, 0)
	check("TryContains(11)", func() (bool, error) { return s.TryContains(11) }, false, 1, 0)
	check("TryAdd(11)", func() (bool, error) { return s.TryAdd(11) }, true, 1, 1)
	check("TryAdd(11) present", func() (bool, error) { return s.TryAdd(11) }, false, 1, 0)
	check("TryRemove(11)", func() (bool, error) { return s.TryRemove(11) }, true, 1, 1)
	check("TryRemove(11) absent", func() (bool, error) { return s.TryRemove(11) }, false, 1, 0)

	st.Reset()
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if snap := st.Snapshot(); snap.Reads != 1 || snap.CASes != 1 {
		t.Fatalf("Seal accesses = %+v, want 1 read, 1 CAS", snap)
	}
	st.Reset()
	if _, err := s.TryAdd(13); !errors.Is(err, ErrSealed) {
		t.Fatalf("TryAdd after Seal: err = %v, want ErrSealed", err)
	}
	if snap := st.Snapshot(); snap.Reads != 1 || snap.CASes != 0 {
		t.Fatalf("sealed TryAdd accesses = %+v, want 1 read", snap)
	}
	check("TryContains(10) sealed", func() (bool, error) { return s.TryContains(10) }, true, 1, 0)
}

// TestAbortableAllocs pins the allocation side of the cost model:
// reads allocate nothing, and a successful update allocates the new
// key array and its root record, whatever the set's size.
func TestAbortableAllocs(t *testing.T) {
	s := NewAbortable()
	for k := uint64(0); k < 1024; k += 2 {
		s.TryAdd(k)
	}
	if got := testing.AllocsPerRun(100, func() { s.TryContains(511) }); got != 0 {
		t.Fatalf("TryContains allocs = %v, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { s.TryAdd(0) }); got != 0 {
		t.Fatalf("read-only TryAdd allocs = %v, want 0", got)
	}
	// Every run changes the set: the odd keys start absent, and each
	// run adds (then removes) the next one.
	for _, u := range []struct {
		name   string
		update func(uint64) (bool, error)
	}{{"TryAdd", s.TryAdd}, {"TryRemove", s.TryRemove}} {
		k := uint64(1)
		got := testing.AllocsPerRun(100, func() {
			if ok, _ := u.update(k); !ok {
				t.Fatalf("solo %s(%d) did not change the set", u.name, k)
			}
			k += 2
		})
		if got > 2 {
			t.Fatalf("successful %s allocs = %v, want <= 2", u.name, got)
		}
	}
}

// TestAbortableSnapshotIsCopy checks that Snapshot does not expose the
// shared immutable array: writing to the returned slice must not
// change the set, nor a later snapshot of it.
func TestAbortableSnapshotIsCopy(t *testing.T) {
	s := NewAbortable()
	for _, k := range []uint64{1, 3, 5} {
		s.TryAdd(k)
	}
	snap := s.Snapshot()
	snap[0], snap[1], snap[2] = 2, 4, 6
	if !s.Contains(3) || s.Contains(4) {
		t.Fatalf("mutating a Snapshot changed the set: now %v", s.Snapshot())
	}
	if got := s.Snapshot(); got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("Snapshot() = %v after mutating an earlier one, want [1 3 5]", got)
	}
}

// TestNewAbortableSorted checks the bulk constructor: it holds exactly
// the given keys, owns a copy of them, and rejects unsorted input.
func TestNewAbortableSorted(t *testing.T) {
	keys := []uint64{2, 4, 8}
	s := NewAbortableSorted(keys, nil)
	keys[0] = 3
	if !s.Contains(2) || s.Contains(3) || s.Len() != 3 {
		t.Fatalf("NewAbortableSorted shares or drops keys: %v", s.Snapshot())
	}
	if ok, err := s.TryAdd(6); !ok || err != nil {
		t.Fatalf("TryAdd(6) = (%v, %v)", ok, err)
	}
	if got := s.Snapshot(); len(got) != 4 || got[2] != 6 {
		t.Fatalf("Snapshot() = %v, want [2 4 6 8]", got)
	}
	for _, bad := range [][]uint64{{3, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAbortableSorted(%v) did not panic", bad)
				}
			}()
			NewAbortableSorted(bad, nil)
		}()
	}
}

// FuzzAbortableVsSpec runs the copy-on-write set solo in lockstep with
// spec.Set: byte 2i picks the op, byte 2i+1 the key. Besides the three
// set operations the fuzzer may Seal the set, after which every update
// must return ErrSealed with no effect while reads keep answering, or
// rebuild it from its Snapshot through NewAbortableSorted, the
// migration path, which yields a live set with the same keys. Solo
// attempts never abort. The final Len/Snapshot must match the
// reference exactly.
func FuzzAbortableVsSpec(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 1, 1, 2, 1})
	f.Add([]byte{0, 5, 0, 3, 3, 0, 0, 7, 1, 5, 2, 5, 4, 0, 0, 7, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewAbortable()
		ref := spec.NewSet()
		sealed := false
		for i := 0; i+1 < len(data); i += 2 {
			k := uint64(data[i+1])
			var got, want bool
			var err error
			switch data[i] % 5 {
			case 0:
				got, err = s.TryAdd(k)
				if !sealed {
					want = ref.Add(k)
				}
			case 1:
				got, err = s.TryRemove(k)
				if !sealed {
					want = ref.Remove(k)
				}
			case 2:
				got, err = s.TryContains(k)
				want = ref.Contains(k)
			case 3:
				if err := s.Seal(); err != nil {
					t.Fatalf("op %d: solo Seal = %v", i, err)
				}
				sealed = true
				continue
			default:
				s, sealed = NewAbortableSorted(s.Snapshot(), nil), false
				continue
			}
			if sealed && data[i]%5 < 2 { // an update on a sealed set
				if !errors.Is(err, ErrSealed) || got {
					t.Fatalf("op %d key %d on a sealed set = (%v, %v), want (false, ErrSealed)", i, k, got, err)
				}
				continue
			}
			if err != nil || got != want {
				t.Fatalf("op %d key %d: abortable (%v, %v), spec %v", i, k, got, err, want)
			}
		}
		if s.Sealed() != sealed {
			t.Fatalf("Sealed() = %v, want %v", s.Sealed(), sealed)
		}
		snap, want := s.Snapshot(), ref.Snapshot()
		if len(snap) != len(want) || s.Len() != len(want) {
			t.Fatalf("Snapshot() = %v (Len %d), spec %v", snap, s.Len(), want)
		}
		for i := range want {
			if snap[i] != want[i] {
				t.Fatalf("Snapshot() = %v, spec %v", snap, want)
			}
		}
	})
}
