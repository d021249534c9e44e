package sched

import (
	"errors"
	"fmt"

	lin "repro/internal/linearizability"
	"repro/internal/memory"
	"repro/internal/set"
)

// SetOp is one planned set operation for a model-checked run. Kind is
// "add", "rem" or "has"; Key is the operated key.
type SetOp struct {
	Kind string
	Key  uint64
}

// setOutcome maps a weak set attempt's error to a history outcome.
func setOutcome(err error) string {
	switch {
	case err == nil:
		return lin.OutcomeOK
	case errors.Is(err, set.ErrAborted):
		return lin.OutcomeAborted
	default:
		panic(err)
	}
}

// schedSet is the common surface of the model-checked sets: one
// attempt per op, pid-aware (the pooled Harris backend routes node
// recycling through per-pid free lists; the boxed backend ignores it).
type schedSet interface {
	TryAdd(pid int, k uint64) (bool, error)
	TryRemove(pid int, k uint64) (bool, error)
	TryContains(pid int, k uint64) (bool, error)
}

// pidlessSet adapts the pid-oblivious weak set.
type pidlessSet struct{ s set.Weak }

func (a pidlessSet) TryAdd(_ int, k uint64) (bool, error)      { return a.s.TryAdd(k) }
func (a pidlessSet) TryRemove(_ int, k uint64) (bool, error)   { return a.s.TryRemove(k) }
func (a pidlessSet) TryContains(_ int, k uint64) (bool, error) { return a.s.TryContains(k) }

// harrisAdapter fits the lock-free list to the schedSet shape. Its
// operations are strong (they retry internally and never abort).
type harrisAdapter struct{ s *set.Harris }

func (a harrisAdapter) TryAdd(pid int, k uint64) (bool, error) { return a.s.Add(pid, k), nil }
func (a harrisAdapter) TryRemove(pid int, k uint64) (bool, error) {
	return a.s.Remove(pid, k), nil
}
func (a harrisAdapter) TryContains(pid int, k uint64) (bool, error) {
	return a.s.Contains(pid, k), nil
}

// hashAdapter fits the split-ordered hash set to the schedSet shape;
// like the Harris list its operations are strong.
type hashAdapter struct{ s *set.Hash }

func (a hashAdapter) TryAdd(pid int, k uint64) (bool, error) { return a.s.Add(pid, k), nil }
func (a hashAdapter) TryRemove(pid int, k uint64) (bool, error) {
	return a.s.Remove(pid, k), nil
}
func (a hashAdapter) TryContains(pid int, k uint64) (bool, error) {
	return a.s.Contains(pid, k), nil
}

// SetBackend selects the implementation a set Builder checks.
type SetBackend int

const (
	// CowSet is the abortable copy-on-write sorted array (one boxed
	// root register).
	CowSet SetBackend = iota
	// HarrisSet is the Harris/Michael lock-free list over pooled,
	// tagged, markable next registers.
	HarrisSet
	// HashSet is the split-ordered hash layer over the same list:
	// bucket-shortcut words plus per-bucket sentinel nodes, all on the
	// one pool, so bucket initialization shares the recycling hazards.
	HashSet
)

// String names the backend.
func (b SetBackend) String() string {
	switch b {
	case CowSet:
		return "cow"
	case HarrisSet:
		return "harris"
	case HashSet:
		return "hash"
	default:
		return "unknown"
	}
}

// WeakSetBuilder returns a Builder that prefills a fresh set with
// initial, runs the per-process plans as single attempts (strong,
// never-aborting operations on the Harris backend), and checks the
// recorded history against the sequential set model. Aborted attempts
// are dropped from the history; a backend whose "aborted" attempt did
// take effect — or whose stale CAS on a recycled node succeeds — is
// caught as a linearizability violation of the remaining history.
func WeakSetBuilder(backend SetBackend, initial []uint64, plans [][]SetOp) Builder {
	return weakSetBuilder(backend, initial, plans, false, nil)
}

// SoloSetNeverAborts is WeakSetBuilder for a single process whose
// check additionally fails if any attempt returned ⊥ (claim A2 lifted
// to the set tier: a solo weak operation must always succeed).
func SoloSetNeverAborts(backend SetBackend, initial []uint64, plan []SetOp) Builder {
	return weakSetBuilder(backend, initial, [][]SetOp{plan}, true, nil)
}

func weakSetBuilder(backend SetBackend, initial []uint64, plans [][]SetOp, forbidAborts bool, post func(s schedSet) error) Builder {
	return func(obs memory.Observer) Run {
		var s schedSet
		switch backend {
		case CowSet:
			s = pidlessSet{set.NewAbortableObserved(obs)}
		case HarrisSet:
			s = harrisAdapter{set.NewHarrisObserved(max(len(plans), 1), obs)}
		case HashSet:
			s = hashAdapter{set.NewHashObserved(max(len(plans), 1), obs)}
		default:
			panic("sched: unknown set backend")
		}
		for _, k := range initial {
			if added, err := s.TryAdd(0, k); err != nil || !added {
				panic(fmt.Sprintf("sched: prefill add(%d) = (%v, %v)", k, added, err))
			}
		}
		rec := lin.NewRecorder(len(plans))
		// The prefill is part of the object's initial state: replay it
		// as history ops that precede everything else.
		for _, k := range initial {
			pend := rec.Invoke(0, "add", k)
			rec.Return(pend, 1, lin.OutcomeOK)
		}
		ops := make([][]func(), len(plans))
		for pid, plan := range plans {
			for _, p := range plan {
				pid, p := pid, p
				ops[pid] = append(ops[pid], func() {
					pend := rec.Invoke(pid, p.Kind, p.Key)
					var res bool
					var err error
					switch p.Kind {
					case "add":
						res, err = s.TryAdd(pid, p.Key)
					case "rem":
						res, err = s.TryRemove(pid, p.Key)
					case "has":
						res, err = s.TryContains(pid, p.Key)
					default:
						panic("sched: unknown set op kind")
					}
					out := uint64(0)
					if res {
						out = 1
					}
					rec.Return(pend, out, setOutcome(err))
				})
			}
		}
		return Run{Ops: ops, Check: func() error {
			if forbidAborts {
				if n := rec.Aborts(); n > 0 {
					return fmt.Errorf("%d solo weak operation(s) aborted", n)
				}
			}
			h := rec.History()
			res := lin.Check(lin.SetModel(), h, 0)
			if res.Exhausted {
				return fmt.Errorf("sched: linearizability check exhausted")
			}
			if !res.Ok {
				return fmt.Errorf("history not linearizable: %v", h)
			}
			if post != nil {
				return post(s)
			}
			return nil
		}}
	}
}

// HarrisABASchedule returns the builder and handcrafted schedule that
// force the §2.2 recycled-node scenario on the lock-free list: process
// 0 walks Add(25) over the list [10 20] down to its insertion window —
// its pred register is node 20's next word 〈nil, t〉 — and is preempted
// after preparing its new node, one step before the link CAS. Process
// 1 then removes 20 (retiring its node to p1's free list) and adds 30,
// which recycles 20's node at the SAME handle, relinked after 10. When
// p0 resumes, its stale CAS targets that recycled node's next register
// with the old 〈nil, t〉 word; the register again holds a nil successor,
// so without the tag the CAS would succeed — appending 25 after the
// node that now carries 30, i.e. breaking sorted order and making 25
// unreachable by later traversals. The tag (advanced by the mark and
// the reuse) makes it fail; p0 restarts its walk and inserts 25
// between 10 and 30. Check asserts the history linearizes AND that
// recycling actually happened.
//
// Gate counts (observed accesses are the head register and every node
// next-register Read/Write/CAS; key loads and pool traffic are
// arena-private): a find step costs 2 gates per node (next read +
// pred validation re-read) after 1 gate for the head read; preparing a
// fresh node costs 2 (its next read + write). So p0's prefix is
// 1+2+2+2 = 7 gates; p1's Remove(20) is 1+2+2 (find) + 1 (mark CAS)
// + 1 (unlink CAS) = 7 and its Add(30) is 1+2 (find stops after node
// 10) + 2 (prep) + 1 (link CAS) = 6; p0 finishes with its failed CAS
// (1), a fresh find (1+2+2), a re-prep of its recycled own node (2)
// and the winning CAS (1) — 9 gates.
func HarrisABASchedule() (Builder, []int) {
	build := weakSetBuilder(HarrisSet,
		[]uint64{10, 20},
		[][]SetOp{
			{{Kind: "add", Key: 25}}, // p0
			{ // p1: remove 20, add 30 (recycling 20's node)
				{Kind: "rem", Key: 20},
				{Kind: "add", Key: 30},
			},
		},
		false,
		func(s schedSet) error {
			h := s.(harrisAdapter).s
			st := h.PoolStats()
			if st.Reuses < 1 {
				return fmt.Errorf("schedule recycled %d nodes, want >= 1 (no reuse pressure)", st.Reuses)
			}
			want := []uint64{10, 25, 30}
			got := h.Snapshot()
			if len(got) != len(want) {
				return fmt.Errorf("final set %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("final set %v, want %v", got, want)
				}
			}
			return nil
		})
	sched := make([]int, 0, 29)
	for i := 0; i < 7; i++ {
		sched = append(sched, 0)
	}
	for i := 0; i < 13; i++ {
		sched = append(sched, 1)
	}
	for i := 0; i < 9; i++ {
		sched = append(sched, 0)
	}
	return build, sched
}

// HashSplitABASchedule returns the builder and handcrafted schedule
// that force the recycled-sentinel ABA window on the split-ordered
// hash set's bucket-initialization path. The set starts as {4, 6}
// (both bucket 0 of the 2-bucket initial table); sentinel₀ → 4 → 6 in
// split order, bucket 1 uninitialized.
//
// Process 0 runs Add(1): key 1 is bucket 1, so it starts the split —
// walks to sentinel 1's window (node 6's next register, holding
// 〈nil, t〉), prepares its own would-be sentinel node, and is preempted
// one step before the link CAS. Process 1 then runs Remove(6) — which
// marks and unlinks node 6 and retires its handle to p1's free list —
// and Contains(5): key 5 is also bucket 1, so p1 re-runs the split,
// and its pool Get hands back node 6's just-retired handle: the
// RECYCLED handle becomes bucket 1's published sentinel, linked in
// node 6's old position, its next register again holding a nil
// successor — 〈nil, t+2〉.
//
// When p0 resumes, its stale sentinel-link CAS targets that register
// with the old 〈nil, t〉 word. Handle part equal (nil, the very §2.2
// shape): without the sequence tag the CAS would succeed and chain a
// DUPLICATE bucket-1 sentinel after the real one, corrupting the
// bucket skeleton. The tag — advanced by node 6's deletion mark and by
// the recycled node's re-preparation — makes it fail; p0 re-finds the
// published sentinel, adopts it, loses the (equally stale) bucket-word
// CAS, recycles its never-published node, and inserts key 1 through
// the adopted sentinel — reusing its own retired handle for the
// regular node. Check asserts the history linearizes, the final set is
// exactly {1, 4}, both recycles actually happened, and no resize
// interfered.
//
// Gate counts (observed accesses are bucket-shortcut words and node
// next registers; key loads, the table pointer, and pool traffic are
// unobserved): a find from a start register costs 1 gate for the start
// read plus 2 per node crossed (next read + predecessor re-read);
// preparing a fresh node costs 2 (its next read + write). p0's prefix
// is bucket-1 word read (1) + bucket-0 word read (1) + find over
// nodes 4, 6 (5) + prep (2) = 9, parking it at the link CAS. p1's
// Remove(6) is bucket-0 read (1) + find stopping at 6 (5) + mark (1)
// + unlink (1) = 8, and its Contains(5) is bucket-1 read (1) +
// bucket-0 read (1) + find over node 4 only (3) + prep of the recycled
// handle (2) + link CAS (1) + bucket-word CAS (1) + the membership
// find from the new sentinel (1) = 10 — 18 total. p0 finishes with the
// failed stale CAS (1), the re-find that adopts the sentinel (5), the
// failed bucket-word CAS (1), the insert find from the sentinel (1),
// re-prep of its recycled node (2) and the winning link CAS (1) — 11.
func HashSplitABASchedule() (Builder, []int) {
	build := weakSetBuilder(HashSet,
		[]uint64{4, 6},
		[][]SetOp{
			{{Kind: "add", Key: 1}}, // p0: triggers the bucket-1 split
			{ // p1: retires node 6, then re-splits bucket 1 on its handle
				{Kind: "rem", Key: 6},
				{Kind: "has", Key: 5},
			},
		},
		false,
		func(s schedSet) error {
			h := s.(hashAdapter).s
			st := h.PoolStats()
			if st.Reuses < 2 {
				return fmt.Errorf("schedule recycled %d nodes, want >= 2 (sentinel and regular reuse)", st.Reuses)
			}
			if n := h.Resizes(); n != 0 {
				return fmt.Errorf("schedule resized %d times, want 0 (gate counts assume a fixed table)", n)
			}
			if got, want := h.Size(), 2; got != want {
				return fmt.Errorf("Size() = %d, want %d", got, want)
			}
			want := []uint64{1, 4}
			got := h.Snapshot()
			if len(got) != len(want) {
				return fmt.Errorf("final set %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("final set %v, want %v", got, want)
				}
			}
			return nil
		})
	sched := make([]int, 0, 38)
	for i := 0; i < 9; i++ {
		sched = append(sched, 0)
	}
	for i := 0; i < 18; i++ {
		sched = append(sched, 1)
	}
	for i := 0; i < 11; i++ {
		sched = append(sched, 0)
	}
	return build, sched
}
