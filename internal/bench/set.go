package bench

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/spec"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E18",
		Title: "set throughput vs read ratio: the list-based set tier across backends",
		Claim: "membership traversals open a read-dominated workload shape the stack/queue tier never sees: backends with wait-free or guard-free Contains (sensitive, non-blocking over the COW sorted array) keep read-mostly throughput high, the lock-free Harris list trades per-read validation for disjoint-window updates, and the key range is the contention knob — small ranges collide constantly, large ranges rarely; per-key add/remove accounting must balance on every backend whatever the mix",
		Run:   runE18,
	})
}

// setImpl is a uniform handle on one set implementation for E18.
type setImpl struct {
	name string
	// build returns pid-aware add/remove/contains closures over a
	// fresh instance for procs processes.
	build func(procs int) (
		add func(pid int, k uint64) bool,
		remove func(pid int, k uint64) bool,
		contains func(pid int, k uint64) bool)
}

// setImpls returns E18's comparison set: the lock-based baseline
// plus every strong set backend the public catalog exports (weak
// backends abort under a hammer and are excluded).
func setImpls() []setImpl {
	out := []setImpl{
		{
			name: "lock(mutex)",
			build: func(procs int) (func(int, uint64) bool, func(int, uint64) bool, func(int, uint64) bool) {
				var mu sync.Mutex
				s := spec.NewSet()
				return func(_ int, k uint64) bool {
						mu.Lock()
						defer mu.Unlock()
						return s.Add(k)
					}, func(_ int, k uint64) bool {
						mu.Lock()
						defer mu.Unlock()
						return s.Remove(k)
					}, func(_ int, k uint64) bool {
						mu.Lock()
						defer mu.Unlock()
						return s.Contains(k)
					}
			},
		},
	}
	for _, b := range repro.CatalogByKind(repro.KindSet) {
		if b.Weak {
			continue
		}
		b := b
		out = append(out, setImpl{name: b.Name, build: func(procs int) (func(int, uint64) bool, func(int, uint64) bool, func(int, uint64) bool) {
			return strongSetOps(b, procs)
		}})
	}
	return out
}

// strongSetOps builds a fresh instance of a strong catalog set and
// returns its answers stripped of the always-nil error.
func strongSetOps(b repro.Backend, procs int) (add, remove, contains func(int, uint64) bool) {
	s := b.Set(repro.WithProcs(procs))
	return func(pid int, k uint64) bool { ok, _ := s.Add(pid, k); return ok },
		func(pid int, k uint64) bool { ok, _ := s.Remove(pid, k); return ok },
		func(pid int, k uint64) bool { ok, _ := s.Contains(pid, k); return ok }
}

// driveSetMix prefills every other key (descending, so the insert
// position is always the current front and prefilling stays O(1) per
// key on the list engines; the COW backend copies its array once per
// key whatever the order), then drives procs goroutines of the
// given mix over keys in [0, keyRange) for the duration with per-key
// accounting of successful adds and removes. It returns the
// completed-op count and the accounting arrays for the caller's
// conservation check; at return the object is quiescent and
// adds[k]-removes[k] ∈ {0, 1} is the invariant every verifier tests.
// Shared by E18 and E19.
func driveSetMix(procs int, d time.Duration, seed uint64, keyRange int, mix workload.SetMix,
	add, remove, contains func(pid int, k uint64) bool) (total uint64, adds, removes []atomic.Int64) {
	for k := (keyRange - 1) &^ 1; k >= 0; k -= 2 { // largest even key first, odd ranges included
		add(0, uint64(k))
	}
	adds = make([]atomic.Int64, keyRange)
	removes = make([]atomic.Int64, keyRange)
	for k := 0; k < keyRange; k += 2 {
		adds[k].Add(1)
	}
	var stop atomic.Bool
	counts := make([]uint64, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := workload.NewRNG(seed + uint64(pid))
			n := uint64(0)
			for !stop.Load() {
				k := uint64(rng.Intn(keyRange))
				switch mix.Next(rng) {
				case workload.SetAdd:
					if add(pid, k) {
						adds[k].Add(1)
					}
				case workload.SetRemove:
					if remove(pid, k) {
						removes[k].Add(1)
					}
				default:
					contains(pid, k)
				}
				n++
			}
			counts[pid] = n
		}(p)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	for _, n := range counts {
		total += n
	}
	return total, adds, removes
}

// hammerSet is E18's driver: driveSetMix plus conservation verified by
// probing every key — adds(k) - removes(k) must be 1 exactly when k
// ended in the set (a recycled-node tag mistake or a lost update
// breaks the balance). The per-key probe is itself O(n) on the list
// backends, which is fine at E18's ranges; E19's wider sweep verifies
// against one snapshot walk instead.
func hammerSet(procs int, d time.Duration, seed uint64, keyRange int, mix workload.SetMix,
	add, remove, contains func(pid int, k uint64) bool) (total uint64, err error) {
	total, adds, removes := driveSetMix(procs, d, seed, keyRange, mix, add, remove, contains)
	for k := 0; k < keyRange; k++ {
		diff := adds[k].Load() - removes[k].Load()
		if diff != 0 && diff != 1 {
			return total, fmt.Errorf("key %d: %d adds vs %d removes", k, adds[k].Load(), removes[k].Load())
		}
		if got, want := contains(0, uint64(k)), diff == 1; got != want {
			return total, fmt.Errorf("key %d: Contains = %v, accounting says %v", k, got, want)
		}
	}
	return total, nil
}

func runE18(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	const procs = 4
	smallKeys, largeKeys := 64, 4096
	if cfg.Quick {
		largeKeys = 512
	}
	mixes := []struct {
		name string
		mix  workload.SetMix
	}{
		{"read-mostly 90/9/1", workload.SetReadMostly},
		{"mixed 50/25/25", workload.SetMixed},
	}
	tb := metrics.NewTable("backend", "mix",
		fmt.Sprintf("keys=%d ops/s", smallKeys),
		fmt.Sprintf("keys=%d ops/s", largeKeys),
		"verdict")
	defer cfg.logTable("E18 set throughput", tb)
	var failed []string
	for _, impl := range setImpls() {
		implFailed := false
		for _, m := range mixes {
			verdict := "conserved"
			var rates [2]float64
			for i, keys := range []int{smallKeys, largeKeys} {
				add, remove, contains := impl.build(procs)
				total, err := hammerSet(procs, cfg.Duration, cfg.Seed, keys, m.mix, add, remove, contains)
				rates[i] = opsPerSec(total, cfg.Duration)
				if err != nil {
					verdict = fmt.Sprintf("FAIL: %v", err)
					implFailed = true
				}
			}
			tb.AddRow(impl.name, m.name, int64(rates[0]), int64(rates[1]), verdict)
		}
		if implFailed {
			failed = append(failed, impl.name)
		}
	}
	if err := fprintf(w, "%d procs, %v per cell, key range = contention knob\n%s",
		procs, cfg.Duration, tb.String()); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("E18: conservation violated on %v", failed)
	}
	return nil
}
