package main

import (
	"fmt"
	"sync"
	"time"

	"repro"
	"repro/internal/combine"
	"repro/internal/memory"
)

// The layers' counters are read from outside, through the optional
// methods of the concrete backend behind repro.Unwrap(Ops.Instance)
// and through repro.AdaptiveStatsOf. An adaptive backend unwraps to
// its current rung, so its combine and guard counters cover the time
// since its last migration.
type (
	combiningStats interface{ Stats() repro.CombiningStats }
	guarded        interface{ Guard() *repro.Guard }
	pooled         interface{ PoolStats() repro.PoolStats }
	resizing       interface{ Resizes() uint64 }
	sharded        interface {
		Shards() int
		ShardStats(i int) repro.CombiningStats
	}
)

// layerCounters sums the counters of every instance of a pass.
type layerCounters struct {
	comb                               repro.CombiningStats
	guardFast, guardSlow, guardRetries uint64
	pool                               repro.PoolStats
	migrations, aborted                uint64
	eliminated, elimOps                uint64
	resizes                            uint64
}

// instanceCounters is what one finished instance tells about the
// known combine.Core lease defect.
type instanceCounters struct {
	steals     uint64 // lease steals its readable combine.Cores saw
	migrations uint64 // adaptive backends: completed rung changes
	rung       string // adaptive backends: the current rung
	// lostCombining says an adaptive backend served on a combining rung
	// that a migration has since replaced: rungs are rebuilt on every
	// migration and only the current one can be read, so steals there
	// are not counted.
	lostCombining bool
}

// leaseSuspect reports whether the instance's failed ops may come from
// the known lease defect: it shows a steal, or steals it may have had
// can no longer be read.
func (c instanceCounters) leaseSuspect() bool { return c.steals > 0 || c.lostCombining }

// read adds one finished instance's counters; attempted is the number
// of ops the instance served.
func (l *layerCounters) read(inst any, attempted uint64) instanceCounters {
	var ic instanceCounters
	if a, ok := repro.AdaptiveStatsOf(inst); ok {
		l.migrations += a.Migrations
		l.aborted += a.Aborted
		ic.migrations, ic.rung = a.Migrations, a.Rung
		ic.lostCombining = a.Migrations > 0 && a.InRung["combining"] > 0
	}
	x := repro.Unwrap(inst)
	var comb []repro.CombiningStats
	if c, ok := x.(combiningStats); ok {
		comb = append(comb, c.Stats())
	}
	if sh, ok := x.(sharded); ok {
		for i := range sh.Shards() {
			comb = append(comb, sh.ShardStats(i))
		}
	}
	for _, s := range comb {
		l.comb.Fast += s.Fast
		l.comb.Published += s.Published
		l.comb.Combines += s.Combines
		l.comb.Served += s.Served
		l.comb.Retries += s.Retries
		l.comb.Steals += s.Steals
		ic.steals += s.Steals
	}
	if g, ok := x.(guarded); ok {
		s := g.Guard().Stats()
		l.guardFast += s.Fast
		l.guardSlow += s.Slow
		l.guardRetries += s.Retries
	}
	if p, ok := x.(pooled); ok {
		s := p.PoolStats()
		l.pool.Allocs += s.Allocs
		l.pool.Reuses += s.Reuses
		l.pool.Spills += s.Spills
		l.pool.Refills += s.Refills
		l.pool.Drops += s.Drops
	}
	if e, ok := x.(*repro.EliminationStack[uint64]); ok {
		s := e.Stats()
		l.eliminated += s.PushesEliminated + s.PopsEliminated
		l.elimOps += attempted
	}
	if r, ok := x.(resizing); ok {
		l.resizes += r.Resizes()
	}
	return ic
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// metrics returns the counter-derived per-layer metrics. Raw counts
// are given per round: a round's work is fixed by the workload, while
// the number of rounds a pass runs depends on the machine's load.
func (l *layerCounters) metrics(m metricSet, rounds int) {
	perRound := func(n uint64) float64 { return float64(n) / float64(max(rounds, 1)) }
	c := l.comb
	coreOps := c.Fast + c.Published
	m.add("combine.fast_frac", ratio(c.Fast, coreOps), "frac")
	m.add("combine.batch_mean", ratio(c.Served, c.Combines), "count")
	m.add("combine.passes_per_kop", 1000*ratio(c.Combines, coreOps), "count")
	m.add("combine.retries_per_kop", 1000*ratio(c.Retries, coreOps), "count")
	m.add("combine.steals", perRound(c.Steals), "count/round")
	m.add("core.guard.slow_frac", ratio(l.guardSlow, l.guardFast+l.guardSlow), "frac")
	m.add("core.guard.retries_per_slow", ratio(l.guardRetries, l.guardSlow), "count")
	gets := l.pool.Reuses + l.pool.Allocs
	m.add("memory.pool.reuse_frac", ratio(l.pool.Reuses, gets), "frac")
	m.add("memory.pool.spills_per_kop", 1000*ratio(l.pool.Spills, gets), "count")
	m.add("memory.pool.refills_per_kop", 1000*ratio(l.pool.Refills, gets), "count")
	m.add("memory.pool.arena_allocs", perRound(l.pool.Allocs), "count/round")
	m.add("memory.pool.drops", perRound(l.pool.Drops), "count/round")
	m.add("adaptive.migrations", perRound(l.migrations), "count/round")
	m.add("adaptive.aborted", perRound(l.aborted), "count/round")
	m.add("stack.elimination.elim_frac", ratio(l.eliminated, l.elimOps), "frac")
	m.add("set.hashset.resizes", perRound(l.resizes), "count/round")
}

// probeTime is how long each layer probe runs.
const probeTime = 100 * time.Millisecond

// probes times layer functions in isolation, each under its own span:
// a memory.Pool Get+Put, a successful TaggedRef CAS, and combine.Core.Do
// and the Figure 3 guard's Do over a trivial try at 1 and 2 workers. It
// returns ns per call, per worker.
func probes(tr *tracer, m metricSet) {
	pool := memory.NewPool[uint64](1, nil)
	m.add("memory.pool.getput_ns", probe(tr, "probe.memory.pool.getput", 1, func(int) {
		pool.Put(0, pool.Get(0))
	}), "ns")

	h := pool.Get(0)
	ref := memory.NewTaggedRef(pool, memory.PackTagged(h, 0))
	m.add("memory.tagged.cas_ns", probe(tr, "probe.memory.tagged.cas", 1, func(int) {
		old := ref.Read()
		ref.CAS(old, old.Next(h))
	}), "ns")

	for _, n := range []int{1, 2} {
		core := combine.NewCore(procs, func(_ int, arg uint64) (uint64, bool) { return arg, true })
		name := fmt.Sprintf("p%d", n)
		m.add("combine.do_ns."+name, probe(tr, "probe.combine.do."+name, n, func(pid int) {
			core.Do(pid, 1)
		}), "ns")
		g := repro.NewGuard(repro.NewStarvationFreeLock(repro.NewTASLock(), procs))
		try := func() (uint64, bool) { return 1, true }
		m.add("core.guard.do_ns."+name, probe(tr, "probe.core.guard.do."+name, n, func(pid int) {
			repro.Do(g, pid, try)
		}), "ns")
	}
}

// probe runs fn on n workers (pids 0..n-1) in batches until probeTime
// has passed, and returns the span's duration per call per worker.
func probe(tr *tracer, name string, n int, fn func(pid int)) float64 {
	const batch = 1 << 15
	calls := 0
	id := tr.begin(name, -1)
	t0 := time.Now()
	for time.Since(t0) < probeTime {
		var wg sync.WaitGroup
		for pid := 0; pid < n; pid++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range batch {
					fn(pid)
				}
			}()
		}
		wg.Wait()
		calls += batch
	}
	elapsed := time.Since(t0)
	tr.end(id)
	return float64(elapsed.Nanoseconds()) / float64(calls)
}
