package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
)

// A workload is one named benchmark input: a fixed list of catalog
// backends, each built fresh and driven in turn by a closed loop of
// workers (every worker waits for an answer before it sends its next
// op). The backend lists are written out name by name, so a catalog
// addition never changes a workload silently; an unknown name is an
// error at set-up.
type workload struct {
	name     string
	why      string // the one-line rationale; BENCHMARK.json lists those of workloads
	sets     bool   // set ops over keys; otherwise container push→pop pairs
	workers  int
	backends []entry
}

// An entry is one backend of a workload with its op budget: the timed
// ops one round issues to it, across all workers. Budgets are sized so
// that each backend takes a similar share of a round on a 2-vCPU host,
// and none more than about a third of it.
type entry struct {
	name string
	ops  int
}

// Op codes of repro.Ops.Do.
const (
	opPush      = 0 // stack push, queue enqueue
	opPop       = 1 // stack pop, queue dequeue
	opPushLeft  = 0
	opPushRight = 1
	opPopLeft   = 2
	opPopRight  = 3
	opAdd       = 0
	opRemove    = 1
	opContains  = 2
)

const (
	capacity   = 1024         // bounded backends; memory.MaxIndex (4095) is the hard limit
	procs      = 2            // WithProcs for every backend; at least the largest worker count
	prefillN   = 64           // container prefill; keeps every pop answerable
	setKeys    = 1024         // sets: keys are uniform in [0, setKeys)
	sampleK    = 17           // 1-in-K ops are timed; odd, so container samples alternate push and pop
	spanK      = 31 * sampleK // traced runs give 1-in-spanK ops a Do span; odd too
	warmDivide = 8            // warm-up issues budget/warmDivide ops per backend, untimed
)

// contendedEntries are the strong stack, queue and deque backends
// whose ops never wait on combine.Core's lease.
var contendedEntries = []entry{
	{"stack/sensitive", 240_000},
	{"stack/non-blocking", 240_000},
	{"stack/treiber", 240_000},
	{"stack/elimination", 240_000},
	{"stack/treiber-pooled", 320_000},
	{"queue/sensitive", 240_000},
	{"queue/non-blocking", 240_000},
	{"queue/michael-scott-pooled", 320_000},
	{"deque/non-blocking", 240_000},
	{"deque/sensitive", 240_000},
}

// leaseEntries are the strong stack and queue backends whose contended
// ops go through combine.Core's heartbeat lease: the combining ones,
// the sharded queue (a combining queue per shard), and the adaptive
// stack and queue, whose ladders have a combining rung.
var leaseEntries = []entry{
	{"stack/combining", 160_000},
	{"stack/combining-pooled", 160_000},
	{"stack/adaptive", 160_000},
	{"queue/combining", 160_000},
	{"queue/sharded", 160_000},
	{"queue/combining-pooled", 160_000},
	{"queue/adaptive", 160_000},
}

// workloads are the benchmark's workloads, the ones BENCHMARK.json
// lists. No op may fail in them.
var workloads = []workload{
	{
		name: "containers-contended",
		why: "two workers on two cores contend for one hot word per object, so the guard and " +
			"lock, elimination and pool spill/refill work; no backend waits on a combine lease",
		workers:  2,
		backends: contendedEntries,
	},
	{
		name: "containers-solo",
		why: "every strong stack, queue and deque, combining and adaptive too, with one worker: " +
			"Theorem 1's contention-free regime, where every strong op takes its shortcut",
		workers:  1,
		backends: slices.Concat(contendedEntries, leaseEntries),
	},
	{
		name: "sets-read-mostly",
		why: "90% Contains, 5% Add, 5% Remove over 1024 keys: wait-free reads beside " +
			"copy-on-write, Harris and split-ordered writers; pools and combining idle",
		sets:    true,
		workers: 2,
		backends: []entry{
			{"set/sensitive", 40_000},
			{"set/non-blocking", 40_000},
			{"set/harris", 60_000},
			{"set/hashset", 600_000},
			{"set/adaptive", 120_000},
		},
	},
}

// diagnostics are workloads that BENCHMARK.json does not list because
// ops fail in them. With two workers on two cores, a waiter steals
// combine.Core's lease from a combiner that was only descheduled, not
// crashed, and that combiner then applies a request twice: a value is
// popped twice or a push is lost, a set key's balance breaks. They run
// with the same command and checks as the benchmark's workloads, and
// every such op counts in failed.
var diagnostics = []workload{
	{
		name:     "lease-takeover",
		why:      "the combine-lease stacks and queues with two workers on two cores",
		workers:  2,
		backends: leaseEntries,
	},
	{
		name:     "lease-takeover-set",
		why:      "set/combining with two workers on two cores, read-mostly",
		sets:     true,
		workers:  2,
		backends: []entry{{"set/combining", 40_000}},
	},
}

func findWorkload(name string) (workload, error) {
	all := slices.Concat(workloads, diagnostics)
	for _, w := range all {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// maxBudget is the largest per-backend timed budget of the workload.
func (w workload) maxBudget() int {
	m := 0
	for _, e := range w.backends {
		m = max(m, e.ops)
	}
	return m
}

// perWorker splits a backend's budget across the workers, rounded
// down to whole push→pop pairs.
func (w workload) perWorker(ops int) int { return ops / w.workers &^ 1 }

// warmOps is the untimed warm-up length per worker for a budget.
func (w workload) warmOps(ops int) int { return w.perWorker(ops) / warmDivide &^ 1 }

// A stream is one worker's op sequence: each element packs an op code
// (bits 16..17) and, for sets, a key (bits 0..15). Container streams
// are push→pop pairs: even indices push, odd ones pop, and the stored
// code is the deque's, whose pair uses one end; stacks and queues use
// code i&1. Container values are not stored: the push at index i of
// worker w carries value(w, i), so every pushed value is unique per
// (worker, sequence number).
type stream []uint32

func (s stream) code(i int) int   { return int(s[i] >> 16) }
func (s stream) key(i int) uint64 { return uint64(s[i] & 0xffff) }

// streams generates every worker's op stream for the workload from the
// seed: warm-up first, then the timed ops, long enough for the largest
// budget. Backends of one workload all receive the same streams.
func (w workload) streams(seed uint64) []stream {
	n := w.warmOps(w.maxBudget()) + w.perWorker(w.maxBudget())
	out := make([]stream, w.workers)
	for wk := range out {
		rng := rand.New(rand.NewPCG(seed, uint64(wk)+1))
		s := make(stream, n)
		for i := 0; i < n; i += 2 {
			s[i], s[i+1] = w.pair(rng)
		}
		out[wk] = s
	}
	return out
}

// pair draws the next two ops of a stream.
func (w workload) pair(rng *rand.Rand) (uint32, uint32) {
	if w.sets {
		return setOp(rng), setOp(rng)
	}
	// A container pair is a push then a pop; a deque pair uses one end,
	// chosen at random, for both.
	if rng.IntN(2) == 0 {
		return opPushLeft << 16, opPopLeft << 16
	}
	return opPushRight << 16, opPopRight << 16
}

// setOp draws one read-mostly set op: 90% Contains, 5% Add, 5% Remove.
func setOp(rng *rand.Rand) uint32 {
	code := opContains
	switch r := rng.IntN(20); {
	case r == 0:
		code = opAdd
	case r == 1:
		code = opRemove
	}
	return uint32(code)<<16 | uint32(rng.IntN(setKeys))
}

// encodeStreams serialises the streams, for the determinism self-test.
func encodeStreams(ss []stream) []byte {
	var out []byte
	for _, s := range ss {
		for _, x := range s {
			out = binary.LittleEndian.AppendUint32(out, x)
		}
	}
	return out
}

// value is the unique value worker wk pushes at stream index i. Values
// start at 1 and stay below 2^31, inside the deques' uint32 domain.
func value(workers, wk, i int) uint64 { return 1 + uint64(i)*uint64(workers) + uint64(wk) }

// prefillBase is the first prefill value, above every worker value.
const prefillBase = 1 << 30
