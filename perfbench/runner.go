package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
)

// phaseLimit is the watchdog's deadline for one phase of one backend,
// far above the ~0.1 s a phase takes; stuckGrace is how long workers
// get to return after the watchdog asks them to stop.
var (
	phaseLimit = 20 * time.Second
	stuckGrace = 2 * time.Second
)

// A worker is one closed-loop caller. Its buffers are allocated once
// per run, with room for the largest budget, so the op loop itself
// never allocates.
type worker struct {
	id     int
	stream stream
	hi     int // stream indices [0, hi) were issued to the current backend

	popped     []uint64 // containers: every value a pop returned
	failedPush []int    // containers: stream indices of pushes that returned an error
	adds       []int32  // sets: successful Adds per key
	removes    []int32  // sets: successful Removes per key
	illegal    int      // errors outside the kind's legal Empty and Full answers
	firstErr   error

	lat   []uint32 // sampled op latencies, ns
	spans []span   // traced Do spans (traced runs only)
	busy  atomic.Bool
}

func newWorker(id int, s stream, sets bool) *worker {
	wk := &worker{id: id, stream: s}
	n := len(s)
	if sets {
		wk.adds = make([]int32, setKeys)
		wk.removes = make([]int32, setKeys)
	} else {
		wk.popped = make([]uint64, 0, n/2)
		wk.failedPush = make([]int, 0, 64)
	}
	wk.lat = make([]uint32, 0, n/sampleK+1)
	wk.spans = make([]span, 0, n/spanK+1)
	return wk
}

// reset clears the per-backend answer logs.
func (wk *worker) reset() {
	wk.hi = 0
	wk.popped = wk.popped[:0]
	wk.failedPush = wk.failedPush[:0]
	clear(wk.adds)
	clear(wk.removes)
	wk.illegal, wk.firstErr = 0, nil
}

// loop is the closed loop: it issues stream ops [from, to) one at a
// time, each after the previous answer, and logs every answer for the
// check. When timed, every sampleK-th op is timed from the caller's
// view; when tracing, every spanK-th op also gets a Do span under its
// backend's timed phase.
func (wk *worker) loop(b *backendRun, from, to int, timed bool, stop *atomic.Bool) {
	wk.busy.Store(true)
	defer wk.busy.Store(false)
	tr := b.tr
	traced := timed && tr.on
	do := b.ops.Do
	s := wk.stream
	for i := from; i < to; i++ {
		if stop.Load() {
			return
		}
		code, v := b.opAt(wk, i)
		var got uint64
		var err error
		if timed && i%sampleK == 0 {
			t0 := time.Now()
			got, err = do(wk.id, code, v)
			t1 := time.Now()
			wk.lat = append(wk.lat, clampNs(t1.Sub(t0)))
			if traced && i%spanK == 0 {
				wk.spans = append(wk.spans, span{parent: b.timedSpan, name: b.className(code),
					start: tr.at(t0), end: tr.at(t1)})
			}
		} else {
			got, err = do(wk.id, code, v)
		}
		wk.hi = i + 1
		if b.w.sets {
			if err != nil {
				wk.noteIllegal(err)
			} else if got == 1 {
				switch code {
				case opAdd:
					wk.adds[s.key(i)]++
				case opRemove:
					wk.removes[s.key(i)]++
				}
			}
			continue
		}
		switch {
		case err != nil:
			if !b.legal(err) {
				wk.noteIllegal(err)
			}
			if i&1 == 0 {
				wk.failedPush = append(wk.failedPush, i)
			}
		case i&1 == 1:
			wk.popped = append(wk.popped, got)
		}
	}
}

func (wk *worker) noteIllegal(err error) {
	if wk.illegal == 0 {
		wk.firstErr = err
	}
	wk.illegal++
}

func clampNs(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(d)
}

// A backendRun is one fresh instance of one catalog backend inside a
// round.
type backendRun struct {
	name      string
	w         workload
	kind      string
	ops       repro.Ops
	tr        *tracer
	timedSpan int32
	legalErrs [2]error // the kind's Empty and Full answers
}

// opAt returns the op code and value of stream index i for worker wk.
func (b *backendRun) opAt(wk *worker, i int) (int, uint64) {
	s := wk.stream
	if b.w.sets {
		return s.code(i), s.key(i)
	}
	code := i & 1
	if b.kind == repro.KindDeque {
		code = s.code(i)
	}
	if i&1 == 0 {
		return code, value(b.w.workers, wk.id, i)
	}
	return code, 0
}

func (b *backendRun) legal(err error) bool {
	return errors.Is(err, b.legalErrs[0]) || errors.Is(err, b.legalErrs[1])
}

// className names an op code for Do spans; the set classes are the
// read, write and erase of the set.<variant>.*_p50_ns metrics.
func (b *backendRun) className(code int) string {
	switch b.kind {
	case repro.KindStack:
		return [...]string{"push", "pop"}[code]
	case repro.KindQueue:
		return [...]string{"enqueue", "dequeue"}[code]
	case repro.KindDeque:
		return [...]string{"push_left", "push_right", "pop_left", "pop_right"}[code]
	}
	return [...]string{"write", "erase", "read"}[code]
}

// backendTotals accumulates one backend's figures over a pass.
type backendTotals struct {
	name              string
	attempted, failed uint64
	roundOps          uint64 // timed ops of one round
	steals            uint64
	classNs           map[string][]uint32 // traced Do span durations per op class
}

// roundTotals is one round's workload-wide figures. The latency
// percentiles are exact ranks over the round's samples from every
// backend.
type roundTotals struct {
	samples   uint64
	p50, p99  float64
	ops       uint64
	ns        int64
	backendNs []int64 // each backend's timed phase, in workload order
	cpuNs     int64   // process CPU time over the timed phases
	counts    bool    // complete, and every worker had a core of its own
	mallocs   uint64
	bytes     uint64
	setupNs   int64
}

// A pass runs the workload's backends round after round until the
// timed phases add up to the requested seconds.
type pass struct {
	w       workload
	workers []*worker
	tr      *tracer
	log     io.Writer
	build   func(b repro.Backend) repro.Ops
	cat     []repro.Backend

	stop   atomic.Bool
	seen   []uint64 // check bitmap, reused
	rounds []roundTotals
	lat    []uint32 // the current round's latency samples
	heap   uint64   // largest live heap after a forced GC
	per    []*backendTotals
	layers layerCounters

	attempted, failed uint64
	unexplained       uint64 // failed ops of instances that are no lease suspect
	wedged            bool
	stuckDone         chan struct{} // closed once a wedged phase's goroutine returns
}

func newPass(w workload, cat []repro.Backend, seed uint64, tr *tracer, log io.Writer) *pass {
	p := &pass{w: w, cat: cat, tr: tr, log: log,
		build: func(b repro.Backend) repro.Ops {
			return repro.Drive(b, repro.WithCapacity(capacity), repro.WithProcs(procs))
		}}
	for i, s := range w.streams(seed) {
		p.workers = append(p.workers, newWorker(i, s, w.sets))
	}
	samples := 0
	for i, b := range cat {
		p.per = append(p.per, &backendTotals{name: b.Name, classNs: map[string][]uint32{}})
		samples += w.workers * (w.perWorker(w.backends[i].ops)/sampleK + 1)
	}
	p.lat = make([]uint32, 0, samples)
	return p
}

// resolve looks every backend name of w up in the catalog. An unknown
// name, a weak entry or a kind that does not fit the workload is an
// error.
func resolve(w workload) ([]repro.Backend, error) {
	byName := map[string]repro.Backend{}
	for _, b := range repro.Catalog() {
		byName[b.Name] = b
	}
	var out []repro.Backend
	for _, e := range w.backends {
		b, ok := byName[e.name]
		if !ok {
			return nil, fmt.Errorf("workload %s: unknown catalog backend %q", w.name, e.name)
		}
		if b.Weak || (b.Kind == repro.KindSet) != w.sets {
			return nil, fmt.Errorf("workload %s: backend %s does not fit the workload", w.name, e.name)
		}
		out = append(out, b)
	}
	return out, nil
}

// minShare is the share of workers × wall time the process must have
// spent on a CPU over a round's timed phases for the round to count:
// below it, other load on the machine made the workers share cores,
// which is not the workload (two contended workers on one core take
// turns and never contend). Every round's answers are checked and its
// failed ops counted either way.
const minShare = 0.9

// maxWallFactor bounds a pass's wall time, in multiples of its
// seconds, while it waits for rounds that count.
const maxWallFactor = 3

// run measures rounds until the counting rounds' timed phases reach
// seconds, a backend wedges, or the wall-time bound passes.
func (p *pass) run(seconds float64) {
	start := time.Now()
	var counted int64
	for len(p.rounds) == 0 || float64(counted) < seconds*1e9 {
		if time.Since(start).Seconds() >= maxWallFactor*seconds {
			fmt.Fprintf(p.log, "perfbench: %d of %d rounds had a core per worker after %.0f s; stopping\n",
				len(p.measured()), len(p.rounds), time.Since(start).Seconds())
			return
		}
		r := p.round()
		p.rounds = append(p.rounds, r)
		if p.wedged {
			fmt.Fprintf(p.log, "perfbench: a backend wedged; ending the measurement after %d rounds\n", len(p.rounds))
			return
		}
		if r.counts {
			counted += r.ns
		}
	}
}

func (p *pass) round() roundTotals {
	var r roundTotals
	p.lat = p.lat[:0]
	for i, b := range p.cat {
		p.backend(b, p.w.backends[i].ops, p.per[i], &r)
		if p.wedged {
			return r
		}
	}
	slices.Sort(p.lat)
	r.samples, r.p50, r.p99 = uint64(len(p.lat)), rank(p.lat, 0.50), rank(p.lat, 0.99)
	r.counts = r.share(p.w.workers) >= minShare
	return r
}

func (r roundTotals) share(workers int) float64 {
	return float64(r.cpuNs) / float64(r.ns) / float64(workers)
}

// measured returns the rounds the metrics come from: the rounds that
// count, or, when none did, every complete round.
func (p *pass) measured() []roundTotals {
	var out, complete []roundTotals
	for _, r := range p.rounds {
		if r.counts {
			out = append(out, r)
		}
		if len(r.backendNs) == len(p.cat) {
			complete = append(complete, r)
		}
	}
	if len(out) == 0 {
		return complete
	}
	return out
}

// backendNs is backend i's median timed phase over the measured rounds.
func (p *pass) backendNs(i int) float64 {
	return median(p.measured(), func(r roundTotals) float64 { return float64(r.backendNs[i]) })
}

// backend runs one fresh instance through its phases: build, prefill
// and warm-up (set-up), timed, then quiescent drain and check.
func (p *pass) backend(cb repro.Backend, budget int, tot *backendTotals, r *roundTotals) {
	w := p.w
	tr := p.tr
	bspan := tr.begin(cb.Name, -1)
	defer tr.end(bspan)
	for _, wk := range p.workers {
		wk.reset()
	}
	warm, per := w.warmOps(budget), w.perWorker(budget)

	setup := time.Now()
	sp := tr.begin("setup", bspan)
	b := &backendRun{name: cb.Name, w: w, kind: cb.Kind, tr: tr, legalErrs: legalErrors(cb.Kind)}
	b.ops = p.build(cb)
	var prefillOK []bool
	attempted := uint64(0)
	account := func(failed uint64) {
		tot.attempted += attempted
		tot.failed += failed
		p.attempted += attempted
		p.failed += failed
	}
	ok := p.watched(func() { prefillOK, attempted = p.prefill(b) })
	tr.end(sp)
	if ok {
		sp = tr.begin("warmup", bspan)
		_, ok = p.drive(b, 0, warm, false)
		tr.end(sp)
	}
	r.setupNs += int64(time.Since(setup))

	var ph phase
	if ok {
		b.timedSpan = tr.begin("timed", bspan)
		ph, ok = p.drive(b, warm, warm+per, true)
		tr.end(b.timedSpan)
	}
	if !ok {
		// A worker may still be running, so its logs cannot be read: the
		// ops the phases were to issue count as attempted, and the calls
		// that never returned as failed.
		stuck := uint64(p.stuck())
		p.wedged = true
		fmt.Fprintf(p.log, "perfbench: %s: wedged with %d ops in flight; counted as failed\n", cb.Name, stuck)
		attempted += uint64(w.workers * (warm + per))
		account(stuck)
		return
	}
	for _, wk := range p.workers {
		attempted += uint64(wk.hi)
	}
	timedOps := uint64(w.workers * per)
	r.ops += timedOps
	r.ns += int64(ph.elapsed)
	r.cpuNs += int64(ph.cpu)
	r.mallocs += ph.mallocs
	r.bytes += ph.bytes
	tot.roundOps = timedOps
	r.backendNs = append(r.backendNs, int64(ph.elapsed))
	for _, wk := range p.workers {
		p.lat = append(p.lat, wk.lat...)
		wk.lat = wk.lat[:0]
		for _, s := range wk.spans {
			tot.classNs[s.name] = append(tot.classNs[s.name], uint32(s.end-s.start))
		}
		tr.adopt(wk.spans)
		wk.spans = wk.spans[:0]
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heap = max(p.heap, ms.HeapAlloc)

	sp = tr.begin("verify", bspan)
	var failed int
	var checkOps uint64
	ok = p.watched(func() { failed, checkOps = p.verify(b, prefillOK) })
	tr.end(sp)
	if !ok {
		// The drain may still be running and writing the logs.
		p.wedged = true
		fmt.Fprintf(p.log, "perfbench: %s: wedged while draining; counted as one failed op\n", cb.Name)
		attempted++
		account(1)
		return
	}
	attempted += checkOps
	for _, wk := range p.workers {
		if wk.illegal > 0 {
			fmt.Fprintf(p.log, "perfbench: %s: worker %d: %d illegal errors, first %v\n", cb.Name, wk.id, wk.illegal, wk.firstErr)
			failed += wk.illegal
		}
	}
	ic := p.layers.read(b.ops.Instance, attempted)
	tot.steals += ic.steals
	account(uint64(failed))
	if failed > 0 {
		fmt.Fprintf(p.log, "perfbench: %s: %d failed ops this round (combine steals %d, adaptive migrations %d, rung %q)\n",
			cb.Name, failed, ic.steals, ic.migrations, ic.rung)
		if !ic.leaseSuspect() {
			p.unexplained += uint64(failed)
			fmt.Fprintf(p.log, "perfbench: %s: no lease steal can explain these failed ops\n", cb.Name)
		}
	}
}

func legalErrors(kind string) [2]error {
	switch kind {
	case repro.KindStack:
		return [2]error{repro.ErrStackEmpty, repro.ErrStackFull}
	case repro.KindQueue:
		return [2]error{repro.ErrQueueEmpty, repro.ErrQueueFull}
	case repro.KindDeque:
		return [2]error{repro.ErrDequeEmpty, repro.ErrDequeFull}
	}
	return [2]error{} // a strong set has no legal error
}

// prefill loads the fresh instance as pid 0: prefillN values split
// over both deque ends, or every even key of a set. It reports which
// prefill pushes succeeded (sets log their Adds in worker 0's counts)
// and how many ops it issued.
func (p *pass) prefill(b *backendRun) ([]bool, uint64) {
	do := b.ops.Do
	if p.w.sets {
		wk := p.workers[0]
		for k := uint64(0); k < setKeys; k += 2 {
			got, err := do(0, opAdd, k)
			if err != nil {
				wk.noteIllegal(err)
			} else if got == 1 {
				wk.adds[k]++
			}
		}
		return nil, setKeys / 2
	}
	ok := make([]bool, prefillN)
	for j := range ok {
		code := opPush
		if b.kind == repro.KindDeque {
			code = j & 1 // alternate PushLeft and PushRight
		}
		_, err := do(0, code, prefillBase+uint64(j))
		ok[j] = err == nil
		if err != nil && !b.legal(err) {
			p.workers[0].noteIllegal(err)
		}
	}
	return ok, prefillN
}

// phase is what drive measured: the wall time from the start
// barrier's release to the last worker's return, and the heap
// allocations and the process's CPU time in between.
type phase struct {
	elapsed        time.Duration
	cpu            time.Duration
	mallocs, bytes uint64
}

// drive runs every worker's closed loop over stream indices
// [from, to) under the watchdog. The workers wait at a barrier while
// the heap counters are read, so the harness's own set-up stays out of
// the measured window.
func (p *pass) drive(b *backendRun, from, to int, timed bool) (phase, bool) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	p.stop.Store(false)
	for _, wk := range p.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			wk.loop(b, from, to, timed, &p.stop)
		}()
	}
	var ph phase
	ok := p.watched(func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cpu0 := cpuTime()
		t0 := time.Now()
		close(start)
		wg.Wait()
		ph.elapsed = time.Since(t0)
		ph.cpu = cpuTime() - cpu0
		runtime.ReadMemStats(&after)
		ph.mallocs = after.Mallocs - before.Mallocs
		ph.bytes = after.TotalAlloc - before.TotalAlloc
	})
	return ph, ok
}

// cpuTime is the CPU time all the process's threads have used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// watched runs fn on its own goroutine and waits at most phaseLimit
// for it. On expiry it asks the workers to stop and gives them
// stuckGrace to return; it reports false when fn has still not
// finished, which means a backend call never returned. Go cannot kill
// that goroutine; the run ends soon after and the process exit does.
func (p *pass) watched(fn func()) bool {
	done := make(chan struct{})
	timer := time.NewTimer(phaseLimit)
	defer timer.Stop()
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
		return true
	case <-timer.C:
	}
	p.stop.Store(true)
	p.stuckDone = done
	select {
	case <-done:
	case <-time.After(stuckGrace):
	}
	return false // stopped short of its budget, or still stuck: a wedge either way
}

// stuck counts workers still inside a backend call.
func (p *pass) stuck() int {
	n := 0
	for _, wk := range p.workers {
		if wk.busy.Load() {
			n++
		}
	}
	return max(n, 1)
}
