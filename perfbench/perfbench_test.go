package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
)

func mustResolve(t *testing.T, w workload) []repro.Backend {
	t.Helper()
	cat, err := resolve(w)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// A wrapper builds a backend's Ops from the harness's own builder.
type wrapper func(inner func(repro.Backend) repro.Ops, b repro.Backend) repro.Ops

// onePass runs one round of a single-worker workload over names, each
// with the given budget and built through wrap when it is not nil, and
// returns the pass, the round and the log.
func onePass(t *testing.T, sets bool, names []string, budget int, wrap wrapper) (*pass, roundTotals, string) {
	t.Helper()
	w := workload{name: "fixture", sets: sets, workers: 1}
	for _, n := range names {
		w.backends = append(w.backends, entry{n, budget})
	}
	var log strings.Builder
	p := newPass(w, mustResolve(t, w), 7, newTracer(false), &log)
	if wrap != nil {
		inner := p.build
		p.build = func(b repro.Backend) repro.Ops { return wrap(inner, b) }
	}
	r := p.round()
	if p.wedged {
		t.Fatalf("a backend wedged:\n%s", log.String())
	}
	return p, r, log.String()
}

func TestMutationFixtureIsCounted(t *testing.T) {
	// The fixture drops the 100th push while reporting success, and
	// makes the 20th pop return the 10th pop's value instead of its own:
	// one value returned twice, and two values never returned.
	var mutate wrapper = func(inner func(repro.Backend) repro.Ops, b repro.Backend) repro.Ops {
		ops := inner(b)
		do := ops.Do
		var pushes, pops int
		var tenth uint64
		ops.Do = func(pid, op int, v uint64) (uint64, error) {
			if op == opPush {
				if pushes++; pushes == 100 {
					return 0, nil
				}
				return do(pid, op, v)
			}
			got, err := do(pid, op, v)
			switch pops++; pops {
			case 10:
				tenth = got
			case 20:
				return tenth, err
			}
			return got, err
		}
		return ops
	}
	// With one worker no lease is ever stolen, so the failed ops of the
	// combining backend are no more explained than the Treiber stack's.
	for _, name := range []string{"stack/treiber", "stack/combining"} {
		p, _, log := onePass(t, false, []string{name}, 2000, mutate)
		if p.failed != 3 || p.per[0].failed != 3 {
			t.Fatalf("%s: failed = %d (backend %d), want 3; log:\n%s", name, p.failed, p.per[0].failed, log)
		}
		if p.unexplained != 3 {
			t.Errorf("%s: unexplained = %d, want 3: no steal explains them", name, p.unexplained)
		}
		for _, want := range []string{"returned twice", "never returned"} {
			if !strings.Contains(log, want) {
				t.Errorf("%s: log lacks %q:\n%s", name, want, log)
			}
		}
	}
}

func TestSetMutationIsCounted(t *testing.T) {
	// The fixture reports one refused Add as a successful one.
	p, _, log := onePass(t, true, []string{"set/hashset"}, 2000, func(inner func(repro.Backend) repro.Ops, b repro.Backend) repro.Ops {
		ops := inner(b)
		do := ops.Do
		lied := false
		ops.Do = func(pid, op int, v uint64) (uint64, error) {
			got, err := do(pid, op, v)
			if op == opAdd && got == 0 && !lied {
				lied = true
				return 1, err
			}
			return got, err
		}
		return ops
	})
	if p.failed != 1 || p.unexplained != 1 {
		t.Fatalf("failed = %d, unexplained %d, want 1 and 1; log:\n%s", p.failed, p.unexplained, log)
	}
}

func TestEveryBackendChecksCleanWithOneWorker(t *testing.T) {
	for _, w := range slices.Concat(workloads, diagnostics) {
		var names []string
		for _, e := range w.backends {
			names = append(names, e.name)
		}
		p, r, log := onePass(t, w.sets, names, 4000, nil)
		if p.failed != 0 {
			t.Errorf("%s: %d failed ops:\n%s", w.name, p.failed, log)
		}
		if r.ops == 0 || r.samples == 0 {
			t.Errorf("%s: measured nothing", w.name)
		}
	}
}

func TestTwoWorkersRunEveryWorkload(t *testing.T) {
	// Answers are not asserted here: the diagnostics' backends can lose
	// a lease to a descheduled combiner and double-apply a request. The
	// test is for the race detector and the watchdog.
	for _, w := range slices.Concat(workloads, diagnostics) {
		w.workers = 2
		w.backends = slices.Clone(w.backends)
		for i := range w.backends {
			w.backends[i].ops = 4000
		}
		p := newPass(w, mustResolve(t, w), 3, newTracer(true), io.Discard)
		p.round()
		if p.wedged {
			t.Fatalf("%s: a backend wedged", w.name)
		}
	}
}

func TestWatchdogReportsAWedgedBackend(t *testing.T) {
	defer func(limit, grace time.Duration) { phaseLimit, stuckGrace = limit, grace }(phaseLimit, stuckGrace)
	phaseLimit, stuckGrace = 200*time.Millisecond, 50*time.Millisecond
	block := make(chan struct{})
	// The fixture's 500th call never returns.
	var wedge wrapper = func(inner func(repro.Backend) repro.Ops, b repro.Backend) repro.Ops {
		ops := inner(b)
		do := ops.Do
		calls := 0
		ops.Do = func(pid, op int, v uint64) (uint64, error) {
			if calls++; calls == 500 {
				<-block
			}
			return do(pid, op, v)
		}
		return ops
	}
	w := workload{name: "fixture", workers: 1, backends: []entry{{"stack/treiber", 2000}, {"queue/non-blocking", 2000}}}
	p := newPass(w, mustResolve(t, w), 1, newTracer(false), io.Discard)
	inner := p.build
	p.build = func(b repro.Backend) repro.Ops { return wedge(inner, b) }
	p.run(10)
	close(block)
	<-p.stuckDone // later tests count allocations; let the stuck phase finish first
	if !p.wedged || p.failed != 1 || len(p.rounds) != 1 {
		t.Fatalf("wedged %v, failed %d, rounds %d; want a wedge, 1 failed op, 1 round", p.wedged, p.failed, len(p.rounds))
	}
}

func TestPooledBackendsDoNotAllocate(t *testing.T) {
	// The pooled backends allocate nothing per op once warm, so any
	// allocation here would be the harness loop's own.
	pooled := []string{"stack/treiber-pooled", "stack/combining-pooled", "queue/michael-scott-pooled", "queue/combining-pooled"}
	for _, name := range pooled {
		_, r, _ := onePass(t, false, []string{name}, 20000, nil)
		if r.mallocs != 0 || r.bytes != 0 {
			t.Errorf("%s: %d allocations, %d bytes over %d timed ops", name, r.mallocs, r.bytes, r.ops)
		}
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	for _, w := range slices.Concat(workloads, diagnostics) {
		a, b := encodeStreams(w.streams(42)), encodeStreams(w.streams(42))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 42 gave two different streams", w.name)
		}
		if bytes.Equal(a, encodeStreams(w.streams(43))) {
			t.Errorf("%s: seeds 42 and 43 gave the same stream", w.name)
		}
	}
}

func TestWorkloadsResolve(t *testing.T) {
	for _, w := range slices.Concat(workloads, diagnostics) {
		if _, err := resolve(w); err != nil {
			t.Error(err)
		}
	}
	bad := workload{name: "bad", workers: 1, backends: []entry{{"stack/no-such", 10}}}
	if _, err := resolve(bad); err == nil {
		t.Error("an unknown backend name resolved")
	}
}

// TestNoLeaseBackendIsContended checks that no benchmark workload runs
// a diagnostic's backend with more than one worker, where its ops fail.
func TestNoLeaseBackendIsContended(t *testing.T) {
	for _, w := range workloads {
		if w.workers < 2 {
			continue
		}
		for _, e := range w.backends {
			for _, d := range diagnostics {
				if slices.ContainsFunc(d.backends, func(x entry) bool { return x.name == e.name }) {
					t.Errorf("%s runs %s with %d workers", w.name, e.name, w.workers)
				}
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errs strings.Builder
	if code := run([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errs); code == 0 {
		t.Fatalf("exit code 0 for an unknown workload")
	}
	if strings.Contains(out.String(), "{") {
		t.Errorf("printed a result: %s", out.String())
	}
}

// TestManifestMatches checks that BENCHMARK.json lists exactly the
// workloads and metrics this program runs and prints.
func TestManifestMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q %q", i, doc.Workloads[i], w.name, w.why)
		}
	}

	p, _, _ := onePass(t, false, []string{"stack/treiber"}, 2000, nil)
	e2e := metricSet{}
	endToEnd(p, e2e)
	layers := metricSet{}
	perLayer(p, layers)
	probes(newTracer(true), layers)
	layers.add("trace.overhead_frac", 0, "frac")
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		got    metricSet
	}{{doc.EndToEnd, e2e}, {doc.PerLayer, layers}} {
		if len(c.listed) != len(c.got) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program prints %d", len(c.listed), len(c.got))
		}
		for _, m := range c.listed {
			if got, ok := c.got[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("metric %s (%s): printed as %+v, %v", m.Name, m.Unit, got, ok)
			}
		}
	}
}
