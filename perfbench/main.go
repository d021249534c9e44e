// Command perfbench is the repository's benchmark: a single-process,
// closed-loop driver of repro.Catalog() backends through repro.Drive.
// It runs one named workload, checks every answer, and prints one JSON
// result as the last line of standard output: the end-to-end metrics,
// or with --trace 1 the per-layer metrics of a separate traced run.
//
//	bash perfbench/run.sh --workload containers-contended --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package from source first; from this directory,
// go run . takes the same flags. --workload also takes the diagnostics
// (lease-takeover, lease-takeover-set), which BENCHMARK.json does not
// list because ops fail in them.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// gcPercent is the GOGC the benchmark runs at.
const gcPercent = 800

// traceDir is where a traced run writes its spans, under the
// checkout's build directory.
const traceDir = ".bench_build/trace"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed of the generated op streams")
	seconds := fs.Float64("seconds", 10, "timed seconds to measure")
	trace := fs.Int("trace", 0, "1: run the traced pass and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, trace %d, seconds %g: %v\n", *name, *trace, *seconds, err)
		return 2
	}
	cat, err := resolve(w)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	workers := min(w.workers, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if workers < w.workers {
		fmt.Fprintf(stderr, "perfbench: only %d CPUs; %s runs %d workers instead of %d\n", workers, w.name, workers, w.workers)
		w.workers = workers
	}

	// The process's own heap is a few MB, so at the default GOGC the
	// collector would run over a hundred times a second on the
	// allocating backends, and its mark worker, which takes one of the
	// two Ps, would decide from run to run how much the workers really
	// contend. A larger target keeps collection in the measurement but
	// makes it rarer.
	debug.SetGCPercent(gcPercent)

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%d workers=%d gomaxprocs=%d numcpu=%d gogc=%d cpu=%q go=%s git=%s\n",
		w.name, *seed, *seconds, *trace, w.workers, runtime.GOMAXPROCS(0), runtime.NumCPU(), gcPercent, cpuModel(), runtime.Version(), gitSHA())
	fmt.Fprintf(out, "# why: %s\n", w.why)

	// Every wrong answer is counted as a failed op, printed with its
	// backend and value, and does not end the run. correct says every
	// answer was checked (no backend wedged) and every failed op came
	// from an instance that is a suspect of the known combine.Core lease
	// defect: one that shows a lease steal, or an adaptive backend whose
	// replaced combining rung can no longer be read. A wrong answer
	// anywhere else makes the run incorrect.
	res := result{Metrics: metricSet{}}
	var wedged bool
	var unexplained uint64
	if *trace == 0 {
		p := newPass(w, cat, *seed, newTracer(false), stderr)
		p.run(*seconds)
		p.report(out)
		endToEnd(p, res.Metrics)
		wedged, unexplained = p.wedged, p.unexplained
		res.Attempted, res.Failed = p.attempted, p.failed
	} else {
		// An untraced reference pass and the traced pass share the
		// seconds; the per-layer metrics come from the traced pass only.
		ref := newPass(w, cat, *seed, newTracer(false), stderr)
		ref.run(*seconds / 2)
		tr := newTracer(true)
		p := newPass(w, cat, *seed, tr, stderr)
		p.run(*seconds / 2)
		p.report(out)
		perLayer(p, res.Metrics)
		probes(tr, res.Metrics)
		res.Metrics.add("trace.overhead_frac", 1-throughput(p)/throughput(ref), "frac")
		path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "# trace: %d spans in %s\n", len(tr.spans), path)
		wedged, unexplained = ref.wedged || p.wedged, ref.unexplained+p.unexplained
		res.Attempted, res.Failed = ref.attempted+p.attempted, ref.failed+p.failed
	}
	res.Correct = !wedged && unexplained == 0
	fmt.Fprintf(out, "# failed_frac=%g (%d of %d ops; %d with no lease steal to explain them)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted, unexplained)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// report prints one comment row per backend and a summary of the
// measured rounds.
func (p *pass) report(out io.Writer) {
	for i, t := range p.per {
		fmt.Fprintf(out, "# %-28s ops/round=%-8d ns/op=%-8.1f failed=%-4d steals=%d\n",
			t.name, t.roundOps, p.backendNs(i)/float64(max(t.roundOps, 1)), t.failed, t.steals)
	}
	counted := 0
	for _, r := range p.rounds {
		if r.counts {
			counted++
		}
	}
	var samples uint64
	for _, r := range p.measured() {
		samples += r.samples
	}
	// cpu_share is the process's CPU time over workers × wall time in
	// the timed phases: near 1 when each worker had a core of its own.
	fmt.Fprintf(out, "# rounds=%d counted=%d latency_samples=%d cpu_share=%.2f\n", len(p.rounds), counted, samples,
		median(p.rounds, func(r roundTotals) float64 { return r.share(p.w.workers) }))
}

// throughput is completed timed ops per second across all workers, in
// millions: one round's ops over the sum of each backend's median
// timed phase, so that one backend's slow round does not move it.
func throughput(p *pass) float64 {
	var ops uint64
	var ns float64
	for i, t := range p.per {
		ops += t.roundOps
		ns += p.backendNs(i)
	}
	if ns == 0 {
		return 0 // the first round wedged
	}
	return 1e3 * float64(ops) / ns
}

// endToEnd fills the metrics a caller of the library sees.
func endToEnd(p *pass, m metricSet) {
	m.add("throughput_mops", throughput(p), "Mops/s")
	rs := p.measured()
	m.add("op_p50_ns", median(rs, func(r roundTotals) float64 { return r.p50 }), "ns")
	m.add("op_p99_ns", median(rs, func(r roundTotals) float64 { return r.p99 }), "ns")
	m.add("allocs_per_op", median(rs, func(r roundTotals) float64 { return float64(r.mallocs) / float64(r.ops) }), "count")
	m.add("bytes_per_op", median(rs, func(r roundTotals) float64 { return float64(r.bytes) / float64(r.ops) }), "B")
	m.add("heap_live_mb", float64(p.heap)/1e6, "MB")
	m.add("setup_s", median(rs, func(r roundTotals) float64 { return float64(r.setupNs) / 1e9 }), "s")
}

// perLayer fills the per-layer metrics of a traced pass. Every
// backend any workload runs has its rows; a backend this workload does
// not run reads 0.
func perLayer(p *pass, m metricSet) {
	p.layers.metrics(m, len(p.rounds))
	index := map[string]int{}
	for i, t := range p.per {
		index[t.name] = i
	}
	for _, name := range allBackends() {
		key := strings.ReplaceAll(name, "/", ".")
		t, nsPerOp := &backendTotals{}, 0.0
		if i, ok := index[name]; ok {
			t = p.per[i]
			nsPerOp = p.backendNs(i) / float64(max(t.roundOps, 1))
		}
		m.add(key+".ns_per_op", nsPerOp, "ns")
		m.add(key+".failed", float64(t.failed)/float64(max(len(p.rounds), 1)), "count/round")
		if strings.HasPrefix(name, "set/") {
			for _, class := range []string{"read", "write", "erase"} {
				d := slices.Clone(t.classNs[class])
				slices.Sort(d)
				m.add(key+"."+class+"_p50_ns", rank(d, 0.50), "ns")
			}
		}
	}
}

// allBackends lists every backend of every workload, once, in order.
func allBackends() []string {
	var out []string
	for _, w := range workloads {
		for _, e := range w.backends {
			if !slices.Contains(out, e.name) {
				out = append(out, e.name)
			}
		}
	}
	return out
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA names the commit measured: $GIT_SHA or $GITHUB_SHA when set,
// else git's HEAD when the working directory is the top of a
// repository (a checkout nested in some other repository is not).
func gitSHA() string {
	for _, k := range []string{"GIT_SHA", "GITHUB_SHA"} {
		if v := os.Getenv(k); v != "" {
			return v
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	b, err := exec.CommandContext(ctx, "git", "rev-parse", "--show-toplevel", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	top, sha, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	wd, err := os.Getwd()
	if err != nil || !sameDir(top, wd) {
		return "unknown"
	}
	return sha
}

func sameDir(a, b string) bool {
	ia, errA := os.Stat(a)
	ib, errB := os.Stat(b)
	return errA == nil && errB == nil && os.SameFile(ia, ib)
}
