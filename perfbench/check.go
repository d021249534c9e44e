package main

import (
	"fmt"
	"io"

	"repro"
)

// maxReports caps the violations printed per backend and round; every
// violation is still counted.
const maxReports = 5

// verify checks every answer the instance gave once it is quiescent,
// and returns the number of violations (each one failed op) and the
// ops the check itself issued.
func (p *pass) verify(b *backendRun, prefillOK []bool) (int, uint64) {
	if p.w.sets {
		final := make([]bool, setKeys)
		for k := range final {
			got, err := b.ops.Do(0, opContains, uint64(k))
			if err != nil {
				p.workers[0].noteIllegal(err)
			}
			final[k] = got == 1
		}
		return checkSet(b.name, p.workers, final, p.log), setKeys
	}
	drained := drain(b, p.workers)
	var failed int
	failed, p.seen = checkContainer(b.name, p.workers, prefillOK, drained, p.seen, p.log)
	return failed, uint64(len(drained) + 1)
}

// drain pops the quiescent instance empty as pid 0 (deques from the
// left) and returns the values. It stops after one more value than the
// successful pushes could have left behind, so a backend inventing
// values cannot keep it looping.
func drain(b *backendRun, workers []*worker) []uint64 {
	left := prefillN
	for _, wk := range workers {
		left += wk.hi/2 - len(wk.failedPush) - len(wk.popped)
	}
	code := opPop
	if b.kind == repro.KindDeque {
		code = opPopLeft
	}
	var out []uint64
	for len(out) <= left {
		v, err := b.ops.Do(0, code, 0)
		if err != nil {
			if !b.legal(err) {
				workers[0].noteIllegal(err)
			}
			break
		}
		out = append(out, v)
	}
	return out
}

// checkContainer checks exactly-once delivery over a stack, queue or
// deque's whole life: no value is returned twice, none is returned
// that no successful push produced, and the pops plus the quiescent
// drain account for every successful push. Each violation counts as
// one failed op and is printed with the backend and value. seen is a
// reusable bitmap; the grown one is returned.
func checkContainer(name string, workers []*worker, prefillOK []bool, drained []uint64, seen []uint64, log io.Writer) (int, []uint64) {
	nw := len(workers)
	hi := 0
	for _, wk := range workers {
		hi = max(hi, wk.hi)
	}
	// Bit v-1 stands for worker value v; prefill value j sits after
	// every worker value.
	bits := nw*hi + prefillN
	seen = grow(seen, bits)
	failedPush := make([]map[int]bool, nw)
	for i, wk := range workers {
		failedPush[i] = map[int]bool{}
		for _, idx := range wk.failedPush {
			failedPush[i][idx] = true
		}
	}
	failed := 0
	report := func(format string, args ...any) {
		failed++
		if failed <= maxReports {
			fmt.Fprintf(log, "perfbench: %s: "+format+"\n", append([]any{name}, args...)...)
		}
	}
	// pushed reports whether v is a value some push returned success
	// for, and its bit.
	pushed := func(v uint64) (int, bool) {
		if v >= prefillBase {
			j := v - prefillBase
			return nw*hi + int(j), j < uint64(len(prefillOK)) && prefillOK[j]
		}
		if v == 0 {
			return 0, false
		}
		idx := int(v - 1)
		wk, i := idx%nw, idx/nw
		return idx, i < workers[wk].hi && i&1 == 0 && !failedPush[wk][i]
	}
	account := func(v uint64) {
		bit, ok := pushed(v)
		switch {
		case !ok:
			report("value %d returned but never successfully pushed", v)
		case seen[bit/64]&(1<<(bit%64)) != 0:
			report("value %d returned twice", v)
		default:
			seen[bit/64] |= 1 << (bit % 64)
		}
	}
	for _, wk := range workers {
		for _, v := range wk.popped {
			account(v)
		}
	}
	for _, v := range drained {
		account(v)
	}
	lost := func(v uint64) {
		if bit, ok := pushed(v); ok && seen[bit/64]&(1<<(bit%64)) == 0 {
			report("value %d pushed successfully but never returned", v)
		}
	}
	for j := range prefillOK {
		lost(prefillBase + uint64(j))
	}
	for _, wk := range workers {
		for i := 0; i < wk.hi; i += 2 {
			lost(value(nw, wk.id, i))
		}
	}
	if failed > maxReports {
		fmt.Fprintf(log, "perfbench: %s: %d violations in all\n", name, failed)
	}
	return failed, seen
}

// grow returns a zeroed bitmap of at least n bits, reusing b.
func grow(b []uint64, n int) []uint64 {
	words := (n + 63) / 64
	if cap(b) < words {
		return make([]uint64, words)
	}
	b = b[:words]
	clear(b)
	return b
}

// checkSet checks per-key balance: each key's final Contains must
// equal its initial membership (empty; the prefill Adds are in worker
// 0's log) plus the successful Adds minus the successful Removes. Each
// unbalanced key counts as one failed op.
func checkSet(name string, workers []*worker, final []bool, log io.Writer) int {
	failed := 0
	for k, member := range final {
		n := 0
		for _, wk := range workers {
			n += int(wk.adds[k]) - int(wk.removes[k])
		}
		if (n == 0 && !member) || (n == 1 && member) {
			continue
		}
		failed++
		if failed <= maxReports {
			fmt.Fprintf(log, "perfbench: %s: key %d: Adds minus Removes is %d but Contains says %v\n", name, k, n, member)
		}
	}
	if failed > maxReports {
		fmt.Fprintf(log, "perfbench: %s: %d unbalanced keys in all\n", name, failed)
	}
	return failed
}
