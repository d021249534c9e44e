package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// A span is one timed interval of a traced run: a backend, one of its
// phases (setup, warmup, timed, verify), a sampled Do call under its
// backend's timed phase, or a layer probe.
type span struct {
	id, parent int32
	name       string
	start, end int64 // ns since the tracer's epoch
}

// A tracer keeps spans in memory and writes them out when the run
// ends. A tracer that is off records nothing and costs one branch.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.epoch)) }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	now := t.at(time.Now())
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: now, end: now})
	return id
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].end = t.at(time.Now())
	}
}

// adopt takes over spans recorded by a worker, giving them ids.
func (t *tracer) adopt(ss []span) {
	for _, s := range ss {
		s.id = int32(len(t.spans))
		t.spans = append(t.spans, s)
	}
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		rec := struct {
			ID     int32  `json:"id"`
			Parent int32  `json:"parent"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.id, s.parent, s.name, s.start, s.end}
		if err := enc.Encode(rec); err != nil {
			return "", fmt.Errorf("trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}
