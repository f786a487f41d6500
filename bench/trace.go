package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Parent is the id of the span that caused
// it (-1 for a root); the spans of one workload share Workload.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes run the same code with the
// timers off. It is used from one goroutine at a time.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id; -1 from a nil tracer.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, ID: id, Parent: parent,
		StartNS: int64(time.Since(t.origin))})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.origin))
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	calls int
	total time.Duration
	// self is total minus the part covered by direct child spans.
	self time.Duration
	// durations holds each span's length, for percentiles.
	durations []int64
}

// mark returns the id the next span will get; two marks delimit the
// spans of one pass.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// truncate drops the spans from mark on: a repeated pass keeps only the
// spans of its last repetition.
func (t *tracer) truncate(mark int) {
	if t != nil {
		t.spans = t.spans[:mark]
	}
}

// byName folds the spans with ids in [from, to) into per-name totals
// and self times.
func (t *tracer) byName(from, to int) map[string]*layerTime {
	out := make(map[string]*layerTime)
	if t == nil {
		return out
	}
	children := make([]int64, len(t.spans))
	for _, s := range t.spans[from:to] {
		if s.Parent >= 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for i, s := range t.spans[from:to] {
		i += from
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.EndNS - s.StartNS
		lt.calls++
		lt.total += time.Duration(d)
		lt.self += time.Duration(d - children[i])
		lt.durations = append(lt.durations, d)
	}
	return out
}

// dump writes the spans to dir/trace-<workload>.json.
func (t *tracer) dump(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), data, 0o644)
}
