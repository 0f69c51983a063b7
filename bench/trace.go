package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Spans are recorded from bench/ only; the program under
// test is not instrumented.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"` // -1 for a root span
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the tracer's origin
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// tracer keeps spans in one preallocated slice and writes them once at
// exit. A nil *tracer records nothing, so the measured loops call it
// unconditionally and the untraced run pays only a nil check. Every
// measured loop has one caller, so it needs no lock.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
}

// maxSpans bounds the trace: 4 spans per 256-frame batch at ~2500
// batches/s over the traced windows stays well below it.
const maxSpans = 1 << 18

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now(), spans: make([]span, 0, maxSpans)}
}

// begin opens a span and returns its id, or -1 when tracing is off or
// the buffer is full.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil || len(t.spans) == cap(t.spans) {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNS: int64(time.Since(t.origin)),
	})
	return id
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].EndNS = int64(time.Since(t.origin))
	}
}

// spanTotals is the per-name roll-up of a trace.
type spanTotals struct {
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
	// SelfNS is the total minus the time covered by child spans.
	SelfNS int64 `json:"self_ns"`
}

// totals sums duration and self time per span name. Children of one
// span never overlap here (the benchmark records them sequentially), so
// self time is the span minus the sum of its children.
func (t *tracer) totals() map[string]*spanTotals {
	out := make(map[string]*spanTotals)
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanTotals{}
			out[s.Name] = st
		}
		d := s.EndNS - s.StartNS
		st.Count++
		st.TotalNS += d
		st.SelfNS += d - child[i]
	}
	return out
}

// traceFile is what -trace <path> writes: the spans, their roll-up and
// the counts read at the same boundaries.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Spans    []span                 `json:"spans"`
	Totals   map[string]*spanTotals `json:"totals"`
	Counts   map[string]float64     `json:"counts"`
}

func writeTrace(path string, tf traceFile) error {
	buf, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
