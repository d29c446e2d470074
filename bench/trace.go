package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the index of the enclosing
// span in the trace (-1 for an iteration's root); spans of one iteration
// share its number.
type span struct {
	Name      string `json:"name"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Parent    int    `json:"parent"`
	Iteration int    `json:"iteration"`
}

// tracer records spans from the benchmark's own goroutine (the probes are
// serial, so there is no locking). A nil tracer still times the call, which
// is how the untraced pass of trace.overhead_share runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	iter  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// time runs fn inside a span named name and returns how long it took.
func (t *tracer) time(name string, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Iteration: t.iter})
	t.stack = append(t.stack, id)
	start := time.Now()
	fn()
	end := time.Now()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].Start = start.Sub(t.t0).Nanoseconds()
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
	return end.Sub(start)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(spans, s, children[i]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's.
func covered(spans []span, parent span, kids []int) int64 {
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
	var total int64
	at := parent.Start
	for _, k := range kids {
		lo, hi := max(spans[k].Start, at), min(spans[k].End, parent.End)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// write stores the trace as one JSON document: the spans plus each layer's
// self time in seconds, so a reader does not have to redo the subtraction.
func (t *tracer) write(path string) error {
	self := make(map[string]float64)
	for name, d := range selfTimes(t.spans) {
		self[name] = d.Seconds()
	}
	data, err := json.Marshal(struct {
		Spans []span             `json:"spans"`
		Self  map[string]float64 `json:"self_s"`
	}{t.spans, self})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
