package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans are recorded by the benchmark
// around the public functions it calls; the program itself is not
// instrumented. Each span holds its wall-clock interval and the process CPU
// time at its ends; self times are CPU time, like the end-to-end figures
// they divide.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // wall clock, since the tracer started
	End      int64  `json:"end_ns"`
	CPUStart int64  `json:"cpu_start_ns"` // process CPU time
	CPUEnd   int64  `json:"cpu_end_ns"`
	Parent   int    `json:"parent"` // index of the enclosing span, -1 at the root
	Req      int64  `json:"req"`    // the request (one translated module) it belongs to
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time. A nil *tracer records nothing, which is how the same
// code runs untraced.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of the spans not yet ended, innermost last
	req   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request starts a new request id for the spans that follow.
func (t *tracer) request() {
	if t != nil {
		t.req++
	}
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), CPUStart: int64(cpuTime()), Parent: parent, Req: t.req})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open)
	s := &t.spans[t.open[n-1]]
	s.End, s.CPUEnd = int64(time.Since(t.t0)), int64(cpuTime())
	t.open = t.open[:n-1]
}

// do records fn as one span.
func (t *tracer) do(name string, fn func()) {
	t.begin(name)
	fn()
	t.end()
}

func (s span) wall() time.Duration { return time.Duration(s.End - s.Start) }
func (s span) cpu() time.Duration  { return time.Duration(s.CPUEnd - s.CPUStart) }

// last returns the most recently recorded span.
func (t *tracer) last() span { return t.spans[len(t.spans)-1] }

// mark returns a position for selfTimes to count from.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// selfTimes sums, per span name, the spans' CPU time minus the CPU time
// their child spans cover, over the spans recorded since from.
func (t *tracer) selfTimes(from int) map[string]time.Duration {
	return selfTimes(t.spans, from)
}

func selfTimes(spans []span, from int) map[string]time.Duration {
	child := make([]time.Duration, len(spans))
	for i := from; i < len(spans); i++ {
		if p := spans[i].Parent; p >= from {
			child[p] += spans[i].cpu()
		}
	}
	self := map[string]time.Duration{}
	for i := from; i < len(spans); i++ {
		self[spans[i].Name] += spans[i].cpu() - child[i]
	}
	return self
}

// dump writes every span to dir/name as JSON.
func (t *tracer) dump(dir, name string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
