package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed call into a layer. Spans are recorded from this
// package's own files, around the public functions cmd/parsim calls;
// spans inside the program are a later change.
type span struct {
	name       string
	workload   string
	parent     int // index into recorder.spans, -1 for a root
	start, end time.Duration
}

// recorder keeps spans in memory until the benchmark ends. It serves
// one goroutine: begin and end nest like calls, so the children of a
// span never overlap. A nil recorder records nothing, which is how the
// same pipeline code runs with tracing off.
type recorder struct {
	epoch    time.Time
	workload string
	spans    []span
	open     []int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, workload: r.workload, parent: parent, start: time.Since(r.epoch)})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span.
func (r *recorder) end() {
	id := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[id].end = time.Since(r.epoch)
}

// do runs f inside a span; on a nil recorder it just runs f.
func (r *recorder) do(name string, f func() error) error {
	if r == nil {
		return f()
	}
	r.begin(name)
	defer r.end()
	return f()
}

// selfTimes returns every span's self time: its duration minus the part
// its child spans cover.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// writeChromeTrace writes the spans as Chrome trace_event JSON
// (chrome://tracing, Perfetto): one complete event per span, one track
// per workload.
func (r *recorder) writeChromeTrace(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	micros := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	self := r.selfTimes()
	tracks := map[string]int{}
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		tid, ok := tracks[s.workload]
		if !ok {
			tid = len(tracks) + 1
			tracks[s.workload] = tid
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Ts: micros(s.start), Dur: micros(s.end - s.start), Pid: 1, Tid: tid,
			Args: map[string]any{"workload": s.workload, "id": i, "parent": s.parent, "self_us": micros(self[i])},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
