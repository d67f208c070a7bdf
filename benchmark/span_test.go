package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// A root with two children, one of which has a child of its own:
//
//	run    [0, 100]
//	  load [10, 30]
//	  sim  [40, 90]
//	    gc [50, 60]
func fixedSpans() *recorder {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return &recorder{spans: []span{
		{name: "run", workload: "w", parent: -1, start: ms(0), end: ms(100)},
		{name: "load", workload: "w", parent: 0, start: ms(10), end: ms(30)},
		{name: "sim", workload: "w", parent: 0, start: ms(40), end: ms(90)},
		{name: "gc", workload: "w", parent: 2, start: ms(50), end: ms(60)},
	}}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	self := fixedSpans().selfTimes()
	want := []time.Duration{30, 20, 40, 10} // milliseconds
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("span %d self time = %v, want %v", i, self[i], w*time.Millisecond)
		}
	}
	var sum time.Duration
	for _, s := range self {
		sum += s
	}
	if sum != 100*time.Millisecond {
		t.Errorf("self times sum to %v, want the root's 100ms", sum)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	r.workload = "w"
	root := r.begin("run")
	if err := r.do("load", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	r.do("sim", func() error { return r.do("inner", func() error { return nil }) })
	r.end()
	parents := []int{-1, root, root, 2}
	for i, p := range parents {
		if r.spans[i].parent != p {
			t.Errorf("span %d (%s) parent = %d, want %d", i, r.spans[i].name, r.spans[i].parent, p)
		}
		if r.spans[i].end < r.spans[i].start {
			t.Errorf("span %d (%s) ends before it starts", i, r.spans[i].name)
		}
	}
	if len(r.open) != 0 {
		t.Errorf("%d spans left open", len(r.open))
	}
}

func TestNilRecorderRunsTheCall(t *testing.T) {
	var r *recorder
	ran := false
	if err := r.do("load", func() error { ran = true; return nil }); err != nil || !ran {
		t.Errorf("nil recorder: ran=%v err=%v", ran, err)
	}
}

func TestChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedSpans().writeChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Args struct {
				Workload string
				Parent   int
				SelfUs   float64 `json:"self_us"`
			}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("%d events, want 4", len(doc.TraceEvents))
	}
	sim := doc.TraceEvents[2]
	if sim.Name != "sim" || sim.Ph != "X" || sim.Ts != 40000 || sim.Dur != 50000 ||
		sim.Args.Parent != 0 || sim.Args.Workload != "w" || sim.Args.SelfUs != 40000 {
		t.Errorf("sim event = %+v", sim)
	}
}
