package timewarp

import (
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// TestHistoryLogs drives the per-LP input and send logs the way the LP
// does — the settling step's sends given back, steps appended in time
// order, a prefix fossil-collected, a suffix rolled back — and checks
// after each move that every held step still reads back exactly what it
// logged and that the logs hold nothing else. (The undo log's marks are
// covered by the kernel's TestUndoMarks.)
func TestHistoryLogs(t *testing.T) {
	l := &tlp[logic.Value]{}
	type logged struct {
		in   []uint64 // ids of the consumed inputs
		sent []uint64
	}
	want := map[circuit.Tick]logged{}
	next := uint64(1)
	ids := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = next
			next++
		}
		return out
	}
	now := circuit.Tick(0)
	exec := func(nin, nsent int) {
		now++
		s := step[logic.Value]{time: now}
		w := logged{in: ids(nin), sent: ids(nsent)}
		s.inputs.lo = len(l.inLog)
		for _, id := range w.in {
			l.inLog = append(l.inLog, qevent[logic.Value]{id: id})
		}
		s.sent.lo = len(l.sentLog)
		for _, id := range w.sent {
			l.sentLog = append(l.sentLog, sentRec[logic.Value]{id: id})
		}
		s.inputs.hi, s.sent.hi = len(l.inLog), len(l.sentLog)
		l.steps = append(l.steps, s)
		want[s.time] = w
	}
	check := func(when string) {
		t.Helper()
		var nin, nsent int
		for i, s := range l.steps {
			w := want[s.time]
			var in, sent []uint64
			for _, ev := range l.inLog[s.inputs.lo:s.inputs.hi] {
				in = append(in, ev.id)
			}
			for _, sr := range l.sentLog[s.sent.lo:s.sent.hi] {
				sent = append(sent, sr.id)
			}
			if !slices.Equal(in, w.in) || !slices.Equal(sent, w.sent) {
				t.Fatalf("%s: step %d reads in=%v sent=%v, logged %+v", when, i, in, sent, w)
			}
			nin, nsent = nin+len(in), nsent+len(sent)
		}
		if len(l.inLog) != nin || len(l.sentLog) != nsent {
			t.Fatalf("%s: logs hold %d/%d entries, the steps own %d/%d",
				when, len(l.inLog), len(l.sentLog), nin, nsent)
		}
	}

	// The settling step logs its sends outside any step; Begin gives them
	// back.
	l.sentLog = append(l.sentLog, sentRec[logic.Value]{id: 99}, sentRec[logic.Value]{id: 98})
	l.Begin()
	check("after the settling step")
	for _, n := range [][2]int{{2, 0}, {0, 0}, {5, 4}, {1, 1}, {7, 2}} {
		exec(n[0], n[1])
	}
	check("after five steps")

	// Fossil-collect the two oldest steps.
	l.steps = l.steps[:copy(l.steps, l.steps[2:])]
	l.dropLogPrefix()
	check("after collecting a prefix")

	// Roll back the newest two.
	l.truncateLogs(&l.steps[1])
	l.steps = l.steps[:1]
	check("after rolling back a suffix")

	exec(2, 2)
	check("after re-executing")

	// Collect everything.
	l.steps = l.steps[:0]
	l.dropLogPrefix()
	check("after collecting every step")
}
