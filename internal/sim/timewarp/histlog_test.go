package timewarp

import (
	"slices"
	"testing"

	"repro/internal/logic"
)

// TestHistoryLogs drives the three per-LP history logs the way the LP
// does — steps appended in time order, a step that is not kept, a prefix
// fossil-collected, a suffix rolled back — and checks after each move that
// every held step still reads back exactly what it logged and that the
// logs hold nothing else.
func TestHistoryLogs(t *testing.T) {
	l := &tlp[logic.Value]{}
	type logged struct {
		in      []uint64 // ids of the consumed inputs
		sent    []uint64
		created []uint64
	}
	want := map[*step[logic.Value]]logged{}
	next := uint64(1)
	ids := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = next
			next++
		}
		return out
	}
	exec := func(nin, nsent, ncreated int, keep bool) {
		s := &step[logic.Value]{}
		w := logged{in: ids(nin), sent: ids(nsent), created: ids(ncreated)}
		s.inputs.lo = len(l.inLog)
		for _, id := range w.in {
			l.inLog = append(l.inLog, qevent[logic.Value]{id: id})
		}
		l.beginStep(s)
		for _, id := range w.sent {
			l.sentLog = append(l.sentLog, sentRec[logic.Value]{id: id})
		}
		l.createdLog = append(l.createdLog, w.created...)
		l.endStep(s, keep)
		if keep {
			l.steps = append(l.steps, s)
			want[s] = w
		}
	}
	check := func(when string) {
		t.Helper()
		var nin, nsent, ncreated int
		for i, s := range l.steps {
			w := want[s]
			var in, sent []uint64
			for _, ev := range l.inLog[s.inputs.lo:s.inputs.hi] {
				in = append(in, ev.id)
			}
			for _, sr := range l.sentLog[s.sent.lo:s.sent.hi] {
				sent = append(sent, sr.id)
			}
			created := l.createdLog[s.created.lo:s.created.hi]
			if !slices.Equal(in, w.in) || !slices.Equal(sent, w.sent) || !slices.Equal(created, w.created) {
				t.Fatalf("%s: step %d reads in=%v sent=%v created=%v, logged %+v", when, i, in, sent, created, w)
			}
			nin, nsent, ncreated = nin+len(in), nsent+len(sent), ncreated+len(created)
		}
		if len(l.inLog) != nin || len(l.sentLog) != nsent || len(l.createdLog) != ncreated {
			t.Fatalf("%s: logs hold %d/%d/%d entries, the steps own %d/%d/%d",
				when, len(l.inLog), len(l.sentLog), len(l.createdLog), nin, nsent, ncreated)
		}
	}

	exec(3, 2, 4, false) // the settling step: logged, then given back
	check("after an unkept step")
	for _, n := range [][3]int{{2, 0, 3}, {0, 0, 0}, {5, 4, 1}, {1, 1, 0}, {7, 2, 2}} {
		exec(n[0], n[1], n[2], true)
	}
	check("after five steps")

	// Fossil-collect the two oldest steps.
	l.steps = l.steps[:copy(l.steps, l.steps[2:])]
	l.dropLogPrefix()
	check("after collecting a prefix")

	// Roll back the newest two.
	suffix := l.steps[1:]
	l.truncateLogs(suffix[0])
	l.steps = l.steps[:1]
	check("after rolling back a suffix")

	exec(2, 2, 2, true)
	check("after re-executing")

	// Collect everything.
	l.steps = l.steps[:0]
	l.dropLogPrefix()
	check("after collecting every step")
}
