package timewarp

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
)

// len is the number of tombstones held.
func (ts *tombs) len() int { return len(ts.head) + len(ts.rest) }

// TestTombsMatchMap holds the tombstones to a map of annihilated ids, the
// structure they replaced, on random traffic into LP 0 from 1-7 senders:
// values (stragglers among them), anti-messages for queued and for
// consumed originals, the rollback requeues both force, pops in time
// order (equal times in random order), and cut captures. The traffic
// keeps the protocol's promise that an anti-message follows its original
// and rolls the LP back past it when the original was consumed.
func TestTombsMatchMap(t *testing.T) {
	type entry struct {
		t  circuit.Tick
		id uint64
	}
	for trial := 0; trial < 400; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		senders := 1 + rng.Intn(7)
		seq := make([]uint64, senders+1)
		var ts tombs
		ref := map[uint64]bool{}
		var queue, consumed []entry // consumed in pop order
		clock := circuit.Tick(0)
		fail := func(op int, format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d (%d senders), op %d: "+format, append([]any{trial, senders, op}, args...)...)
		}
		// rollback requeues every consumed entry at or after at, each
		// checked against the tombstones on the way, as tlp.rollback does.
		rollback := func(op int, at circuit.Tick) {
			n := 0
			for _, e := range consumed {
				if e.t < at {
					consumed[n] = e
					n++
					continue
				}
				if got := ts.take(tomb{e.t, e.id}); got != ref[e.id] {
					fail(op, "requeue of %#x at %d: tombstoned %v, map %v", e.id, e.t, got, ref[e.id])
				}
				queue = append(queue, e)
			}
			consumed = consumed[:n]
			clock = 0
			if n > 0 {
				clock = consumed[n-1].t
			}
		}
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(10); {
			case k < 4: // a value, a straggler one time in four
				s := 1 + rng.Intn(senders)
				seq[s]++
				e := entry{max(clock+circuit.Tick(rng.Intn(12))-3, 1), uint64(s)<<idShift | seq[s]}
				if e.t <= clock {
					rollback(op, e.t)
				}
				queue = append(queue, e)
			case k < 6: // an anti-message for a live original
				var live []entry
				for _, e := range append(queue[:len(queue):len(queue)], consumed...) {
					if !ref[e.id] {
						live = append(live, e)
					}
				}
				if len(live) == 0 {
					continue
				}
				e := live[rng.Intn(len(live))]
				if e.t <= clock {
					rollback(op, e.t)
				}
				ts.bury(tomb{e.t, e.id})
				ref[e.id] = true
			case k < 9: // the queue's earliest entry leaves it
				if len(queue) == 0 {
					continue
				}
				var ties []int
				for i, e := range queue {
					if len(ties) == 0 || e.t < queue[ties[0]].t {
						ties = ties[:0]
					}
					if len(ties) == 0 || e.t == queue[ties[0]].t {
						ties = append(ties, i)
					}
				}
				i := ties[rng.Intn(len(ties))]
				e := queue[i]
				queue = append(queue[:i], queue[i+1:]...)
				got, want := ts.take(tomb{e.t, e.id}), ref[e.id]
				if got != want {
					fail(op, "pop of %#x at %d: tombstoned %v, map %v", e.id, e.t, got, want)
				}
				delete(ref, e.id)
				if !got {
					consumed = append(consumed, e)
					clock = e.t
				}
			default: // a cut capture reads every queued entry
				buried := ts.sorted(nil)
				for _, e := range queue {
					if got := has(buried, tomb{e.t, e.id}); got != ref[e.id] {
						fail(op, "capture of %#x at %d: tombstoned %v, map %v", e.id, e.t, got, ref[e.id])
					}
				}
			}
			if ts.len() != len(ref) {
				fail(op, "%d tombstones, map holds %d", ts.len(), len(ref))
			}
		}
	}
}
