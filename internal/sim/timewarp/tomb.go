package timewarp

import (
	"cmp"
	"slices"

	"repro/internal/circuit"
)

// tomb is the tombstone of a queued remote entry an anti-message
// annihilated: the anti-message carries its original's time and id.
type tomb struct {
	time circuit.Tick
	id   uint64
}

// compareTombs orders tombstones by (time, id).
func compareTombs(a, b tomb) int {
	return cmp.Or(cmp.Compare(a.time, b.time), cmp.Compare(a.id, b.id))
}

// tombs is an LP's tombstones in (time, id) order.
//
// Every tombstone's original is queued, at a time past the LP's clock: an
// anti-message at or before the clock rolls the LP back first, which
// requeues its original. Entries leave the queue in time order, so an
// entry leaving at t meets only the tombstones at t, and none is earlier.
// Those sit in head, sorted by id, where each entry leaving at t looks
// itself up; the others wait in a binary min-heap, rest, and come out as
// the queue reaches their time. Every operation costs O(log n), however
// far apart the tombstones' times lie: a rollback storm holds tens of
// thousands of them, and a sorted slice, paying O(n) per insertion,
// stalled it.
type tombs struct {
	at   circuit.Tick // the time of the tombstones in head
	head []tomb
	rest []tomb
}

// bury adds k.
func (ts *tombs) bury(k tomb) {
	if len(ts.head) > 0 && k.time == ts.at {
		i, _ := slices.BinarySearchFunc(ts.head, k, compareTombs)
		ts.head = slices.Insert(ts.head, i, k)
		return
	}
	ts.rest = append(ts.rest, k)
	up(ts.rest, len(ts.rest)-1)
}

// take removes k, the tombstone of an entry leaving the queue at k.time,
// and reports whether it was there.
func (ts *tombs) take(k tomb) bool {
	if len(ts.head) == 0 || ts.at != k.time {
		if len(ts.rest) == 0 || ts.rest[0].time > k.time {
			return false
		}
		ts.turn(k.time)
	}
	i, ok := slices.BinarySearchFunc(ts.head, k, compareTombs)
	if ok {
		ts.head = slices.Delete(ts.head, i, i+1)
	}
	return ok
}

// turn moves head to time t: its tombstones go back to the heap, and the
// heap's tombstones at t come out. Any earlier ones are forgotten: their
// originals have left the queue.
func (ts *tombs) turn(t circuit.Tick) {
	for _, k := range ts.head {
		ts.rest = append(ts.rest, k)
		up(ts.rest, len(ts.rest)-1)
	}
	ts.head, ts.at = ts.head[:0], t
	for len(ts.rest) > 0 && ts.rest[0].time <= t {
		if k := ts.pop(); k.time == t {
			ts.head = append(ts.head, k)
		}
	}
	if c := cap(ts.rest); c > 256 && len(ts.rest) < c/4 {
		// Memory follows the live tombstones: a storm's peak is given back.
		ts.rest = append(make([]tomb, 0, 2*len(ts.rest)), ts.rest...)
	}
}

// pop removes the heap's least tombstone.
func (ts *tombs) pop() tomb {
	h := ts.rest
	k, n := h[0], len(h)-1
	h[0] = h[n]
	ts.rest = h[:n]
	down(ts.rest, 0)
	return k
}

// sorted copies every tombstone into buf in (time, id) order, for lookups
// by binary search (has).
func (ts *tombs) sorted(buf []tomb) []tomb {
	buf = append(append(buf[:0], ts.head...), ts.rest...)
	slices.SortFunc(buf, compareTombs)
	return buf
}

// has reports whether the (time, id)-sorted list s holds k.
func has(s []tomb, k tomb) bool {
	_, ok := slices.BinarySearchFunc(s, k, compareTombs)
	return ok
}

func up(h []tomb, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if compareTombs(h[i], h[p]) >= 0 {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func down(h []tomb, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && compareTombs(h[r], h[c]) < 0 {
			c = r
		}
		if compareTombs(h[c], h[i]) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
