// Package eventq provides the pending-event set implementations used by the
// event-driven simulation engines.
//
// Event queue management is one of the serial bottlenecks the paper's
// "algorithm parallelism" discussion calls out, and the choice of structure
// matters enough that three classic implementations are provided behind one
// interface: a binary heap (the baseline), Brown's calendar queue, and the
// timing wheel traditionally used by logic simulators. Experiment E14
// benchmarks them against each other under simulator-like access patterns.
//
// All queues order events by ascending time. Events that share a time may
// be returned in any order; the engines' two-phase timestep semantics make
// the simulation result independent of intra-timestep ordering.
package eventq

import "fmt"

// Queue is a pending-event set holding values of type T keyed by time.
type Queue[T any] interface {
	// Push inserts an event. Pushing a time earlier than the last popped
	// time is always an engine bug (scheduling into the past); the event
	// is dropped and the violation is latched as a sentinel error on Err,
	// which engines surface as a causality failure at the next check.
	// Under the eventqdebug build tag the push panics instead, preserving
	// the crashing stack for queue-level debugging.
	Push(time uint64, v T)
	// PopMin removes and returns an event with the minimum time.
	// ok is false when the queue is empty.
	PopMin() (time uint64, v T, ok bool)
	// PeekTime returns the minimum time without removing anything.
	PeekTime() (uint64, bool)
	// Peek returns an event with the minimum time without removing it —
	// the same event the next PopMin would return.
	Peek() (time uint64, v T, ok bool)
	// Len returns the number of pending events.
	Len() int
	// ResetFloor forgets the last popped time, permitting pushes earlier
	// than previously popped events. Time Warp rollback requeues past
	// events and needs this, and so does Each.
	ResetFloor()
	// Err returns the first push-into-the-past violation, or nil. The
	// error is sticky: once set, the queue has dropped an event and its
	// contents are no longer trustworthy, so the run must abort.
	Err() error
}

// Impl names a queue implementation for configuration and reporting.
type Impl uint8

// The available implementations.
const (
	ImplHeap Impl = iota
	ImplCalendar
	ImplWheel
)

// String names the implementation.
func (i Impl) String() string {
	switch i {
	case ImplHeap:
		return "heap"
	case ImplCalendar:
		return "calendar"
	case ImplWheel:
		return "wheel"
	}
	return fmt.Sprintf("Impl(%d)", uint8(i))
}

// New constructs a queue of the given implementation.
func New[T any](impl Impl) Queue[T] {
	return NewCap[T](impl, 0)
}

// NewCap constructs a queue with a capacity hint: the backing storage is
// pre-grown so an engine's warm-up pushes skip the append growth chain.
// Implementations whose storage is already slotted (calendar, wheel) ignore
// the hint; their per-slot slices grow once and are reused thereafter.
func NewCap[T any](impl Impl, hint int) Queue[T] {
	switch impl {
	case ImplCalendar:
		return NewCalendar[T]()
	case ImplWheel:
		return NewWheel[T](256)
	default:
		h := NewHeap[T]()
		if hint > 0 {
			h.slab = make([]node[T], 1, hint+1)
		}
		return h
	}
}

// Each visits every pending event of q in time order, draining q and
// requeuing what it drained (ResetFloor lets the ascending repush start
// below the last pop): how every engine reads its pending set into a cut.
func Each[T any](q Queue[T], visit func(t uint64, v T)) {
	pending := make([]item[T], 0, q.Len())
	for {
		t, v, ok := q.PopMin()
		if !ok {
			break
		}
		pending = append(pending, item[T]{t, v})
		visit(t, v)
	}
	q.ResetFloor()
	for _, it := range pending {
		q.Push(it.time, it.v)
	}
}

// item is a timed entry of the slotted implementations.
type item[T any] struct {
	time uint64
	v    T
}

// node is one pending event of the heap: a slab cell linked into the list
// of its time (or into the free list). Cell 0 of the slab is never used,
// so index 0 means "none" in every link.
type node[T any] struct {
	v    T
	next int32 // slab index of the next cell, 0 at the end
}

// timeEntry is one element of the binary heap: a pending time and the
// slab index of the first event of its list.
type timeEntry struct {
	time uint64
	head int32
}

// recentSlots is the size of the direct-mapped table that finds an open
// time entry on push. Times within one window of this many ticks never
// collide, which covers every engine's pattern: pending events lie within
// one maximum gate delay of the current time.
const recentSlots = 64

// recentEntry remembers the open entry of one time: the slab index of its
// head cell, 0 for none.
type recentEntry struct {
	time uint64
	head int32
}

// Heap is the baseline implementation, a binary min-heap with no tuning
// parameters. The heap orders the distinct pending times, not the events:
// each heap entry heads a linked list of the events at its time, all
// lists sharing one slab with a free list. A logic simulator holds
// thousands of events on a handful of times (every delay is a small
// integer), so almost every push finds its time already open through the
// recent-times table and almost every pop unlinks a list cell; both are
// O(1), and the O(log n) sift runs once per distinct time. A push whose
// time is open but has been evicted from the table just opens a second
// entry for it: equal-time entries pop one after the other, and the order
// of same-time events is unspecified anyway. When every pending time is
// distinct this is an ordinary binary heap with one list cell per entry.
type Heap[T any] struct {
	times   []timeEntry
	slab    []node[T]
	free    int32 // head of the free-cell list
	n       int
	recent  [recentSlots]recentEntry
	lastPop uint64
	err     error
}

// NewHeap returns an empty heap queue.
func NewHeap[T any]() *Heap[T] { return &Heap[T]{} }

// Len returns the number of pending events.
func (h *Heap[T]) Len() int { return h.n }

// Push inserts an event.
func (h *Heap[T]) Push(time uint64, v T) {
	if time < h.lastPop {
		h.err = pushFault(h.err, time, h.lastPop)
		return
	}
	h.push(time, v)
}

// push inserts an event without consulting the floor; the timing wheel,
// which enforces its own, stores its overflow through it.
func (h *Heap[T]) push(time uint64, v T) {
	c := h.free
	if c != 0 {
		h.free = h.slab[c].next
	} else {
		if len(h.slab) == 0 {
			h.slab = append(h.slab, node[T]{}) // the unused cell 0
		}
		h.slab = append(h.slab, node[T]{})
		c = int32(len(h.slab) - 1)
	}
	h.n++
	r := &h.recent[time%recentSlots]
	if r.head != 0 && r.time == time {
		// Link behind the head, so the heap entry never changes.
		head := &h.slab[r.head]
		h.slab[c] = node[T]{v, head.next}
		head.next = c
		return
	}
	h.slab[c] = node[T]{v, 0}
	*r = recentEntry{time, c}
	h.times = append(h.times, timeEntry{time, c})
	h.up(len(h.times) - 1)
}

// Err returns the latched push violation, if any.
func (h *Heap[T]) Err() error { return h.err }

// PeekTime returns the minimum pending time.
func (h *Heap[T]) PeekTime() (uint64, bool) {
	if len(h.times) == 0 {
		return 0, false
	}
	return h.times[0].time, true
}

// Peek returns the next event without removing it.
func (h *Heap[T]) Peek() (uint64, T, bool) {
	if len(h.times) == 0 {
		var zero T
		return 0, zero, false
	}
	top := h.times[0]
	c := top.head
	if next := h.slab[c].next; next != 0 {
		c = next
	}
	return top.time, h.slab[c].v, true
}

// ResetFloor permits pushes earlier than the last popped time.
func (h *Heap[T]) ResetFloor() { h.lastPop = 0 }

// PopMin removes an event with the minimum time: the cell behind the head
// of the top entry's list, or the head itself when it is the last one,
// which also closes the entry.
func (h *Heap[T]) PopMin() (uint64, T, bool) {
	var zero T
	if len(h.times) == 0 {
		return 0, zero, false
	}
	top := h.times[0]
	head := &h.slab[top.head]
	c := head.next
	if c != 0 {
		head.next = h.slab[c].next
	} else {
		c = top.head
		if r := &h.recent[top.time%recentSlots]; r.head == c {
			r.head = 0
		}
		last := len(h.times) - 1
		h.times[0] = h.times[last]
		h.times = h.times[:last]
		if last > 1 {
			h.down(0)
		}
	}
	v := h.slab[c].v
	h.slab[c] = node[T]{zero, h.free} // release references for GC
	h.free = c
	h.n--
	h.lastPop = top.time
	return top.time, v, true
}

func (h *Heap[T]) up(i int) {
	e := h.times[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.times[parent].time <= e.time {
			break
		}
		h.times[i] = h.times[parent]
		i = parent
	}
	h.times[i] = e
}

func (h *Heap[T]) down(i int) {
	n := len(h.times)
	e := h.times[i]
	for {
		small := 2*i + 1
		if small >= n {
			break
		}
		if r := small + 1; r < n && h.times[r].time < h.times[small].time {
			small = r
		}
		if e.time <= h.times[small].time {
			break
		}
		h.times[i] = h.times[small]
		i = small
	}
	h.times[i] = e
}
