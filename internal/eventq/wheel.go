package eventq

// Wheel is the classic logic-simulator timing wheel: an array of slots,
// one tick wide each, covering the near future, with a heap holding the
// overflow beyond the horizon. Gate delays in logic simulation are small
// integers, so nearly every event lands directly in a slot and enqueue and
// dequeue are O(1).
//
// Invariant: every event in a slot has a time in [cur, cur+W), and because
// slot index is time mod W, all events within one slot share the same time.
//
// The wheel has one floor, lastPop. The overflow heap is plain storage
// filled through Heap.push, which checks none: looking ahead (PeekTime)
// drains overflow events into slots without popping anything from the
// wheel, and a later legal push below the cursor sends them back, below
// whatever the overflow heap itself last released.
type Wheel[T any] struct {
	slots    [][]item[T]
	cur      uint64 // current time cursor; no wheel event is earlier
	wheelCnt int
	overflow *Heap[T] // events at or beyond cur+W when pushed
	started  bool     // whether cur has been initialized by a push/pop
	lastPop  uint64
	err      error
}

// NewWheel returns an empty timing wheel with the given number of
// single-tick slots (the lookahead horizon). Sizes below 2 are raised to 2.
func NewWheel[T any](slots int) *Wheel[T] {
	if slots < 2 {
		slots = 2
	}
	return &Wheel[T]{
		slots:    make([][]item[T], slots),
		overflow: NewHeap[T](),
	}
}

// Len returns the number of pending events.
func (w *Wheel[T]) Len() int { return w.wheelCnt + w.overflow.Len() }

// horizon is the first time that does not fit in the wheel.
func (w *Wheel[T]) horizon() uint64 { return w.cur + uint64(len(w.slots)) }

// Push inserts an event.
func (w *Wheel[T]) Push(time uint64, v T) {
	if time < w.lastPop {
		w.err = pushFault(w.err, time, w.lastPop)
		return
	}
	if !w.started {
		w.cur = time
		w.started = true
	}
	if time < w.cur {
		// Earlier than the cursor but not earlier than the last pop: the
		// cursor ran ahead of the floor, through a peek or a floor reset.
		// Rewind it and demote wheel events that no longer fit under the
		// shrunken horizon to the overflow heap.
		w.cur = time
		for i, slot := range w.slots {
			kept := slot[:0]
			for _, it := range slot {
				if it.time >= w.horizon() {
					w.overflow.push(it.time, it.v)
					w.wheelCnt--
				} else {
					kept = append(kept, it)
				}
			}
			for j := len(kept); j < len(slot); j++ {
				slot[j] = item[T]{}
			}
			w.slots[i] = kept
		}
	}
	if time >= w.horizon() {
		w.overflow.push(time, v)
		return
	}
	idx := time % uint64(len(w.slots))
	w.slots[idx] = append(w.slots[idx], item[T]{time, v})
	w.wheelCnt++
}

// refill moves overflow events that now fit under the horizon into slots.
func (w *Wheel[T]) refill() {
	for {
		t, ok := w.overflow.PeekTime()
		if !ok || t >= w.horizon() {
			return
		}
		_, v, _ := w.overflow.PopMin()
		idx := t % uint64(len(w.slots))
		w.slots[idx] = append(w.slots[idx], item[T]{t, v})
		w.wheelCnt++
	}
}

// PeekTime returns the minimum pending time.
func (w *Wheel[T]) PeekTime() (uint64, bool) {
	if w.Len() == 0 {
		return 0, false
	}
	w.advanceToMin()
	return w.cur, true
}

// advanceToMin moves the cursor to the earliest pending event time.
func (w *Wheel[T]) advanceToMin() {
	if w.wheelCnt == 0 {
		// All pending events are in the overflow: jump.
		t, _ := w.overflow.PeekTime()
		w.cur = t
	}
	w.refill()
	for {
		idx := w.cur % uint64(len(w.slots))
		if len(w.slots[idx]) > 0 && w.slots[idx][0].time == w.cur {
			return
		}
		w.cur++
		w.refill()
	}
}

// Peek returns the next event without removing it.
func (w *Wheel[T]) Peek() (uint64, T, bool) {
	var zero T
	if w.Len() == 0 {
		return 0, zero, false
	}
	w.advanceToMin()
	slot := w.slots[w.cur%uint64(len(w.slots))]
	it := slot[len(slot)-1]
	return it.time, it.v, true
}

// ResetFloor permits pushes earlier than the last popped time; the push
// path already rewinds the cursor and demotes out-of-horizon events.
func (w *Wheel[T]) ResetFloor() { w.lastPop = 0 }

// Err returns the latched push violation, if any.
func (w *Wheel[T]) Err() error { return w.err }

// PopMin removes an event with the minimum time.
func (w *Wheel[T]) PopMin() (uint64, T, bool) {
	var zero T
	if w.Len() == 0 {
		return 0, zero, false
	}
	w.advanceToMin()
	idx := w.cur % uint64(len(w.slots))
	slot := w.slots[idx]
	it := slot[len(slot)-1]
	slot[len(slot)-1] = item[T]{}
	w.slots[idx] = slot[:len(slot)-1]
	w.wheelCnt--
	w.lastPop = it.time
	return it.time, it.v, true
}
