package eventq

import "sort"

// Calendar is R. Brown's calendar queue: an array of day-buckets spanning a
// repeating year. With a bucket width tuned to the inter-event gap it gives
// amortized O(1) enqueue/dequeue, which is why it became the standard
// pending-event set for high-activity discrete-event simulation.
type Calendar[T any] struct {
	buckets   []bucket[T]
	width     uint64 // bucket width in ticks
	size      int
	lastPop   uint64 // time of the last popped event
	curBucket int    // bucket the last pop came from / search starts at
	bucketTop uint64 // upper time bound of the current bucket's current year
	// resize thresholds
	growAt, shrinkAt int
	err              error
}

// bucket is one day of the calendar: items[head:] are its pending events,
// sorted by ascending time, and items[:head] are already popped. Popping
// advances head instead of shifting the slice, which would make a bucket
// of thousands of same-time events quadratic to drain; insert compacts
// the popped prefix away, once it is at least half of a full slice,
// instead of growing.
type bucket[T any] struct {
	items []item[T]
	head  int
}

// pending returns the bucket's events in ascending time order.
func (b *bucket[T]) pending() []item[T] { return b.items[b.head:] }

// NewCalendar returns an empty calendar queue with default geometry.
func NewCalendar[T any]() *Calendar[T] {
	c := &Calendar[T]{}
	c.resize(2, 1, 0)
	return c
}

// Len returns the number of pending events.
func (c *Calendar[T]) Len() int { return c.size }

// resize rebuilds the calendar with nbuckets of the given width, starting
// at time start, and re-inserts all pending events.
func (c *Calendar[T]) resize(nbuckets int, width uint64, start uint64) {
	old := c.buckets
	if width == 0 {
		width = 1
	}
	c.buckets = make([]bucket[T], nbuckets)
	c.width = width
	c.growAt = 2 * nbuckets
	c.shrinkAt = nbuckets/2 - 2
	c.curBucket = int((start / width) % uint64(nbuckets))
	c.bucketTop = (start/width)*width + width
	for i := range old {
		for _, it := range old[i].pending() {
			c.insert(it)
		}
	}
}

// insert places an item into its day bucket, keeping the bucket sorted.
func (c *Calendar[T]) insert(it item[T]) {
	b := &c.buckets[(it.time/c.width)%uint64(len(c.buckets))]
	if b.head > 0 && len(b.items) == cap(b.items) && 2*b.head >= len(b.items) {
		n := copy(b.items, b.items[b.head:])
		clear(b.items[n:])
		b.items, b.head = b.items[:n], 0
	}
	live := b.pending()
	pos := b.head + sort.Search(len(live), func(i int) bool { return live[i].time > it.time })
	b.items = append(b.items, item[T]{})
	copy(b.items[pos+1:], b.items[pos:])
	b.items[pos] = it
}

// Push inserts an event. A push earlier than the current cursor (possible
// only after ResetFloor) rewinds the cursor to the event's year, keeping
// the search invariant that nothing is pending before the cursor.
func (c *Calendar[T]) Push(time uint64, v T) {
	if time < c.lastPop {
		c.err = pushFault(c.err, time, c.lastPop)
		return
	}
	if time < c.bucketTop-c.width {
		c.curBucket = int((time / c.width) % uint64(len(c.buckets)))
		c.bucketTop = (time/c.width)*c.width + c.width
	}
	c.insert(item[T]{time, v})
	c.size++
	if c.size > c.growAt {
		c.resize(2*len(c.buckets), c.newWidth(), c.lastPop)
	}
}

// PeekTime returns the minimum pending time.
func (c *Calendar[T]) PeekTime() (uint64, bool) {
	if c.size == 0 {
		return 0, false
	}
	// Cheap path: search from the current bucket within the current year.
	bucket, top := c.curBucket, c.bucketTop
	for i := 0; i < len(c.buckets); i++ {
		b := c.buckets[bucket].pending()
		if len(b) > 0 && b[0].time < top {
			return b[0].time, true
		}
		bucket = (bucket + 1) % len(c.buckets)
		top += c.width
	}
	// Sparse queue: direct search for the global minimum.
	min, ok := c.globalMin()
	if !ok {
		return 0, false
	}
	return min, true
}

// Peek returns the next event without removing it.
func (c *Calendar[T]) Peek() (uint64, T, bool) {
	var zero T
	if c.size == 0 {
		return 0, zero, false
	}
	bucket, top := c.curBucket, c.bucketTop
	for i := 0; i < len(c.buckets); i++ {
		b := c.buckets[bucket].pending()
		if len(b) > 0 && b[0].time < top {
			return b[0].time, b[0].v, true
		}
		bucket = (bucket + 1) % len(c.buckets)
		top += c.width
	}
	// Sparse queue: return the head of the globally minimal bucket.
	var best *item[T]
	for i := range c.buckets {
		if b := c.buckets[i].pending(); len(b) > 0 && (best == nil || b[0].time < best.time) {
			best = &b[0]
		}
	}
	if best == nil {
		return 0, zero, false
	}
	return best.time, best.v, true
}

// ResetFloor permits pushes earlier than the last popped time. The cursor
// is rewound so the next search starts from the new minimum's year.
func (c *Calendar[T]) ResetFloor() {
	c.lastPop = 0
	if min, ok := c.globalMin(); ok {
		c.curBucket = int((min / c.width) % uint64(len(c.buckets)))
		c.bucketTop = (min/c.width)*c.width + c.width
	}
}

// Err returns the latched push violation, if any.
func (c *Calendar[T]) Err() error { return c.err }

// globalMin scans every bucket head for the smallest time.
func (c *Calendar[T]) globalMin() (uint64, bool) {
	var best uint64
	found := false
	for i := range c.buckets {
		if b := c.buckets[i].pending(); len(b) > 0 && (!found || b[0].time < best) {
			best = b[0].time
			found = true
		}
	}
	return best, found
}

// PopMin removes an event with the minimum time.
func (c *Calendar[T]) PopMin() (uint64, T, bool) {
	var zero T
	if c.size == 0 {
		return 0, zero, false
	}
	for i := 0; i < len(c.buckets); i++ {
		b := &c.buckets[c.curBucket]
		if b.head < len(b.items) && b.items[b.head].time < c.bucketTop {
			it := b.items[b.head]
			b.items[b.head] = item[T]{} // release references for GC
			b.head++
			if b.head == len(b.items) {
				b.items, b.head = b.items[:0], 0
			}
			c.size--
			c.lastPop = it.time
			if c.size < c.shrinkAt && len(c.buckets) > 2 {
				c.resize(len(c.buckets)/2, c.newWidth(), c.lastPop)
			}
			return it.time, it.v, true
		}
		c.curBucket = (c.curBucket + 1) % len(c.buckets)
		c.bucketTop += c.width
	}
	// A full year passed without a direct hit: jump to the global minimum.
	min, _ := c.globalMin()
	c.curBucket = int((min / c.width) % uint64(len(c.buckets)))
	c.bucketTop = (min/c.width)*c.width + c.width
	return c.PopMin()
}

// newWidth estimates a bucket width from the spread of pending event times,
// following the spirit of Brown's sampling rule: aim for a handful of
// events per bucket across the occupied time range.
func (c *Calendar[T]) newWidth() uint64 {
	if c.size < 2 {
		return 1
	}
	var lo, hi uint64
	first := true
	for i := range c.buckets {
		for _, it := range c.buckets[i].pending() {
			if first {
				lo, hi = it.time, it.time
				first = false
				continue
			}
			if it.time < lo {
				lo = it.time
			}
			if it.time > hi {
				hi = it.time
			}
		}
	}
	span := hi - lo
	w := span * 3 / uint64(c.size)
	if w == 0 {
		w = 1
	}
	return w
}
