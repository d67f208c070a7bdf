// Package mpsc provides an unbounded multi-producer single-consumer
// mailbox with blocking receive.
//
// The asynchronous engines (conservative and optimistic) use one mailbox
// per logical process as the message transport. Unboundedness is a
// correctness requirement, not a convenience: the blocking behaviour of
// conservative simulation must come from the protocol's input waiting rule,
// and rollback behaviour in Time Warp from timestamp comparison — never
// from transport back-pressure, which would introduce deadlocks that are
// artifacts of buffer sizing rather than of the algorithms under study.
package mpsc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinFor bounds a spinning mailbox's wait before it parks: about one
// step of an LP on a 12 000-gate circuit, long enough for a peer's flush
// after its next step to land while the receiver is still awake, short
// enough that a receiver with nothing coming gives its core back soon.
const spinFor = 50 * time.Microsecond

// Mailbox is an unbounded MPSC queue. The zero value is not usable; call
// New. Multiple goroutines may Put concurrently; exactly one goroutine
// should drain.
type Mailbox[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []T
	closed bool
	pokes  int
	// parks counts the waits that found nothing and slept on cond.
	parks uint64
	// ready is set under mu by every Put, PutAll, Poke and Close, and the
	// drains clear it unless a poke or the close is still to be seen, so
	// a spinning receiver can poll it without the lock. It is only a
	// hint: WaitDrain decides under mu.
	ready atomic.Bool
	// waiting is true while the receiver is inside WaitDrain.
	waiting atomic.Bool
	spin    bool
}

// New returns an empty mailbox.
func New[T any]() *Mailbox[T] {
	return NewCap[T](0)
}

// NewCap returns an empty mailbox whose internal queue is pre-grown to the
// given capacity, so the first bursts of Put/PutAll skip the append growth
// chain. The mailbox stays unbounded; the hint only seeds capacity.
func NewCap[T any](hint int) *Mailbox[T] {
	m := &Mailbox[T]{}
	if hint > 0 {
		m.items = make([]T, 0, hint)
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// NewSpinning is NewCap for a receiver that shares a process with its
// senders: its WaitDrain yields for up to spinFor, polling for an
// arrival, before it parks. A sender that flushes to a waiting receiver
// then finds it still on a core instead of readying it behind itself.
func NewSpinning[T any](hint int) *Mailbox[T] {
	m := NewCap[T](hint)
	m.spin = true
	return m
}

// Put enqueues one item.
func (m *Mailbox[T]) Put(v T) {
	m.mu.Lock()
	m.items = append(m.items, v)
	m.ready.Store(true)
	m.mu.Unlock()
	m.cond.Signal()
}

// PutAll enqueues a batch.
func (m *Mailbox[T]) PutAll(vs []T) {
	if len(vs) == 0 {
		return
	}
	m.mu.Lock()
	m.items = append(m.items, vs...)
	m.ready.Store(true)
	m.mu.Unlock()
	m.cond.Signal()
}

// TryDrain appends all currently queued items to buf and returns it
// without blocking.
func (m *Mailbox[T]) TryDrain(buf []T) []T {
	m.mu.Lock()
	buf = append(buf, m.items...)
	m.items = m.items[:0]
	m.ready.Store(m.pokes > 0 || m.closed)
	m.mu.Unlock()
	return buf
}

// WaitDrain blocks until at least one item is available, a Poke arrives,
// or the mailbox is closed; it then appends any queued items to buf. The
// second result is false once the mailbox is closed and empty. A
// spinning mailbox yields for up to spinFor before it parks.
func (m *Mailbox[T]) WaitDrain(buf []T) ([]T, bool) {
	m.waiting.Store(true)
	if m.spin && !m.ready.Load() {
		for end := time.Now().Add(spinFor); !m.ready.Load() && time.Now().Before(end); {
			runtime.Gosched()
		}
	}
	m.mu.Lock()
	if len(m.items) == 0 && m.pokes == 0 && !m.closed {
		m.parks++
		for len(m.items) == 0 && m.pokes == 0 && !m.closed {
			m.cond.Wait()
		}
	}
	m.pokes = 0
	ok := !(m.closed && len(m.items) == 0)
	buf = append(buf, m.items...)
	m.items = m.items[:0]
	m.ready.Store(m.closed)
	m.waiting.Store(false)
	m.mu.Unlock()
	return buf, ok
}

// Waiting reports whether the receiver is inside WaitDrain: a sender
// holding a batch for it should flush now rather than at its own next
// wait.
func (m *Mailbox[T]) Waiting() bool { return m.waiting.Load() }

// Parks is the number of WaitDrain calls that found nothing deliverable,
// after any spin, and slept.
func (m *Mailbox[T]) Parks() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.parks
}

// Poke wakes a blocked receiver without delivering an item, so it can
// notice out-of-band state such as a pause flag. Pokes are sticky: a poke
// sent while the receiver is not waiting is consumed by its next WaitDrain.
func (m *Mailbox[T]) Poke() {
	m.mu.Lock()
	m.pokes++
	m.ready.Store(true)
	m.mu.Unlock()
	m.cond.Signal()
}

// Close wakes any blocked receiver and makes future WaitDrain calls return
// false once drained. Items already queued are still delivered.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	m.closed = true
	m.ready.Store(true)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// Len reports the current queue length (racy by nature; for tests and
// stats only).
func (m *Mailbox[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}
