package mpsc

// Transport is the seam the asynchronous engines talk to instead of a
// concrete *Mailbox. It exists so test harnesses (internal/simtest/chaos)
// can interpose a perturbing wrapper — delaying, splitting, or reordering
// deliveries — without the engines knowing. Production code always runs on
// the raw Mailbox; the interface is satisfied by *Mailbox directly and the
// indirection cost is one interface call on paths that are already
// lock-dominated.
type Transport[T any] interface {
	// Put enqueues one item.
	Put(v T)
	// PutAll enqueues a batch. Implementations must copy vs if they retain
	// it: callers reuse the backing array after the call returns.
	PutAll(vs []T)
	// TryDrain appends all currently deliverable items to buf and returns
	// it without blocking.
	TryDrain(buf []T) []T
	// WaitDrain blocks until at least one item is deliverable, a Poke
	// arrives, or the transport is closed; it then appends deliverable
	// items to buf. The second result is false once the transport is
	// closed and empty.
	WaitDrain(buf []T) ([]T, bool)
	// Waiting reports whether the receiver is inside WaitDrain; a sender
	// holding a batch for it should flush now. A transport whose receiver
	// lives in another process reports false.
	Waiting() bool
	// Poke wakes a blocked receiver without delivering an item.
	Poke()
	// Close wakes any blocked receiver and makes future WaitDrain calls
	// return false once drained.
	Close()
	// Len reports the current queue length (racy; stats only).
	Len() int
}

var _ Transport[int] = (*Mailbox[int])(nil)
