package inject

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"

	"repro/internal/mpsc"
)

// heldStream is one delayed (src → lp) stream suffix: every message that
// arrived since the delay armed, released together after ttl drains.
type heldStream[T any] struct {
	msgs []T
	ttl  uint64
}

// splitKey identifies one batch of one stream.
type splitKey struct {
	src int
	seq uint64
}

// transport is the chaos wrapper around one LP's inbox. Producers (other
// LPs) call Put/PutAll concurrently; exactly one consumer drains. It
// perturbs delivery per the plan and checks two conservative-protocol
// invariants on the way through:
//
//   - null monotonicity: successive null bounds from one sender only
//     increase;
//   - promise soundness: a value message never carries a time below a
//     bound promised by the same sender in an *earlier* batch. The check
//     is batch-scoped because null folding legitimately strengthens a
//     batched promise after earlier value messages were appended to the
//     same batch — within one batch a null says nothing about its
//     neighbours.
//
// Liveness with held streams: the receiver is Poked whenever a hold arms
// and re-Poked after every drain while anything stays held, so a blocked
// receiver keeps draining (each drain ticks the ttls) and the hold expires
// after at most N wakeups. Protocols that wait for global quiescence
// (deadlock recovery, GVT) cannot falsely conclude while messages are
// held, because held value messages still count as in transit — transit is
// decremented by the receiver's handler, which has not seen them.
type transport[T any] struct {
	h     *Hook
	lp    int
	inner mpsc.Transport[T]
	meta  func(T) Meta

	mu        sync.Mutex
	putSeq    map[int]uint64 // delivered batches per src
	drainSeq  uint64         // completed drains
	delays    map[int][]Fault
	splits    map[splitKey]Fault
	reorders  map[uint64]Fault
	held      map[int]*heldStream[T]
	heldOrder []int          // hold arming order, for deterministic release order
	bound     map[int]uint64 // max null bound per src from previous batches
}

// Wrap interposes the chaos transport for one LP's inbox. A nil hook
// returns the inner transport unchanged, so production paths stay
// wrapper-free. meta projects a message to its protocol role; it must be
// pure.
func Wrap[T any](h *Hook, lp int, inner mpsc.Transport[T], meta func(T) Meta) mpsc.Transport[T] {
	if h == nil {
		return inner
	}
	t := &transport[T]{
		h:        h,
		lp:       lp,
		inner:    inner,
		meta:     meta,
		putSeq:   map[int]uint64{},
		delays:   map[int][]Fault{},
		splits:   map[splitKey]Fault{},
		reorders: map[uint64]Fault{},
		held:     map[int]*heldStream[T]{},
		bound:    map[int]uint64{},
	}
	for _, f := range h.plan {
		if f.LP != lp {
			continue
		}
		switch f.Op {
		case OpDelay:
			t.delays[f.Src] = append(t.delays[f.Src], f)
		case OpSplit:
			t.splits[splitKey{f.Src, f.Seq}] = f
		case OpReorder:
			t.reorders[f.Seq] = f
		}
	}
	return t
}

// Put enqueues one item. Control messages bypass chaos entirely.
func (t *transport[T]) Put(v T) {
	if t.meta(v).Kind == Control {
		t.inner.Put(v)
		return
	}
	t.deliver([]T{v})
}

// PutAll enqueues one sender batch. Engines never mix control and payload
// in one batch (coordinators send control as singles), so the first
// message's kind classifies the batch.
func (t *transport[T]) PutAll(vs []T) {
	if len(vs) == 0 {
		return
	}
	if t.meta(vs[0]).Kind == Control {
		t.inner.PutAll(vs)
		return
	}
	t.deliver(vs)
}

// deliver runs one payload batch through check → hold → delay-arm →
// split → passthrough. The caller's slice is only retained via copy (held
// streams append by value; the split path hands slices to the inner
// mailbox, which copies).
func (t *transport[T]) deliver(vs []T) {
	src := t.meta(vs[0]).From
	t.mu.Lock()
	t.checkBatch(src, vs)
	seq := t.putSeq[src]
	t.putSeq[src] = seq + 1
	if hs := t.held[src]; hs != nil {
		// Stream already held: append, preserving per-sender FIFO.
		hs.msgs = append(hs.msgs, vs...)
		t.mu.Unlock()
		t.inner.Poke()
		return
	}
	for _, f := range t.delays[src] {
		if f.Seq == seq {
			hs := &heldStream[T]{ttl: f.N}
			hs.msgs = append(hs.msgs, vs...)
			t.held[src] = hs
			t.heldOrder = append(t.heldOrder, src)
			t.mu.Unlock()
			t.h.noteFired(f.String())
			t.inner.Poke()
			return
		}
	}
	if f, ok := t.splits[splitKey{src, seq}]; ok && len(vs) > 1 {
		half := len(vs) / 2
		t.mu.Unlock()
		t.h.noteFired(f.String())
		t.inner.PutAll(vs[:half])
		runtime.Gosched() // invite another sender into the gap
		t.inner.PutAll(vs[half:])
		return
	}
	t.mu.Unlock()
	t.inner.PutAll(vs)
}

// checkBatch enforces the conservative wire invariants for one arriving
// batch; t.mu is held.
func (t *transport[T]) checkBatch(src int, vs []T) {
	prev, have := t.bound[src]
	var maxNull uint64
	haveNull := false
	for _, v := range vs {
		m := t.meta(v)
		switch m.Kind {
		case Value:
			if have && m.Time < prev {
				t.h.violate(fmt.Sprintf(
					"lp %d: value message from lp %d at t=%d below promised bound %d",
					t.lp, src, m.Time, prev))
			}
		case Null:
			if have && m.Time <= prev {
				t.h.violate(fmt.Sprintf(
					"lp %d: non-increasing null bound %d from lp %d (previous bound %d)",
					t.lp, m.Time, src, prev))
			}
			if !haveNull || m.Time > maxNull {
				maxNull = m.Time
				haveNull = true
			}
		}
	}
	if haveNull && (!have || maxNull > prev) {
		t.bound[src] = maxNull
	}
}

// TryDrain drains the inner mailbox, then applies hold expiry and
// reordering.
func (t *transport[T]) TryDrain(buf []T) []T {
	pre := len(buf)
	out := t.inner.TryDrain(buf)
	return t.afterDrain(out, pre, false)
}

// WaitDrain blocks on the inner mailbox, then applies hold expiry and
// reordering. If the inner mailbox reports closed but a hold release
// produced items, it reports ok so the items are not dropped.
func (t *transport[T]) WaitDrain(buf []T) ([]T, bool) {
	pre := len(buf)
	out, ok := t.inner.WaitDrain(buf)
	out = t.afterDrain(out, pre, !ok)
	if !ok && len(out) > pre {
		ok = true
	}
	return out, ok
}

// afterDrain is the consumer-side half: tick hold ttls (releasing expired
// streams after the drained content — they are the late arrivals), apply
// a planned reorder to the newly drained range, and keep the receiver
// awake while anything stays held.
func (t *transport[T]) afterDrain(out []T, pre int, closed bool) []T {
	t.mu.Lock()
	seq := t.drainSeq
	t.drainSeq++
	if len(t.heldOrder) > 0 {
		rem := t.heldOrder[:0]
		for _, src := range t.heldOrder {
			hs := t.held[src]
			if closed || hs.ttl <= 1 {
				out = append(out, hs.msgs...)
				delete(t.held, src)
			} else {
				hs.ttl--
				rem = append(rem, src)
			}
		}
		t.heldOrder = rem
	}
	rePoke := len(t.heldOrder) > 0
	if f, ok := t.reorders[seq]; ok {
		if t.reorderRange(out[pre:], seq) {
			t.h.noteFired(f.String())
		}
	}
	t.mu.Unlock()
	if rePoke {
		t.inner.Poke()
	}
	return out
}

// reorderRange permutes the per-sender groups of ms, keeping each
// sender's messages in order. The permutation is a pure function of
// (hook seed, LP, drain ordinal). Ranges containing control messages are
// left alone — control is not part of any stream, so commuting around it
// has no defined semantics.
func (t *transport[T]) reorderRange(ms []T, drainSeq uint64) bool {
	if len(ms) < 2 {
		return false
	}
	var srcs []int
	idx := map[int]int{}
	for _, v := range ms {
		m := t.meta(v)
		if m.Kind == Control {
			return false
		}
		if _, ok := idx[m.From]; !ok {
			idx[m.From] = len(srcs)
			srcs = append(srcs, m.From)
		}
	}
	if len(srcs) < 2 {
		return false
	}
	rng := rand.New(rand.NewPCG(t.h.seed^(uint64(t.lp)<<32|0x5bf0_3635), drainSeq))
	order := rng.Perm(len(srcs))
	buckets := make([][]T, len(srcs))
	for _, v := range ms {
		i := idx[t.meta(v).From]
		buckets[i] = append(buckets[i], v)
	}
	pos := 0
	for _, bi := range order {
		pos += copy(ms[pos:], buckets[bi])
	}
	return true
}

// Poke forwards to the inner mailbox.
func (t *transport[T]) Poke() { t.inner.Poke() }

// Close forwards to the inner mailbox.
func (t *transport[T]) Close() { t.inner.Close() }

// Len reports queued plus held items.
func (t *transport[T]) Len() int {
	n := t.inner.Len()
	t.mu.Lock()
	for _, hs := range t.held {
		n += len(hs.msgs)
	}
	t.mu.Unlock()
	return n
}
