package lpnet

import "repro/internal/mpsc"

// batchCap seeds a destination's batch on first use.
const batchCap = 96

// Batcher holds one LP's outgoing messages per destination until Flush,
// which delivers each destination's batch with one PutAll: one mailbox
// lock per destination per flush instead of one per message. Order within
// a destination is send order, so link FIFO — which promise soundness and
// anti-message annihilation both rely on — survives batching. When to
// flush is the protocol's call: every path on which an LP can park must
// flush first, or a message would sit in a batch while its sender sleeps.
type Batcher[V comparable] struct {
	out  []mpsc.Transport[Msg[V]]
	pend [][]Msg[V]
	// dirty lists destinations with a non-empty batch, in first-use order.
	dirty []int
	// null[dst] is the index of the null batched for dst, or -1.
	null []int
}

// initBatchers gives every LP a batcher over the network's mailboxes,
// each field class backed by one slab for the whole network.
func (n *Net[V]) initBatchers() {
	k := len(n.lps)
	pend := make([][]Msg[V], k*k)
	ints := make([]int, 2*k*k) // dirty lists, then null indices
	for d := k * k; d < len(ints); d++ {
		ints[d] = -1
	}
	for i := range n.lps {
		lo, hi := i*k, (i+1)*k
		n.lps[i].batch = Batcher[V]{
			out:   n.Inboxes,
			pend:  pend[lo:hi:hi],
			dirty: ints[lo:lo:hi],
			null:  ints[k*k+lo : k*k+hi : k*k+hi],
		}
	}
}

// Put queues m for dst. A null for a destination that already has one
// batched overwrites it in place and reports true — the fold: promises
// only increase, and a receiver applies a drained batch in full before it
// acts on any bound, so a value batched ahead of the stronger promise is
// still enqueued before that promise is used, exactly as if both had
// travelled separately. Only the conservative engine sends nulls, so for
// Time Warp the rule never fires.
func (b *Batcher[V]) Put(dst int, m Msg[V]) (folded bool) {
	if m.Kind == Null {
		if i := b.null[dst]; i >= 0 {
			b.pend[dst][i] = m
			return true
		}
		b.null[dst] = len(b.pend[dst])
	}
	if len(b.pend[dst]) == 0 {
		if cap(b.pend[dst]) == 0 {
			b.pend[dst] = make([]Msg[V], 0, batchCap)
		}
		b.dirty = append(b.dirty, dst)
	}
	b.pend[dst] = append(b.pend[dst], m)
	return false
}

// Flush delivers every batched message, one PutAll per destination, and
// empties every batch.
func (b *Batcher[V]) Flush() {
	for _, dst := range b.dirty {
		b.out[dst].PutAll(b.pend[dst])
		b.pend[dst] = b.pend[dst][:0]
		b.null[dst] = -1
	}
	b.dirty = b.dirty[:0]
}
