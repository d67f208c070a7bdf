package inject

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/mpsc"
)

// tmsg is the test message: enough structure for the meta projection and
// for asserting per-sender FIFO (seq increases within one sender).
type tmsg struct {
	kind Kind
	from int
	time uint64
	seq  int
}

func tmeta(m tmsg) Meta { return Meta{Kind: m.kind, From: m.from, Time: m.time} }

func wrapT(t *testing.T, h *Hook, lp int) (mpsc.Transport[tmsg], *mpsc.Mailbox[tmsg]) {
	t.Helper()
	inner := mpsc.NewCap[tmsg](16)
	return Wrap(h, lp, inner, tmeta), inner
}

// drainAll drains until the transport reports empty, counting drains.
func drainAll(tr mpsc.Transport[tmsg]) []tmsg {
	var out []tmsg
	for {
		got := tr.TryDrain(nil)
		if len(got) == 0 && tr.Len() == 0 {
			return out
		}
		out = append(out, got...)
	}
}

func TestNewPlanDeterministic(t *testing.T) {
	a := NewPlan(42, 4, 16)
	b := NewPlan(42, 4, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n%v\n%v", a, b)
	}
	c := NewPlan(43, 4, 16)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	if len(a) != 16 {
		t.Fatalf("plan size %d, want 16", len(a))
	}
	for i, f := range a {
		if f.LP < 0 || f.LP >= 4 {
			t.Errorf("fault %d: LP %d out of range", i, f.LP)
		}
		if (f.Op == OpDelay || f.Op == OpSplit) && (f.Src < 0 || f.Src >= 4) {
			t.Errorf("fault %d: Src %d out of range", i, f.Src)
		}
		if f.Op == OpDelay && f.N == 0 {
			t.Errorf("fault %d: zero-drain delay", i)
		}
	}
}

func TestWrapNilHookPassthrough(t *testing.T) {
	inner := mpsc.New[tmsg]()
	if got := Wrap(nil, 0, inner, tmeta); got != mpsc.Transport[tmsg](inner) {
		t.Fatal("nil hook did not return the inner transport unchanged")
	}
}

// TestDelayHoldsAndReleases: a delay fault holds the stream suffix; the
// receiver is kept awake and sees everything, in per-sender order, after
// N drains.
func TestDelayHoldsAndReleases(t *testing.T) {
	plan := Plan{{Op: OpDelay, LP: 0, Src: 1, Seq: 0, N: 3}}
	h := NewHook(7, plan)
	tr, _ := wrapT(t, h, 0)

	tr.PutAll([]tmsg{{kind: Value, from: 1, time: 10, seq: 0}})
	tr.PutAll([]tmsg{{kind: Value, from: 1, time: 20, seq: 1}}) // appended to held stream
	tr.PutAll([]tmsg{{kind: Value, from: 2, time: 5, seq: 0}})  // other sender flows

	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (2 held + 1 queued)", tr.Len())
	}

	// Drain 1: only sender 2's message; ttl 3→2.
	got := tr.TryDrain(nil)
	if len(got) != 1 || got[0].from != 2 {
		t.Fatalf("drain 1 = %v, want just sender 2", got)
	}
	// Drain 2: nothing; ttl 2→1.
	if got := tr.TryDrain(nil); len(got) != 0 {
		t.Fatalf("drain 2 = %v, want empty", got)
	}
	// Drain 3: ttl 1 → release both held messages in FIFO order.
	got = tr.TryDrain(nil)
	if len(got) != 2 || got[0].seq != 0 || got[1].seq != 1 {
		t.Fatalf("drain 3 = %v, want held stream in order", got)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after release, want 0", tr.Len())
	}
	fired := h.Fired()
	if len(fired) != 1 || fired[0] != plan[0].String() {
		t.Errorf("Fired = %v, want the delay fault", fired)
	}
}

// TestDelayLivenessWaitDrain: a blocked receiver poked by the hold keeps
// waking until the release, so a held message cannot deadlock it.
func TestDelayLivenessWaitDrain(t *testing.T) {
	h := NewHook(7, Plan{{Op: OpDelay, LP: 0, Src: 1, Seq: 0, N: 5}})
	tr, _ := wrapT(t, h, 0)

	done := make(chan []tmsg)
	go func() {
		var out []tmsg
		for len(out) == 0 {
			got, ok := tr.WaitDrain(nil)
			if !ok {
				break
			}
			out = append(out, got...)
		}
		done <- out
	}()

	tr.Put(tmsg{kind: Value, from: 1, time: 42})
	out := <-done
	if len(out) != 1 || out[0].time != 42 {
		t.Fatalf("receiver got %v, want the held message", out)
	}
}

// TestControlBypassesHeldStream: control traffic is never delayed, even
// while a payload stream from the same source index is held.
func TestControlBypassesHeldStream(t *testing.T) {
	h := NewHook(7, Plan{{Op: OpDelay, LP: 0, Src: 0, Seq: 0, N: 100}})
	tr, _ := wrapT(t, h, 0)

	tr.Put(tmsg{kind: Value, from: 0, time: 1}) // arms the hold
	tr.Put(tmsg{kind: Control, from: 0})

	got := tr.TryDrain(nil)
	if len(got) != 1 || got[0].kind != Control {
		t.Fatalf("drain = %v, want only the control message", got)
	}
}

// TestSplitKeepsOrder: a split batch arrives as two halves but the
// sender's order is intact.
func TestSplitKeepsOrder(t *testing.T) {
	h := NewHook(7, Plan{{Op: OpSplit, LP: 0, Src: 1, Seq: 0}})
	tr, _ := wrapT(t, h, 0)

	batch := []tmsg{
		{kind: Value, from: 1, time: 1, seq: 0},
		{kind: Value, from: 1, time: 2, seq: 1},
		{kind: Value, from: 1, time: 3, seq: 2},
	}
	tr.PutAll(batch)
	got := drainAll(tr)
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("drained %v, want %v in order", got, batch)
	}
	if len(h.Fired()) != 1 {
		t.Errorf("Fired = %v, want the split fault", h.Fired())
	}
}

// TestReorderPreservesPerSenderFIFO: a reorder permutes sender groups but
// never the order within one sender, and skips ranges containing control.
func TestReorderPreservesPerSenderFIFO(t *testing.T) {
	// Reorder the first drain (seq 0) on LP 0; find a seed whose
	// permutation actually swaps the two groups so the test is not
	// vacuous.
	var h *Hook
	var tr mpsc.Transport[tmsg]
	feed := func(seed uint64) []tmsg {
		h = NewHook(seed, Plan{{Op: OpReorder, LP: 0, Seq: 0}})
		tr, _ = wrapT(t, h, 0)
		tr.PutAll([]tmsg{
			{kind: Value, from: 1, time: 1, seq: 0},
			{kind: Value, from: 1, time: 2, seq: 1},
		})
		tr.PutAll([]tmsg{
			{kind: Value, from: 2, time: 3, seq: 0},
			{kind: Value, from: 2, time: 4, seq: 1},
		})
		return tr.TryDrain(nil)
	}

	swappedSeen := false
	for seed := uint64(1); seed <= 16; seed++ {
		got := feed(seed)
		if len(got) != 4 {
			t.Fatalf("seed %d: drained %d messages, want 4", seed, len(got))
		}
		lastSeq := map[int]int{1: -1, 2: -1}
		for _, m := range got {
			if m.seq <= lastSeq[m.from] {
				t.Fatalf("seed %d: per-sender FIFO broken: %v", seed, got)
			}
			lastSeq[m.from] = m.seq
		}
		if got[0].from == 2 {
			swappedSeen = true
		}
	}
	if !swappedSeen {
		t.Error("no seed in 1..16 produced a swapped group order; reorder looks inert")
	}

	// Determinism: same seed, same permutation.
	a := feed(3)
	b := feed(3)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed reordered differently: %v vs %v", a, b)
	}

	// Ranges containing control are left alone.
	h = NewHook(1, Plan{{Op: OpReorder, LP: 0, Seq: 0}})
	tr, _ = wrapT(t, h, 0)
	in := []tmsg{
		{kind: Value, from: 1, time: 1},
		{kind: Control, from: 0},
		{kind: Value, from: 2, time: 2},
	}
	// Control goes through Put (bypass) but lands in the same mailbox;
	// feed values around it so the drained range mixes kinds.
	for _, m := range in {
		tr.Put(m)
	}
	got := tr.TryDrain(nil)
	if !reflect.DeepEqual(got, in) {
		t.Errorf("range with control was permuted: %v", got)
	}
}

// TestCheckerCatchesBrokenPromise: a value below a previous batch's null
// bound is a violation; a larger one is not.
func TestCheckerCatchesBrokenPromise(t *testing.T) {
	h := NewHook(7, nil)
	tr, _ := wrapT(t, h, 0)

	tr.PutAll([]tmsg{{kind: Null, from: 1, time: 50}})
	tr.PutAll([]tmsg{{kind: Value, from: 1, time: 60}})
	if v := h.Violations(); len(v) != 0 {
		t.Fatalf("sound promise flagged: %v", v)
	}
	tr.PutAll([]tmsg{{kind: Value, from: 1, time: 40}})
	v := h.Violations()
	if len(v) != 1 {
		t.Fatalf("violations = %v, want exactly the broken promise", v)
	}
}

// TestCheckerCatchesNonIncreasingNull: a later batch's null must raise
// the bound.
func TestCheckerCatchesNonIncreasingNull(t *testing.T) {
	h := NewHook(7, nil)
	tr, _ := wrapT(t, h, 0)

	tr.PutAll([]tmsg{{kind: Null, from: 1, time: 50}})
	tr.PutAll([]tmsg{{kind: Null, from: 1, time: 50}})
	if v := h.Violations(); len(v) != 1 {
		t.Fatalf("violations = %v, want the non-increasing null", v)
	}
}

// TestCheckerAllowsFoldedBatch: null folding places a strengthened
// promise *before* older value messages within one batch — the checker
// must scope bounds to previous batches or it would false-positive on a
// correct engine.
func TestCheckerAllowsFoldedBatch(t *testing.T) {
	h := NewHook(7, nil)
	tr, _ := wrapT(t, h, 0)

	// One batch: value at t=10, then a folded null promising 100. The
	// null must not retroactively condemn its batch-mate.
	tr.PutAll([]tmsg{
		{kind: Value, from: 1, time: 10},
		{kind: Null, from: 1, time: 100},
	})
	if v := h.Violations(); len(v) != 0 {
		t.Fatalf("folded batch flagged: %v", v)
	}
	// But the bound does apply to the next batch.
	tr.PutAll([]tmsg{{kind: Value, from: 1, time: 99}})
	if v := h.Violations(); len(v) != 1 {
		t.Fatalf("violations = %v, want the bound from the folded null to bind later batches", v)
	}
	// Aux messages carry no timestamp semantics and are never checked.
	tr.PutAll([]tmsg{{kind: Aux, from: 1, time: 0}})
	if v := h.Violations(); len(v) != 1 {
		t.Fatalf("aux message changed the verdict: %v", v)
	}
}

// TestConcurrentProducersFIFO hammers the transport with concurrent
// senders under delays and splits, asserting per-sender FIFO and no loss.
func TestConcurrentProducersFIFO(t *testing.T) {
	const senders, msgs = 4, 200
	plan := Plan{
		{Op: OpDelay, LP: 0, Src: 1, Seq: 2, N: 4},
		{Op: OpDelay, LP: 0, Src: 3, Seq: 0, N: 2},
		{Op: OpSplit, LP: 0, Src: 2, Seq: 1},
		{Op: OpReorder, LP: 0, Seq: 3},
		{Op: OpReorder, LP: 0, Seq: 7},
	}
	h := NewHook(9, plan)
	tr, _ := wrapT(t, h, 0)

	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < msgs; i += 2 {
				tr.PutAll([]tmsg{
					{kind: Value, from: s, time: uint64(1000 + i), seq: i},
					{kind: Value, from: s, time: uint64(1000 + i + 1), seq: i + 1},
				})
			}
		}(s)
	}

	var got []tmsg
	done := make(chan struct{})
	go func() {
		for len(got) < senders*msgs {
			out, ok := tr.WaitDrain(nil)
			got = append(got, out...)
			if !ok {
				break
			}
		}
		done <- struct{}{}
	}()
	wg.Wait()
	// Producers finished; keep poking so the consumer's WaitDrain ticks
	// the remaining hold ttls rather than blocking forever.
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				tr.Poke()
			}
		}
	}()
	<-done

	if len(got) != senders*msgs {
		t.Fatalf("received %d messages, want %d", len(got), senders*msgs)
	}
	lastSeq := map[int]int{}
	for s := 1; s <= senders; s++ {
		lastSeq[s] = -1
	}
	for _, m := range got {
		if m.seq != lastSeq[m.from]+1 {
			t.Fatalf("sender %d: seq %d after %d (FIFO broken)", m.from, m.seq, lastSeq[m.from])
		}
		lastSeq[m.from] = m.seq
	}
	if v := h.Violations(); len(v) != 0 {
		t.Errorf("spurious violations on monotone senders: %v", v)
	}
}

// TestStallFiresAtScheduledCrossing: the Nth crossing stalls, others pass
// through; a nil hook is inert.
func TestStallFiresAtScheduledCrossing(t *testing.T) {
	f := Fault{Op: OpStall, LP: 2, Phase: PhaseBlock, Seq: 1, N: 3}
	h := NewHook(5, Plan{f})

	h.Stall(2, PhaseBlock) // crossing 0: no stall
	if len(h.Fired()) != 0 {
		t.Fatalf("stall fired early: %v", h.Fired())
	}
	h.Stall(2, PhaseEvaluate) // wrong phase: separate counter
	h.Stall(1, PhaseBlock)    // wrong LP
	h.Stall(2, PhaseBlock)    // crossing 1: fires
	fired := h.Fired()
	if len(fired) != 1 || fired[0] != f.String() {
		t.Fatalf("Fired = %v, want %q", fired, f.String())
	}
	h.Stall(2, PhaseBlock) // crossing 2: done
	if len(h.Fired()) != 1 {
		t.Errorf("stall fired again: %v", h.Fired())
	}

	var nilHook *Hook
	nilHook.Stall(0, PhaseEvaluate) // must not panic
}

func TestFaultStrings(t *testing.T) {
	cases := map[string]Fault{
		"delay(lp1<-lp2 batch 3, 4 drains)": {Op: OpDelay, LP: 1, Src: 2, Seq: 3, N: 4},
		"split(lp0<-lp3 batch 7)":           {Op: OpSplit, LP: 0, Src: 3, Seq: 7},
		"reorder(lp2 drain 9)":              {Op: OpReorder, LP: 2, Seq: 9},
		"stall(lp1 rollback #5, 64 yields)": {Op: OpStall, LP: 1, Phase: PhaseRollback, Seq: 5, N: 64},
	}
	for want, f := range cases {
		if got := f.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// TestWaitingForwards: the wrapper reports the inner mailbox's receiver
// state, so the LP loop's flush to a waiting neighbour runs under chaos.
func TestWaitingForwards(t *testing.T) {
	tr, _ := wrapT(t, NewHook(7, nil), 0)
	if tr.Waiting() {
		t.Fatal("Waiting with no receiver")
	}
	done := make(chan struct{})
	go func() {
		tr.WaitDrain(nil)
		close(done)
	}()
	for !tr.Waiting() {
		runtime.Gosched()
	}
	tr.Poke()
	<-done
	if tr.Waiting() {
		t.Fatal("Waiting after the receiver returned")
	}
}
