package lpnet

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/circuit"
	"repro/internal/eventq"
	"repro/internal/metrics"
	"repro/internal/sim/kernel"
	"repro/internal/sim/supervise"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/trace"
)

// Verdict is a rule's decision for an LP that cannot step.
type Verdict uint8

// The verdicts.
const (
	// Park waits for messages in the block phase.
	Park Verdict = iota
	// Pause waits for messages in the barrier phase: a Time Warp LP frozen
	// while GVT is found.
	Pause
	// Done ends the LP's run.
	Done
)

// Pace is how an LP interleaves its steps with its inbox.
type Pace uint8

// The paces.
const (
	// Burst runs every step the rule allows between two drains, and
	// flushes only before the LP parks or finishes: cmb, whose promises
	// follow each burst.
	Burst Pace = iota
	// Eager runs one step between two drains, flushes after every drain
	// and every step, and yields after every step: Time Warp, which must
	// hear of a straggler as soon as it can.
	Eager
)

// Rule is one protocol's part of an LP: every decision the loop calls out
// to. E is the LP's pending-event entry.
type Rule[V comparable, E any] interface {
	// Pend makes a routed stimulus or checkpoint event a queue entry.
	Pend(ev kernel.EventT[V]) E
	// Begin runs once, after the settling step and before the first flush.
	Begin()
	// Handle processes one inbound message; false ends the LP's run.
	Handle(m Msg[V]) bool
	// Next is the time of the LP's earliest live pending event.
	Next() circuit.Tick
	// Ready reports whether the LP may execute its step at t now, after
	// capturing the checkpoint boundaries its protocol lets it.
	Ready(t circuit.Tick) bool
	// Live reports whether a popped entry is still to be executed.
	Live(e E) bool
	// Step executes the step at t on its live entries.
	Step(t circuit.Tick, evs []E)
	// Idle decides what the LP does once it cannot step at t.
	Idle(t circuit.Tick) Verdict
	// Park and Wake bracket every block-phase wait.
	Park()
	Wake()
}

// LP is the loop's part of one logical process, embedded in each engine's
// LP type. The engine reads and writes the exported fields; the loop owns
// the rest.
type LP[V comparable, E any] struct {
	ID int
	// K is the LP's kernel. The engine installs its Schedule and Send
	// hooks; Record is already wired to the LP's recorder.
	K     *kernel.LPT[V]
	Q     eventq.Queue[E]
	St    *metrics.LPBlock
	Trace *trace.Shard
	Slot  *supervise.LPSlot // nil-safe; nil without a scoreboard
	Batch *Batcher[V]
	// LVT is the time of the last step executed and not rolled back.
	LVT circuit.Tick
	// Cut is the next checkpoint boundary to capture (ckpt.Never when
	// checkpointing is off or every boundary is taken).
	Cut circuit.Tick

	net  *Net[V]
	rule Rule[V, E]
	pace Pace
	buf  []Msg[V]
	evs  []E
}

// runner is what the launcher and the router see of an LP.
type runner[V comparable] interface {
	push(t uint64, ev kernel.EventT[V])
	drive(initial []kernel.EventT[V])
	lvt() circuit.Tick
}

// Join makes l LP id of n, run by rule r at pace p over the pending-event
// set q.
func Join[V comparable, E any](n *Net[V], l *LP[V, E], id int, r Rule[V, E], q eventq.Queue[E], p Pace) {
	*l = LP[V, E]{
		ID: id, K: n.lps[id].k, Q: q, St: n.sink.LP(id),
		Trace: n.tracer.Shard(fmt.Sprintf("lp %d", id)), Slot: n.board.LP(id),
		Batch: &n.lps[id].batch, Cut: n.FirstCut(),
		net: n, rule: r, pace: p, buf: make([]Msg[V], 0, 64),
	}
	n.lps[id].drv = l
}

func (l *LP[V, E]) push(t uint64, ev kernel.EventT[V]) { l.Q.Push(t, l.rule.Pend(ev)) }

func (l *LP[V, E]) lvt() circuit.Tick { return l.LVT }

// drive is the LP's goroutine body, the one loop both protocols run: drain
// and handle, step, then idle as the rule decides. Batched sends obey one
// rule: every path to a wait or to the end flushes first, so no message
// sits in a batch while its sender sleeps; quiescence, GVT and
// deadlock-freedom all depend on it. An eager LP also flushes after every
// drain and every step.
func (l *LP[V, E]) drive(initial []kernel.EventT[V]) {
	n, r := l.net, l.rule
	l.Slot.SetPhase(supervise.PhaseRun)
	defer l.Slot.SetPhase(supervise.PhaseDone)
	if n.boot == nil {
		// The time-zero settling step; a checkpoint's state is already
		// settled. No message can reach time zero, so it never rolls back.
		begin := l.Trace.Now()
		l.K.Step(0, initial, true, nil, &l.St.LPCounters)
		l.observe(0, len(initial), begin)
	}
	r.Begin()
	l.Batch.Flush()
	for !n.Aborted() {
		if !l.serve(n.Inboxes[l.ID].TryDrain(l.buf[:0])) {
			return
		}
		t, stepped, ok := l.steps()
		if !ok {
			return
		}
		if err := l.Q.Err(); err != nil {
			n.Fail(&supervise.SimError{
				Engine: n.engine, LP: l.ID, Phase: "eventq", ModeledTime: l.LVT,
				Kind: supervise.KindCausality, Cause: err,
			})
			return
		}
		// The evaluate stall point is crossed once per step at the Eager
		// pace and once per round, stepped or not, at the Burst pace:
		// seeded chaos plans number the crossings, so both keep the count
		// their engine always had.
		switch {
		case stepped && l.pace == Eager:
			l.Batch.Flush()
			n.chaos.Stall(l.ID, inject.PhaseEvaluate)
			// Yield between speculative steps. Without this, a single-core
			// scheduler lets one LP race arbitrarily far ahead before its
			// neighbours run at all, and the eventual stragglers roll back
			// nearly everything: optimism thrash that exists only as a
			// scheduling artifact.
			runtime.Gosched()
			continue
		case l.pace == Burst:
			n.chaos.Stall(l.ID, inject.PhaseEvaluate)
		}
		v := r.Idle(t)
		l.Batch.Flush()
		if v == Done || !l.wait(v, t) {
			return
		}
	}
}

// steps runs the steps the rule allows, at most one at the Eager pace. It
// returns the time it stopped at, whether any step ran, and false when
// the event limit ended the run.
func (l *LP[V, E]) steps() (t circuit.Tick, stepped, ok bool) {
	n, r := l.net, l.rule
	for {
		t = r.Next()
		if !r.Ready(t) {
			return t, stepped, true
		}
		l.evs = l.evs[:0]
		for {
			pt, ok := l.Q.PeekTime()
			if !ok || circuit.Tick(pt) != t {
				break
			}
			if _, e, _ := l.Q.PopMin(); r.Live(e) {
				l.evs = append(l.evs, e)
			}
		}
		// The shared counter is always maintained — distributed runs
		// report it in heartbeats — and doubles as the runaway guard.
		if k := n.events.Add(uint64(len(l.evs))); n.maxEvents > 0 && k > n.maxEvents {
			n.Fail(&supervise.SimError{
				Engine: n.engine, LP: l.ID, Phase: "run", ModeledTime: t,
				Kind:  supervise.KindEventLimit,
				Cause: fmt.Errorf("event limit %d exceeded at time %d", n.maxEvents, t),
			})
			return t, stepped, false
		}
		// Publish progress before the step so a single long evaluation is
		// not mistaken for a hang.
		l.Slot.AddEvents(uint64(len(l.evs)))
		begin := l.Trace.Now()
		r.Step(t, l.evs)
		l.observe(t, len(l.evs), begin)
		l.LVT = t
		l.Slot.SetLVT(uint64(t))
		if stepped = true; l.pace == Eager {
			return t, true, true
		}
	}
}

// observe closes a step's evaluate span and counts its events.
func (l *LP[V, E]) observe(t circuit.Tick, events int, begin time.Time) {
	l.St.Hist(metrics.HistStepEvents).Observe(uint64(events))
	l.Trace.Span(trace.PhaseEvaluate, begin, t)
}

// wait parks the LP as v says, its next event at t, until messages
// arrive, and handles them; false ends the run.
func (l *LP[V, E]) wait(v Verdict, t circuit.Tick) bool {
	ph, span := supervise.PhaseBarrier, trace.PhaseBarrier
	if v == Park {
		l.net.chaos.Stall(l.ID, inject.PhaseBlock)
		l.St.Blocks++
		l.Slot.SetNext(uint64(t))
		ph, span = supervise.PhaseBlock, trace.PhaseBlock
	}
	l.Slot.SetPhase(ph)
	begin := l.Trace.Now()
	if v == Park {
		l.rule.Park()
	}
	buf, ok := l.net.Inboxes[l.ID].WaitDrain(l.buf[:0])
	if v == Park {
		l.rule.Wake()
	}
	l.Trace.Span(span, begin, trace.NoTick)
	l.Slot.SetPhase(supervise.PhaseRun)
	return ok && l.serve(buf)
}

// serve handles a drained batch, stopping at a message that ends the run.
func (l *LP[V, E]) serve(buf []Msg[V]) bool {
	l.buf = buf
	for _, m := range buf {
		if !l.rule.Handle(m) {
			return false
		}
	}
	if l.pace == Eager {
		l.Batch.Flush()
	}
	return true
}
