// Package cmb implements conservative asynchronous simulation in the
// Chandy–Misra–Bryant style.
//
// Each logical process runs as its own goroutine with a private simulated
// clock. The input waiting rule is enforced through per-link promises: a
// null message from LP A carrying timestamp P guarantees that every future
// value message from A has time >= P, so the receiver may safely process
// any event strictly earlier than the minimum promise over its input
// links. Promises are computed from the sender's earliest possible next
// processing time plus the link lookahead (the minimum delay of the
// sender's gates whose outputs cross that link) — positive lookahead on
// every link is what makes the null-message chain advance around cycles,
// exactly the classic deadlock-avoidance argument.
//
// Three protocol variants reproduce the paper's Section IV taxonomy:
//
//   - NullEager: promises are pushed to downstream neighbours after every
//     processing step (classic deadlock avoidance).
//   - NullDemand: promises are only sent in response to a request from a
//     blocked neighbour (demand-driven nulls, lower null traffic, higher
//     blocking latency).
//   - DeadlockRecovery: no null messages at all; the last LP to block
//     finds global quiescence (every LP blocked, nothing unhandled) on a
//     shared ledger and broadcasts a permit advancing the safe time to
//     the global minimum next event — the circulating-marker / deadlock
//     recovery family.
//
// The engine is one body generic over the value type carried by events
// and messages, built on a circuit.Plane[V]: logic.Value for Run and
// logic.Word for the 64-lane RunWide. Promises, blocking, and quiescence
// detection are value-blind, so both instantiations run the identical
// synchronization algorithm.
package cmb

import (
	"fmt"
	gosync "sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/dist/wire"
	"repro/internal/eventq"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/kernel"
	"repro/internal/sim/lpnet"
	"repro/internal/sim/supervise"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// Mode selects the synchronization variant.
type Mode uint8

// The protocol variants.
const (
	NullEager Mode = iota
	NullDemand
	DeadlockRecovery
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case NullEager:
		return "null-eager"
	case NullDemand:
		return "null-demand"
	case DeadlockRecovery:
		return "deadlock-recovery"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ConfigT parameterizes a conservative run on the value plane of V.
type ConfigT[V comparable] struct {
	// Partition assigns gates to LPs; required.
	Partition *partition.Partition
	// Mode selects the protocol variant.
	Mode Mode
	// System is the logic value system; zero selects the plane's default.
	System logic.System
	// Queue selects each LP's pending-event set implementation.
	Queue eventq.Impl
	// Watch lists nets to record; nil watches primary outputs.
	Watch []circuit.GateID
	// MaxEvents aborts runaway simulations; 0 means no limit.
	MaxEvents uint64
	// Metrics receives per-LP counters and quiescence-round globals; nil
	// uses a private registry.
	Metrics metrics.Sink
	// Tracer, when non-nil, records per-LP evaluate/block spans, and a gvt
	// span per permit round on the timeline of the LP that granted it.
	Tracer *trace.Tracer
	// Chaos, when non-nil, wraps every LP inbox in the fault-injecting
	// chaos transport and enables stall points at the evaluate/block/wake
	// boundaries. Test harness use only; nil leaves the hot path on the
	// raw mailboxes.
	Chaos *inject.Hook
	// HangTimeout, when positive, attaches a progress watchdog: if no LP
	// advances (LVT, safe bound, or processed events) for this long, the
	// run aborts with a supervise.SimError carrying a per-LP hang report.
	HangTimeout time.Duration
	// Boot, when non-nil, resumes from a checkpoint: LP state planes are
	// seeded, pending events routed to their owners and ghosts, and the
	// time-0 settling step skipped. Result.Waveform holds only samples
	// after the boundary (callers prepend the checkpoint's prefix).
	Boot *ckpt.StateT[V]
	// Sweep arms the kernel's oblivious block sweep (RunWide always arms
	// it): once a step's dirty set covers half an LP's
	// block, the whole block is evaluated in one levelized pass. Intended
	// for cone-split partitions, whose fat per-cone blocks saturate the
	// dirty set on nearly every active step.
	Sweep bool
	// Dist, when non-nil, runs this process as one shard of a
	// distributed simulation: only the LPs the seam maps to this shard
	// execute locally, remote LPs' mailboxes are replaced by socket
	// outboxes, and inbound batches are delivered through the seam's
	// bindings. Null-message modes only (the deadlock-recovery ledger
	// is one process's memory). The wire format carries
	// scalar values: RunWide runs every LP locally.
	Dist *wire.Seam
	// Cuts, when non-nil, has every LP capture its part of a consistent
	// cut at each checkpoint boundary b, as soon as its next event and its
	// safe time both lie past b: nothing at or before b can reach it any
	// more.
	Cuts *ckpt.Cuts[V]
}

// ResultT is the outcome of a conservative run over value type V.
type ResultT[V comparable] struct {
	Values []V
	// Waveform converts to trace.Waveform or trace.WideWaveform.
	Waveform []trace.SampleT[V]
	EndTime  circuit.Tick
	Stats    stats.RunStats
}

// The scalar and wide (64-lane) instances of ConfigT and ResultT.
type (
	Config     = ConfigT[logic.Value]
	WideConfig = ConfigT[logic.Word]
	Result     = ResultT[logic.Value]
	WideResult = ResultT[logic.Word]
)

// infTick is the "never" timestamp.
const infTick = circuit.Tick(^uint64(0))

// outLink is one cross-LP edge with its lookahead.
type outLink struct {
	dst int
	la  circuit.Tick
}

// shared bundles cross-goroutine state of a run.
type shared[V comparable] struct {
	mode   Mode
	engine string // metrics/supervise label
	until  circuit.Tick
	chaos  *inject.Hook
	// net is the LP network. Its Transit counts every message that must be
	// handled before the system can be quiet: value messages from Send to
	// handle, and (detect mode) permits from broadcast to handle.
	net *lpnet.Net[V]

	// The quiescence ledger (detect mode), guarded by quietMu: blocked
	// counts LPs between park and wake, next[i] is LP i's earliest pending
	// event as of its last park. An LP leaves blocked before it handles
	// what woke it, so while blocked == n nobody can touch transit, and
	// transit == 0 then means every LP is parked with next current.
	quietMu gosync.Mutex
	blocked int
	next    []circuit.Tick
	// rounds counts permit broadcasts: each is a global quiescence
	// detection plus a permit fan-out, priced like a GVT round by the cost
	// model. This is exactly the overhead that makes deadlock recovery
	// slow: the paper's circulating-marker algorithms pay a global
	// synchronization per advance.
	rounds uint64
}

// clp is one conservative logical process: the network's loop drives it,
// and its methods are the conservative rule (lpnet.Rule).
type clp[V comparable] struct {
	lpnet.LP[V, kernel.EventT[V]]
	sh   *shared[V]
	safe circuit.Tick // DeadlockRecovery: permit bound; null modes: derived
	// bound, last, reqd, and awaiting are dense per-LP-id slices (length =
	// LP count) rather than maps: the hot promise/handle paths index them
	// per message, and a handful of words per peer is cheaper than map
	// hashing.
	bound []circuit.Tick
	last  []circuit.Tick // last promise sent per out-link dst
	out   []outLink
	in    []int
	reqd  []bool // dsts that requested a promise (demand mode)
	// awaiting tracks in-links with an outstanding promise request, so a
	// blocked LP keeps at most one request in flight per source; without
	// the bound, mutual re-requesting among blocked LPs becomes a message
	// storm that grows with the LP count.
	awaiting []bool
}

// checkDist validates a distributed configuration. The null-message
// modes distribute cleanly — promises are point-to-point and carry their
// own bounds, so the protocol is oblivious to which side of a socket a
// neighbour lives on — but DeadlockRecovery detects quiescence on a
// mutex-guarded ledger of every LP's blocked state, which has no sound
// per-shard restriction: a remote LP's park and wake would have to be
// observed atomically with the local ones. Distributed runs therefore
// keep to the null modes.
func checkDist[V comparable](cfg ConfigT[V]) error {
	if cfg.Dist != nil && cfg.Mode == DeadlockRecovery {
		return fmt.Errorf("cmb: distributed runs do not support deadlock-recovery mode (the quiescence ledger is one process's memory)")
	}
	return nil
}

// Run simulates c under the stimulus until the given time (inclusive).
func Run(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, cfg Config) (*Result, error) {
	return run(circuit.Scalar, "cmb", c, stim, until, cfg)
}

// RunWide is the conservative engine on 64 packed lanes: the identical
// null-message / deadlock-recovery protocol with every value message and
// event carrying a whole 64-lane word. Inside each LP the kernel's
// oblivious block sweep is armed: when the (lane-union) dirty set reaches
// half the LP's block, the step evaluates the whole owned block in
// levelized order obliviously-wide instead of walking the event-driven
// selection machinery — scalar event semantics at LP boundaries, batch
// evaluation inside. Per lane, the result is bit-identical to a scalar
// conservative run of that lane's stimulus.
func RunWide(c *circuit.Circuit, stim *vectors.WideStimulus, until circuit.Tick, cfg WideConfig) (*WideResult, error) {
	// A lane-union dirty set saturates, so a wide run always sweeps; the
	// wire format carries scalar values, so every LP runs locally.
	cfg.Sweep, cfg.Dist = true, nil
	return run(circuit.Wide, "cmb-wide", c, stim, until, cfg)
}

// run is the conservative engine over value type V: it derives the LP
// graph on the shared LP network, runs the LPs to completion, and
// assembles the result. engine labels the metrics registry and errors,
// and cfg.Boot, when non-nil, replaces the stimulus and the time-zero
// settling step.
func run[V comparable](
	pl *circuit.Plane[V],
	engine string,
	c *circuit.Circuit,
	stim vectors.Source[V],
	until circuit.Tick,
	cfg ConfigT[V],
) (*ResultT[V], error) {
	if err := checkDist(cfg); err != nil {
		return nil, err
	}
	net, err := lpnet.Open(lpnet.Spec[V]{
		Engine: engine, Plane: pl, Circuit: c, Partition: cfg.Partition,
		System: cfg.System, Watch: cfg.Watch, Sweep: cfg.Sweep, Until: until,
		Chaos: cfg.Chaos, Seam: cfg.Dist, Cuts: cfg.Cuts,
		Metrics: cfg.Metrics, Label: engine + "-" + cfg.Mode.String(), Tracer: cfg.Tracer,
		HangTimeout: cfg.HangTimeout, MaxEvents: cfg.MaxEvents,
	}, stim, cfg.Boot)
	if err != nil {
		return nil, err
	}

	n, owner := cfg.Partition.Blocks, cfg.Partition.Assign
	sh := &shared[V]{mode: cfg.Mode, engine: engine, until: until, chaos: cfg.Chaos, net: net, next: make([]circuit.Tick, n)}
	// The LP graph: la[src*n+dst] is the lookahead of the link src → dst,
	// the smallest delay of a gate on src driving one on dst, or infTick
	// when there is no link.
	la := make([]circuit.Tick, n*n)
	for i := range la {
		la[i] = infTick
	}
	for g := range c.Gates {
		src := owner[g]
		for _, fo := range c.Fanout[g] {
			if dst := owner[fo]; dst != src {
				la[src*n+dst] = min(la[src*n+dst], c.Gates[g].Delay)
			}
		}
	}
	// laBias widens every link lookahead when the chaos hook's sabotage
	// knob is set: the engine then promises bounds it cannot keep, which
	// the chaos transport's promise checker must catch.
	laBias := circuit.Tick(0)
	if cfg.Chaos != nil {
		laBias = circuit.Tick(cfg.Chaos.LookaheadBias)
	}
	lps := make([]clp[V], n)
	for i := range lps {
		l := &lps[i]
		lpnet.Join(net, &l.LP, i, l, eventq.NewCap[kernel.EventT[V]](cfg.Queue, 128), lpnet.Burst)
		l.sh, l.safe = sh, 1
		l.bound, l.last = make([]circuit.Tick, n), make([]circuit.Tick, n)
		l.reqd, l.awaiting = make([]bool, n), make([]bool, n)
		for j := 0; j < n; j++ {
			if d := la[i*n+j]; d != infTick {
				l.out = append(l.out, outLink{j, d + laBias})
			}
			if la[j*n+i] != infTick {
				l.in = append(l.in, j)
				l.bound[j] = 1
			}
		}
		l.K.Schedule = func(t circuit.Tick, g circuit.GateID, v V) {
			l.Q.Push(uint64(t), kernel.EventT[V]{Gate: g, Value: v})
		}
		l.K.Send = func(dst int, t circuit.Tick, g circuit.GateID, v V) {
			net.Transit.Add(1)
			l.Batch.Put(dst, lpnet.Msg[V]{Kind: lpnet.Value, From: l.ID, Time: t, Gate: g, Value: v})
		}
	}

	if err := net.Run(lpnet.Launch{}); err != nil {
		return nil, err
	}
	sink := net.Sink()
	sink.Globals().GVTRounds = sh.rounds
	// null_ratio is the conservative protocol's headline overhead
	// (nulls sent per applied event) as a run gauge — the signal the
	// adaptive engine-switch controller thresholds on.
	tot := metrics.SinkTotals(sink)
	if tot.EventsApplied > 0 {
		sink.SetGauge("null_ratio", float64(tot.NullsSent)/float64(tot.EventsApplied))
	}
	out := net.Result()
	return &ResultT[V]{Values: out.Values, Waveform: out.Waveform, EndTime: out.EndTime, Stats: out.Stats}, nil
}

// safeTime computes the time strictly below which this LP may process.
func (l *clp[V]) safeTime() circuit.Tick {
	if l.sh.mode == DeadlockRecovery {
		return l.safe
	}
	min := infTick
	for _, src := range l.in {
		if b := l.bound[src]; b < min {
			min = b
		}
	}
	return min
}

// Next returns the earliest pending event time (infTick if none).
func (l *clp[V]) Next() circuit.Tick {
	if t, ok := l.Q.PeekTime(); ok {
		return circuit.Tick(t)
	}
	return infTick
}

// promise computes the bound this LP can currently guarantee on a link
// with the given lookahead: its earliest possible next processing time
// plus the lookahead.
func (l *clp[V]) promise(la circuit.Tick) circuit.Tick {
	e := l.Next()
	if s := l.safeTime(); s < e {
		e = s
	}
	if e > l.sh.until {
		return infTick
	}
	if e > infTick-la {
		return infTick
	}
	return e + la
}

// sendPromises batches increased promises on the selected out-links. A
// promise still batched from an earlier call is superseded in place (the
// batcher's fold): it counts as sent — the protocol work happened — but
// never reaches the wire.
func (l *clp[V]) sendPromises(onlyRequested bool) {
	for _, link := range l.out {
		if onlyRequested && !l.reqd[link.dst] {
			continue
		}
		p := l.promise(link.la)
		if p <= l.last[link.dst] {
			continue
		}
		l.last[link.dst] = p
		l.reqd[link.dst] = false
		l.St.NullsSent++
		if l.Batch.Put(link.dst, lpnet.Msg[V]{Kind: lpnet.Null, From: l.ID, Time: p}) {
			l.St.NullsFolded++
		}
	}
}

// Pend queues a routed event as it is.
func (l *clp[V]) Pend(ev kernel.EventT[V]) kernel.EventT[V] { return ev }

// Live holds for every entry: nothing a conservative LP queues is undone.
func (l *clp[V]) Live(kernel.EventT[V]) bool { return true }

// Begin sends the first promises (null modes).
func (l *clp[V]) Begin() {
	if l.sh.mode != DeadlockRecovery {
		l.sendPromises(false)
	}
}

// Handle processes one inbound message; it returns false on terminate.
// Value messages count transit at their Send site (batch time), so the
// deadlock-recovery quiescence test cannot pass with unflushed batches.
func (l *clp[V]) Handle(m lpnet.Msg[V]) bool {
	switch m.Kind {
	case lpnet.Value:
		l.sh.net.Settle(m.From)
		l.St.MessagesRecv++
		if m.Time < l.LVT {
			l.sh.net.Fail(&supervise.SimError{
				Engine: l.sh.engine, LP: l.ID, Phase: "handle", ModeledTime: l.LVT,
				Kind: supervise.KindCausality,
				Cause: fmt.Errorf("causality violation: lp %d received value for t=%d from lp %d after processing t=%d",
					l.ID, m.Time, m.From, l.LVT),
			})
			return false
		}
		l.Q.Push(uint64(m.Time), kernel.EventT[V]{Gate: m.Gate, Value: m.Value})
	case lpnet.Null:
		l.St.NullsRecv++
		l.awaiting[m.From] = false
		if m.Time > l.bound[m.From] {
			l.bound[m.From] = m.Time
		}
	case lpnet.Request:
		l.reqd[m.From] = true
	case lpnet.Permit:
		l.sh.net.Transit.Add(-1)
		if s := m.Time + 1; s > l.safe {
			l.safe = s
		}
	case lpnet.Terminate:
		// Only a deadlock-recovery round that found nothing left inside
		// the horizon terminates: every state is final.
		l.takeCuts(infTick, infTick)
		return false
	}
	return true
}

// takeCuts captures every pending checkpoint boundary below both next,
// the LP's earliest pending event, and safe, the bound under which it may
// still receive one.
func (l *clp[V]) takeCuts(next, safe circuit.Tick) {
	for l.Cut < next && l.Cut < safe {
		l.sh.net.Emit(l.TakeCut(lpnet.Pending[V]))
	}
}

// Ready holds for every step inside the horizon below the safe time; on
// the way it takes the cuts the step at t leaves behind.
func (l *clp[V]) Ready(t circuit.Tick) bool {
	safe := l.safeTime()
	if t > l.Cut {
		l.takeCuts(t, safe)
	}
	return t != infTick && t <= l.sh.until && t < safe
}

// Step executes the step at t; nothing is saved.
func (l *clp[V]) Step(t circuit.Tick, evs []kernel.EventT[V]) {
	l.K.Step(t, evs, false, nil, &l.St.LPCounters)
}

// Idle follows every burst of safe steps. The null modes push promises
// — eagerly, or (demand mode) only to outstanding requests; either way
// only increases are transmitted — and finish once nothing is left inside
// the horizon; a demand LP asks each in-link it waits on for a promise
// before it parks. In DeadlockRecovery the LP that finds quiescence with
// nothing left inside the horizon terminates the run, and until then LPs
// just keep parking.
func (l *clp[V]) Idle(t circuit.Tick) lpnet.Verdict {
	if l.sh.mode != DeadlockRecovery {
		demand := l.sh.mode == NullDemand
		l.sendPromises(demand)
		if t > l.sh.until && l.safeTime() > l.sh.until {
			// Final promises are already infTick via promise().
			l.sendPromises(false)
			return lpnet.Done
		}
		if demand {
			for _, src := range l.in {
				if l.awaiting[src] || l.bound[src] > l.sh.until {
					continue
				}
				l.awaiting[src] = true
				l.Batch.Put(src, lpnet.Msg[V]{Kind: lpnet.Request, From: l.ID})
			}
		}
	}
	l.Slot.SetBound(uint64(l.safeTime()))
	return lpnet.Park
}

// Park enters this LP on the quiescence ledger (DeadlockRecovery mode).
// The LP whose entry makes every LP blocked with nothing in transit has
// found the deadlock, and recovers from it itself: it grants a permit
// advancing the safe time to the global minimum pending event or, when
// nothing remains inside the horizon, terminates the run. Its own copy
// of the broadcast is what its WaitDrain then returns with.
//
// Exact: an LP between WaitDrain returning and its blocked-- (Wake)
// holds at least one unhandled message (or a poke that changed nothing),
// which transit still counts, so the test cannot pass around it; and
// every permit is in transit until handled, so no round starts before the
// previous one has reached every LP. Live: whoever takes transit to zero
// is awake, and the last awake LP to park sees blocked == n.
func (l *clp[V]) Park() {
	sh := l.sh
	if sh.mode != DeadlockRecovery {
		return
	}
	sh.quietMu.Lock()
	defer sh.quietMu.Unlock()
	sh.next[l.ID] = l.Next()
	sh.blocked++
	if sh.blocked < len(sh.next) || sh.net.Transit.Load() != 0 {
		return
	}
	gmin := infTick
	for _, t := range sh.next {
		if t < gmin {
			gmin = t
		}
	}
	grant := lpnet.Msg[V]{Kind: lpnet.Terminate}
	if gmin <= sh.until {
		grant = lpnet.Msg[V]{Kind: lpnet.Permit, Time: gmin}
		sh.rounds++
		sh.net.Transit.Add(int64(len(sh.net.Inboxes)))
	}
	begin := l.Trace.Now()
	for _, ib := range sh.net.Inboxes {
		ib.Put(grant)
	}
	l.Trace.Span(trace.PhaseGVT, begin, gmin)
}

// Wake leaves the quiescence ledger (DeadlockRecovery mode), before the
// LP touches transit by handling what woke it.
func (l *clp[V]) Wake() {
	if l.sh.mode != DeadlockRecovery {
		return
	}
	l.sh.chaos.Stall(l.ID, inject.PhaseWake)
	l.sh.quietMu.Lock()
	l.sh.blocked--
	l.sh.quietMu.Unlock()
}
