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
	"sync/atomic"
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
	cfg    ConfigT[V]
	engine string // metrics/supervise label
	boot   bool
	until  circuit.Tick
	// net is the LP network. Its Transit counts every message that must be
	// handled before the system can be quiet: value messages from Send to
	// handle, and (detect mode) permits from broadcast to handle.
	net    *lpnet.Net[V]
	events atomic.Uint64

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

// clp is one conservative logical process.
type clp[V comparable] struct {
	id   int
	sh   *shared[V]
	k    *kernel.LPT[V]
	q    eventq.Queue[kernel.EventT[V]]
	st   *metrics.LPBlock
	trsh *trace.Shard
	lvt  circuit.Tick
	safe circuit.Tick // DeadlockRecovery: permit bound; null modes: derived
	// bound, last, reqd, and awaiting are dense per-LP-id slices (length =
	// LP count) rather than maps: the hot promise/handle paths index them
	// per message, and a handful of words per peer is cheaper than map
	// hashing — and allocation-free after setup.
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
	// batch holds outgoing messages per destination until a flush point:
	// before any WaitDrain, and at termination. Promises only increase, so
	// it folds a newer null over the batched one and only the strongest
	// promise per flush reaches the wire.
	batch *lpnet.Batcher[V]
	buf   []lpnet.Msg[V]
	evs   []kernel.EventT[V]
	end   circuit.Tick
	// cut is the next checkpoint boundary to capture (ckpt.Never when
	// checkpointing is off or every boundary is taken).
	cut circuit.Tick
	// slot is the watchdog scoreboard entry (nil-safe; nil without a
	// watchdog).
	slot *supervise.LPSlot
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
// graph on the shared LP network, runs the LP goroutines to completion,
// and assembles the result. engine labels the metrics registry and
// errors, and cfg.Boot, when non-nil, replaces the stimulus and the
// time-zero settling step.
func run[V comparable](
	pl *circuit.Plane[V],
	engine string,
	c *circuit.Circuit,
	stim vectors.Source[V],
	until circuit.Tick,
	cfg ConfigT[V],
) (*ResultT[V], error) {
	changes, err := vectors.Schedule(pl, c, stim, &cfg.System)
	if err != nil {
		return nil, err
	}
	if err := checkDist(cfg); err != nil {
		return nil, err
	}
	boot, err := cfg.Boot.Seed(c, cfg.System)
	if err != nil {
		return nil, err
	}
	net, err := lpnet.New(lpnet.Spec[V]{
		Engine: engine, Plane: pl, Circuit: c, Partition: cfg.Partition,
		System: cfg.System, Watch: cfg.Watch, Sweep: cfg.Sweep, Until: until, Boot: boot,
		Chaos: cfg.Chaos, Seam: cfg.Dist, Cuts: cfg.Cuts,
	})
	if err != nil {
		return nil, err
	}
	sink := cfg.Metrics
	if sink == nil {
		sink = metrics.NewRegistry(engine + "-" + cfg.Mode.String())
	}
	start := time.Now()

	p := cfg.Partition
	n := p.Blocks
	owner := p.Assign

	sh := &shared[V]{cfg: cfg, engine: engine, boot: boot != nil, until: until, net: net}
	// laBias widens every link lookahead when the chaos hook's sabotage
	// knob is set: the engine then promises bounds it cannot keep, which
	// the chaos transport's promise checker must catch.
	laBias := circuit.Tick(0)
	if cfg.Chaos != nil {
		laBias = circuit.Tick(cfg.Chaos.LookaheadBias)
	}
	// Derive the LP graph: links and lookaheads.
	type linkKey struct{ src, dst int }
	la := map[linkKey]circuit.Tick{}
	for g := range c.Gates {
		src := owner[g]
		d := c.Gates[g].Delay
		for _, fo := range c.Fanout[g] {
			dst := owner[fo]
			if dst == src {
				continue
			}
			k := linkKey{src, dst}
			if cur, ok := la[k]; !ok || d < cur {
				la[k] = d
			}
		}
	}

	// Per-LP in/out degrees, so link lists allocate exactly once.
	outDeg := make([]int, n)
	inDeg := make([]int, n)
	for k2 := range la {
		outDeg[k2.src]++
		inDeg[k2.dst]++
	}
	// Per-LP working state lives in shared slabs sliced per LP rather than
	// one small make per field per LP: the structures are fixed-size (length
	// or capacity known up front), so a single backing array per field class
	// replaces 10+ allocations per LP. Growable fields (out, in, evs, buf)
	// use three-index slices so an append past the reserved capacity
	// reallocates privately instead of clobbering a neighbour.
	totOut, totIn := 0, 0
	for i := 0; i < n; i++ {
		totOut += outDeg[i]
		totIn += inDeg[i]
	}
	var (
		lpSlab   = make([]clp[V], n)
		tickSlab = make([]circuit.Tick, 2*n*n+n) // bound + last, then next
		boolSlab = make([]bool, 2*n*n)           // reqd + awaiting
		outSlab  = make([]outLink, totOut)
		inSlab   = make([]int, totIn)
		evsSlab  = make([]kernel.EventT[V], n*64)
		bufSlab  = make([]lpnet.Msg[V], n*64)
	)
	sh.next = tickSlab[2*n*n:]
	// Progress watchdog: a scoreboard the LPs publish to, read by a monitor
	// goroutine that fails the run with a hang report when nothing moves.
	var board *supervise.Board
	if cfg.HangTimeout > 0 {
		board = supervise.NewBoard(n)
	}
	outOff, inOff := 0, 0
	for i := 0; i < n; i++ {
		l := &lpSlab[i]
		l.id = i
		l.sh = sh
		l.q = eventq.NewCap[kernel.EventT[V]](cfg.Queue, 128)
		l.bound = tickSlab[(2*i)*n : (2*i+1)*n : (2*i+1)*n]
		l.last = tickSlab[(2*i+1)*n : (2*i+2)*n : (2*i+2)*n]
		l.reqd = boolSlab[(2*i)*n : (2*i+1)*n : (2*i+1)*n]
		l.awaiting = boolSlab[(2*i+1)*n : (2*i+2)*n : (2*i+2)*n]
		l.batch = net.Batcher(i)
		l.out = outSlab[outOff : outOff : outOff+outDeg[i]]
		l.in = inSlab[inOff : inOff : inOff+inDeg[i]]
		l.evs = evsSlab[i*64 : i*64 : (i+1)*64]
		l.buf = bufSlab[i*64 : i*64 : (i+1)*64]
		l.safe = 1
		l.cut = net.FirstCut()
		l.st = sink.LP(i)
		l.trsh = cfg.Tracer.Shard(fmt.Sprintf("lp %d", i))
		l.slot = board.LP(i)
		outOff += outDeg[i]
		inOff += inDeg[i]
		l.k = net.Kernel(i)
		l.k.Schedule = func(t circuit.Tick, g circuit.GateID, v V) {
			l.q.Push(uint64(t), kernel.EventT[V]{Gate: g, Value: v})
		}
		l.k.Send = func(dst int, t circuit.Tick, g circuit.GateID, v V) {
			net.Transit.Add(1)
			l.batch.Put(dst, lpnet.Msg[V]{Kind: lpnet.Value, From: l.id, Time: t, Gate: g, Value: v})
		}
	}
	for k2, d := range la {
		src, dst := &lpSlab[k2.src], &lpSlab[k2.dst]
		src.out = append(src.out, outLink{k2.dst, d + laBias})
		src.last[k2.dst] = 0
		dst.in = append(dst.in, k2.src)
		dst.bound[k2.src] = 1
	}
	initial := net.Route(changes, func(lp int, t uint64, ev kernel.EventT[V]) {
		lpSlab[lp].q.Push(t, ev)
	})

	if err := net.Run(lpnet.Launch{
		LP:          func(i int) { lpSlab[i].run(initial[i]) },
		LVT:         func(i int) circuit.Tick { return lpSlab[i].lvt },
		Sink:        sink,
		Board:       board,
		HangTimeout: cfg.HangTimeout,
		MaxEvents:   cfg.MaxEvents,
		Progress:    func() (uint64, bool) { return sh.events.Load(), false },
	}); err != nil {
		return nil, err
	}

	res := &ResultT[V]{Values: net.Values(), Waveform: net.Waveform()}
	for i := range lpSlab {
		if end := lpSlab[i].end; end > res.EndTime {
			res.EndTime = end
		}
	}
	sink.Globals().GVTRounds = sh.rounds
	// null_ratio is the conservative protocol's headline overhead
	// (nulls sent per applied event) as a run gauge — the signal the
	// adaptive engine-switch controller thresholds on.
	tot := metrics.SinkTotals(sink)
	if tot.EventsApplied > 0 {
		sink.SetGauge("null_ratio", float64(tot.NullsSent)/float64(tot.EventsApplied))
	}
	res.Stats = stats.Collect(sink, time.Since(start))
	return res, nil
}

// safeTime computes the time strictly below which this LP may process.
func (l *clp[V]) safeTime() circuit.Tick {
	if l.sh.cfg.Mode == DeadlockRecovery {
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

// nextLocal returns the earliest pending event time (infTick if none).
func (l *clp[V]) nextLocal() circuit.Tick {
	if t, ok := l.q.PeekTime(); ok {
		return circuit.Tick(t)
	}
	return infTick
}

// promise computes the bound this LP can currently guarantee on a link
// with the given lookahead: its earliest possible next processing time
// plus the lookahead.
func (l *clp[V]) promise(la circuit.Tick) circuit.Tick {
	e := l.nextLocal()
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
		l.st.NullsSent++
		if l.batch.Put(link.dst, lpnet.Msg[V]{Kind: lpnet.Null, From: l.id, Time: p}) {
			l.st.NullsFolded++
		}
	}
}

// handle processes one inbound message; it returns false on terminate.
// Value messages count transit at their Send site (batch time), so the
// deadlock-recovery quiescence test cannot pass with unflushed batches.
func (l *clp[V]) handle(m lpnet.Msg[V]) bool {
	switch m.Kind {
	case lpnet.Value:
		l.sh.net.Settle(m.From)
		l.st.MessagesRecv++
		if m.Time < l.lvt {
			l.sh.net.Fail(&supervise.SimError{
				Engine: l.sh.engine, LP: l.id, Phase: "handle", ModeledTime: l.lvt,
				Kind: supervise.KindCausality,
				Cause: fmt.Errorf("causality violation: lp %d received value for t=%d from lp %d after processing t=%d",
					l.id, m.Time, m.From, l.lvt),
			})
			return false
		}
		l.q.Push(uint64(m.Time), kernel.EventT[V]{Gate: m.Gate, Value: m.Value})
	case lpnet.Null:
		l.st.NullsRecv++
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
	net := l.sh.net
	for l.cut < next && l.cut < safe {
		net.Emit(lpnet.Capture(net, l.id, l.cut, l.end, l.q, lpnet.Pending[V]))
		l.cut = net.NextCut(l.cut)
	}
}

// run is the LP goroutine body.
func (l *clp[V]) run(initialEvents []kernel.EventT[V]) {
	detect := l.sh.cfg.Mode == DeadlockRecovery
	demand := l.sh.cfg.Mode == NullDemand
	l.slot.SetPhase(supervise.PhaseRun)
	defer l.slot.SetPhase(supervise.PhaseDone)

	if !l.sh.boot {
		// Time-zero settling step (skipped on restore: the checkpoint's
		// state is already settled).
		begin := l.trsh.Now()
		l.k.Step(0, initialEvents, true, nil, &l.st.LPCounters)
		l.st.Hist(metrics.HistStepEvents).Observe(uint64(len(initialEvents)))
		l.trsh.Span(trace.PhaseEvaluate, begin, 0)
	}
	l.end = 0
	if !detect {
		l.sendPromises(false)
	}
	l.batch.Flush() // initial promises and any settle-step boundary values

	for {
		if l.sh.net.Aborted() {
			return
		}
		// Drain whatever has arrived.
		l.buf = l.sh.net.Inboxes[l.id].TryDrain(l.buf[:0])
		for _, m := range l.buf {
			if !l.handle(m) {
				return
			}
		}
		// Process every safe timestep.
		for {
			t := l.nextLocal()
			if t > l.cut {
				l.takeCuts(t, l.safeTime())
			}
			if t == infTick || t > l.sh.until || t >= l.safeTime() {
				break
			}
			l.evs = l.evs[:0]
			for {
				pt, ok := l.q.PeekTime()
				if !ok || circuit.Tick(pt) != t {
					break
				}
				_, ev, _ := l.q.PopMin()
				l.evs = append(l.evs, ev)
			}
			// The shared counter is always maintained — distributed runs
			// report it in heartbeats — and doubles as the runaway guard.
			if processed := l.sh.events.Add(uint64(len(l.evs))); l.sh.cfg.MaxEvents > 0 && processed > l.sh.cfg.MaxEvents {
				l.sh.net.Abort()
				return
			}
			// Publish progress before the step so a single long evaluation
			// is not mistaken for a hang.
			l.slot.AddEvents(uint64(len(l.evs)))
			begin := l.trsh.Now()
			l.k.Step(t, l.evs, false, nil, &l.st.LPCounters)
			l.st.Hist(metrics.HistStepEvents).Observe(uint64(len(l.evs)))
			l.trsh.Span(trace.PhaseEvaluate, begin, t)
			l.lvt = t
			l.end = t
			l.slot.SetLVT(uint64(t))
		}
		if err := l.q.Err(); err != nil {
			l.sh.net.Fail(&supervise.SimError{
				Engine: l.sh.engine, LP: l.id, Phase: "eventq", ModeledTime: l.lvt,
				Kind: supervise.KindCausality, Cause: err,
			})
			return
		}
		l.sh.cfg.Chaos.Stall(l.id, inject.PhaseEvaluate)
		if !detect {
			// Push promises eagerly, or answer outstanding requests only
			// (demand mode); either way only increases are transmitted.
			l.sendPromises(demand)
		}
		// Done? (Null modes only: in DeadlockRecovery the LP that finds
		// quiescence with nothing left inside the horizon terminates the
		// run, and until then LPs just keep parking.)
		if !detect && l.nextLocal() > l.sh.until && l.safeTime() > l.sh.until {
			// Final promises are already infTick via promise().
			l.sendPromises(false)
			l.batch.Flush()
			return
		}
		if !detect && l.nextLocal() < l.safeTime() && l.nextLocal() <= l.sh.until {
			// More work became processable from the drained messages.
			continue
		}
		// Blocked: wait for news.
		if demand {
			for _, src := range l.in {
				if l.awaiting[src] || l.bound[src] > l.sh.until {
					continue
				}
				l.awaiting[src] = true
				l.batch.Put(src, lpnet.Msg[V]{Kind: lpnet.Request, From: l.id})
			}
		}
		// About to park: everything batched — values, folded promises,
		// promise requests — must be on the wire first.
		l.batch.Flush()
		l.sh.cfg.Chaos.Stall(l.id, inject.PhaseBlock)
		l.st.Blocks++
		l.slot.SetNext(uint64(l.nextLocal()))
		l.slot.SetBound(uint64(l.safeTime()))
		l.slot.SetPhase(supervise.PhaseBlock)
		blockBegin := l.trsh.Now()
		if detect {
			l.park()
		}
		var ok bool
		l.buf, ok = l.sh.net.Inboxes[l.id].WaitDrain(l.buf[:0])
		if detect {
			// Leave the blocked count before touching transit (which
			// happens when the drained messages are handled below).
			l.sh.cfg.Chaos.Stall(l.id, inject.PhaseWake)
			l.sh.quietMu.Lock()
			l.sh.blocked--
			l.sh.quietMu.Unlock()
		}
		l.trsh.Span(trace.PhaseBlock, blockBegin, trace.NoTick)
		l.slot.SetPhase(supervise.PhaseRun)
		if !ok {
			return
		}
		keep := true
		for _, m := range l.buf {
			if !l.handle(m) {
				keep = false
			}
		}
		if !keep {
			return
		}
	}
}

// park enters this LP on the quiescence ledger (DeadlockRecovery mode).
// The LP whose entry makes every LP blocked with nothing in transit has
// found the deadlock, and recovers from it itself: it grants a permit
// advancing the safe time to the global minimum pending event or, when
// nothing remains inside the horizon, terminates the run. Its own copy
// of the broadcast is what its WaitDrain then returns with.
//
// Exact: an LP between WaitDrain returning and its blocked-- holds at
// least one unhandled message (or a poke that changed nothing), which
// transit still counts, so the test cannot pass around it; and every
// permit is in transit until handled, so no round starts before the
// previous one has reached every LP. Live: whoever takes transit to zero
// is awake, and the last awake LP to park sees blocked == n.
func (l *clp[V]) park() {
	sh := l.sh
	sh.quietMu.Lock()
	defer sh.quietMu.Unlock()
	sh.next[l.id] = l.nextLocal()
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
	begin := l.trsh.Now()
	for _, ib := range sh.net.Inboxes {
		ib.Put(grant)
	}
	l.trsh.Span(trace.PhaseGVT, begin, gmin)
}
