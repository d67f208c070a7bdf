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
	"repro/internal/mpsc"
	"repro/internal/partition"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/kernel"
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

// Config parameterizes a conservative run on either value plane.
type Config struct {
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
	// Checkpoints hold scalar values: RunWide does not boot (core rejects
	// restore on a wide run).
	Boot *ckpt.State
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
}

// ResultT is the outcome of a conservative run over value type V.
type ResultT[V comparable] struct {
	Values []V
	// Waveform converts to trace.Waveform or trace.WideWaveform.
	Waveform []trace.SampleT[V]
	EndTime  circuit.Tick
	Stats    stats.RunStats
}

// Result is the outcome of a scalar run.
type Result = ResultT[logic.Value]

// WideResult is the outcome of a wide (64-lane) run.
type WideResult = ResultT[logic.Word]

// infTick is the "never" timestamp.
const infTick = circuit.Tick(^uint64(0))

type msgKind uint8

const (
	msgValue msgKind = iota
	msgNull          // time carries the promise bound
	msgRequest
	msgPermit // time carries the granted global minimum
	msgTerminate
)

type msg[V comparable] struct {
	kind  msgKind
	from  int
	time  circuit.Tick
	gate  circuit.GateID
	value V
}

// msgMeta projects a message to its chaos-transport role: values and
// nulls are timestamped members of their sender's FIFO stream, promise
// requests ride the stream without time semantics, and the quiescence
// broadcasts (permits, terminate) are control that chaos must not touch.
func msgMeta[V comparable](m msg[V]) inject.Meta {
	switch m.kind {
	case msgValue:
		return inject.Meta{Kind: inject.Value, From: m.from, Time: uint64(m.time)}
	case msgNull:
		return inject.Meta{Kind: inject.Null, From: m.from, Time: uint64(m.time)}
	case msgRequest:
		return inject.Meta{Kind: inject.Aux, From: m.from}
	default:
		return inject.Meta{Kind: inject.Control}
	}
}

// outLink is one cross-LP edge with its lookahead.
type outLink struct {
	dst int
	la  circuit.Tick
}

// shared bundles cross-goroutine state of a run.
type shared[V comparable] struct {
	cfg     Config
	engine  string // metrics/supervise label
	boot    bool
	c       *circuit.Circuit
	until   circuit.Tick
	inboxes []mpsc.Transport[msg[V]]
	// transit counts every message that must be handled before the system
	// can be quiet: value messages from Send to handle, and (detect mode)
	// permits from broadcast to handle.
	transit atomic.Int64
	events  atomic.Uint64
	abort   atomic.Bool
	sink    metrics.Sink

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

	failMu  gosync.Mutex
	failErr error
}

// fail records the first fatal protocol error and aborts the run. A
// conservative LP that receives a straggler cannot continue — the past it
// would have to revisit is already evaluated — so the whole run stops and
// Run surfaces the error instead of panicking in an LP goroutine.
func (sh *shared[V]) fail(err error) {
	sh.failMu.Lock()
	if sh.failErr == nil {
		sh.failErr = err
	}
	sh.failMu.Unlock()
	sh.abortAll()
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
	// pend/pendDst/pendNull batch outgoing messages per destination,
	// delivered with one PutAll per destination at flush points (before any
	// WaitDrain, and at termination). pendNull[dst] is the index of the
	// batched null message for dst, or -1: promises only increase, so a
	// newer promise overwrites the batched one in place — the fold — and
	// only the strongest promise per flush reaches the wire.
	pend     [][]msg[V]
	pendDst  []int
	pendNull []int
	buf      []msg[V]
	evs      []kernel.EventT[V]
	end      circuit.Tick
	// slot is the watchdog scoreboard entry (nil-safe; nil without a
	// watchdog).
	slot *supervise.LPSlot
}

// Run simulates c under the stimulus until the given time (inclusive).
func Run(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, cfg Config) (*Result, error) {
	var err error
	if cfg.System, err = circuit.Scalar.System(cfg.System); err != nil {
		return nil, err
	}
	changes, err := stim.Projected(c, cfg.System)
	if err != nil {
		return nil, err
	}
	boot, err := cfg.Boot.Seed(c, cfg.System)
	if err != nil {
		return nil, err
	}
	return run(circuit.Scalar, "cmb", c, changes, until, cfg, boot, wireEncScalar, wireDecScalar)
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
func RunWide(c *circuit.Circuit, stim *vectors.WideStimulus, until circuit.Tick, cfg Config) (*WideResult, error) {
	var err error
	if cfg.System, err = circuit.Wide.System(cfg.System); err != nil {
		return nil, err
	}
	if err := stim.Validate(c); err != nil {
		return nil, err
	}
	// A lane-union dirty set saturates, so a wide run always sweeps; the
	// wire format carries scalar values, so every LP runs locally.
	cfg.Sweep, cfg.Dist = true, nil
	return run(circuit.Wide, "cmb-wide", c, stim.Changes, until, cfg, nil, nil, nil)
}

// run is the conservative engine over value type V: it derives the LP
// graph, routes the stimulus (or boot) events, runs the LP goroutines to
// completion, and assembles the result. changes is a validated schedule
// already in the run's value domain, engine labels the metrics registry
// and errors, boot, when non-nil, replaces the stimulus and the time-zero
// settling step, and wireEnc/wireDec translate messages for cfg.Dist.
func run[V comparable](
	pl *circuit.Plane[V],
	engine string,
	c *circuit.Circuit,
	changes []vectors.ChangeT[V],
	until circuit.Tick,
	cfg Config,
	boot *ckpt.Seed[V],
	wireEnc func(msg[V]) wire.Msg,
	wireDec func(wire.Msg) msg[V],
) (*ResultT[V], error) {
	if cfg.Partition == nil {
		return nil, fmt.Errorf("cmb: Config.Partition is required")
	}
	if err := cfg.Partition.Validate(c); err != nil {
		return nil, err
	}
	if err := c.CheckEventDriven(); err != nil {
		return nil, err
	}
	if err := checkDist(cfg); err != nil {
		return nil, err
	}
	sink := cfg.Metrics
	if sink == nil {
		sink = metrics.NewRegistry(engine + "-" + cfg.Mode.String())
	}
	start := time.Now()
	watched := cfg.Watch
	if watched == nil {
		watched = c.Outputs
	}

	p := cfg.Partition
	n := p.Blocks
	owner := p.Assign
	dist := cfg.Dist
	// local reports LP residency; without a seam every LP is local.
	local := func(lp int) bool { return dist == nil || dist.Local(lp) }

	sh := &shared[V]{cfg: cfg, engine: engine, boot: boot != nil, c: c, until: until, sink: sink}
	sh.next = make([]circuit.Tick, n)
	// Value messages are the only kind the transit ledger counts that can
	// cross the seam (permits never do: detect mode does not distribute).
	shim := wire.Shim[msg[V]]{
		Seam: dist, Enc: wireEnc, Dec: wireDec, Transit: &sh.transit,
		Counted: func(m msg[V]) bool { return m.kind == msgValue },
	}
	sh.inboxes = make([]mpsc.Transport[msg[V]], n)
	for i := range sh.inboxes {
		if !local(i) {
			// A remote LP's mailbox is a socket outbox: sends cross the
			// seam as encoded frames, and nothing local ever drains it.
			sh.inboxes[i] = shim.Outbox(i)
			continue
		}
		var tr mpsc.Transport[msg[V]] = mpsc.NewCap[msg[V]](64)
		if cfg.Chaos != nil {
			tr = inject.Wrap(cfg.Chaos, i, tr, msgMeta[V])
		}
		sh.inboxes[i] = tr
	}
	if dist != nil {
		defer shim.Bind(sh.inboxes, engine, sh.fail, func() (uint64, bool) { return sh.events.Load(), false })()
	}
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

	blockGates := p.BlockGates()
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
	// replaces 10+ allocations per LP. Growable fields (out, in, pendDst,
	// evs, buf) use three-index slices so an append past the reserved
	// capacity reallocates privately instead of clobbering a neighbour.
	totOut, totIn := 0, 0
	for i := 0; i < n; i++ {
		totOut += outDeg[i]
		totIn += inDeg[i]
	}
	var (
		lpSlab      = make([]clp[V], n)
		tickSlab    = make([]circuit.Tick, 2*n*n) // bound + last
		boolSlab    = make([]bool, 2*n*n)         // reqd + awaiting
		pendSlab    = make([][]msg[V], n*n)       // pend headers
		nullSlab    = make([]int, n*n)            // pendNull
		pendDstSlab = make([]int, n*n)            // pendDst dirty lists
		outSlab     = make([]outLink, totOut)
		inSlab      = make([]int, totIn)
		evsSlab     = make([]kernel.EventT[V], n*64)
		bufSlab     = make([]msg[V], n*64)
	)
	for d := range nullSlab {
		nullSlab[d] = -1
	}
	lps := make([]*clp[V], n)
	recSlab := make([]trace.RecorderT[V], n)
	recs := make([]*trace.RecorderT[V], n)
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
		l.pend = pendSlab[i*n : (i+1)*n : (i+1)*n]
		l.pendNull = nullSlab[i*n : (i+1)*n : (i+1)*n]
		l.pendDst = pendDstSlab[i*n : i*n : (i+1)*n]
		l.out = outSlab[outOff : outOff : outOff+outDeg[i]]
		l.in = inSlab[inOff : inOff : inOff+inDeg[i]]
		l.evs = evsSlab[i*64 : i*64 : (i+1)*64]
		l.buf = bufSlab[i*64 : i*64 : (i+1)*64]
		l.safe = 1
		l.st = sink.LP(i)
		l.trsh = cfg.Tracer.Shard(fmt.Sprintf("lp %d", i))
		outOff += outDeg[i]
		inOff += inDeg[i]
		l.k = kernel.NewOn(pl, c, owner, i, cfg.System, watched, blockGates[i])
		if cfg.Sweep {
			l.k.EnableSweep(kernel.SweepThreshold(len(blockGates[i])))
		}
		l.k.Schedule = func(t circuit.Tick, g circuit.GateID, v V) {
			l.q.Push(uint64(t), kernel.EventT[V]{Gate: g, Value: v})
		}
		l.k.Send = func(dst int, t circuit.Tick, g circuit.GateID, v V) {
			sh.transit.Add(1)
			l.buffer(dst, msg[V]{kind: msgValue, from: l.id, time: t, gate: g, value: v})
		}
		recs[i] = &recSlab[i]
		l.k.Record = recs[i].Record
		if boot != nil {
			l.k.SeedState(boot.Vals, boot.PrevClk, boot.Projected)
		}
		lps[i] = l
	}
	for k2, d := range la {
		lps[k2.src].out = append(lps[k2.src].out, outLink{k2.dst, d + laBias})
		lps[k2.src].last[k2.dst] = 0
		lps[k2.dst].in = append(lps[k2.dst].in, k2.src)
		lps[k2.dst].bound[k2.src] = 1
	}

	// Stimulus (or, on restore, checkpoint-event) routing: every event goes
	// to its gate's owner and to every LP holding a ghost of that net. Each
	// shard routes only to its own LPs — every worker holds the full
	// schedule, so remote destinations are someone else's copy of this same
	// loop. Time-zero changes feed the settle step; a checkpoint's events
	// are all strictly after its boundary, so none lands there.
	initial := make([][]kernel.EventT[V], n)
	aud := p.Audience(c)
	route := func(t uint64, ev kernel.EventT[V]) {
		for _, dst := range aud.Of(ev.Gate) {
			if !local(dst) {
				continue
			}
			if t == 0 {
				initial[dst] = append(initial[dst], ev)
			} else {
				lps[dst].q.Push(t, ev)
			}
		}
	}
	if boot == nil {
		for _, ch := range changes {
			if ch.Time <= until {
				route(uint64(ch.Time), kernel.EventT[V]{Gate: ch.Input, Value: ch.Value})
			}
		}
	} else {
		for _, ev := range boot.Events {
			route(ev.Time, kernel.EventT[V]{Gate: ev.Gate, Value: ev.Value})
		}
	}

	// Progress watchdog: a scoreboard the LPs publish to plus a monitor
	// goroutine that fails the run with a hang report when nothing moves.
	var board *supervise.Board
	if cfg.HangTimeout > 0 {
		board = supervise.NewBoard(n)
		for i, l := range lps {
			l.slot = board.LP(i)
		}
	}
	wcfg := supervise.WatchConfig{
		Engine: engine, Timeout: cfg.HangTimeout, Board: board,
		QueueDepth: func(i int) int { return sh.inboxes[i].Len() },
		OnHang:     sh.fail,
	}
	if dist != nil {
		wcfg.Transport = dist.TransportState
	}
	wd := supervise.Watch(wcfg)
	defer wd.Stop()

	var wg gosync.WaitGroup
	for _, l := range lps {
		if !local(l.id) {
			// Remote LPs run on their own shard; mark the slot done so a
			// hang report shows them as not-ours rather than stuck at init.
			l.slot.SetPhase(supervise.PhaseDone)
			continue
		}
		wg.Add(1)
		go func(l *clp[V]) {
			defer wg.Done()
			// Panic isolation: one poisoned LP fails the run cleanly (the
			// abort wakes and drains every sibling) instead of crashing the
			// process.
			defer func() {
				if r := recover(); r != nil {
					l.slot.SetPhase(supervise.PhaseDone)
					l.sh.fail(supervise.FromPanic(engine, l.id, "run", l.lvt, r))
				}
			}()
			metrics.Do(sink, engine, l.id, "run", func() {
				l.run(initial[l.id])
			})
		}(l)
	}
	wg.Wait()
	wd.Stop()

	if sh.abort.Load() {
		sh.failMu.Lock()
		ferr := sh.failErr
		sh.failMu.Unlock()
		if ferr != nil {
			return nil, ferr
		}
		return nil, &supervise.SimError{
			Engine: engine, LP: -1, Phase: "run", Kind: supervise.KindEventLimit,
			Cause: fmt.Errorf("event limit %d exceeded", cfg.MaxEvents),
		}
	}

	res := &ResultT[V]{Values: make([]V, len(c.Gates))}
	for g := range c.Gates {
		res.Values[g] = lps[owner[g]].k.Value(circuit.GateID(g))
	}
	for _, l := range lps {
		if l.end > res.EndTime {
			res.EndTime = l.end
		}
	}
	res.Waveform = trace.Merge(recs...)
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
// promise still buffered from an earlier call is superseded in place (the
// fold): it counts as sent — the protocol work happened — but never reaches
// the wire. Folding is safe because a receiver applies a drained batch in
// full before processing any event, so a value message that precedes the
// strengthened promise inside the batch is enqueued before the new bound is
// acted on, exactly as if both had arrived separately.
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
		if i := l.pendNull[link.dst]; i >= 0 {
			l.pend[link.dst][i].time = p
			l.st.NullsFolded++
			continue
		}
		l.pendNull[link.dst] = len(l.pend[link.dst])
		l.buffer(link.dst, msg[V]{kind: msgNull, from: l.id, time: p})
	}
}

// buffer queues one outgoing message for dst until the next flushSends.
// Value messages count transit at their Send site (buffer time), so the
// deadlock-recovery quiescence test cannot pass with unflushed batches.
func (l *clp[V]) buffer(dst int, m msg[V]) {
	if len(l.pend[dst]) == 0 {
		if cap(l.pend[dst]) == 0 {
			l.pend[dst] = make([]msg[V], 0, 96)
		}
		l.pendDst = append(l.pendDst, dst)
	}
	l.pend[dst] = append(l.pend[dst], m)
}

// flushSends delivers every buffered batch, one PutAll per destination,
// preserving per-destination FIFO order. Every path into WaitDrain (and
// termination) flushes first, so no message outlives its sender's
// wakefulness inside a local batch.
func (l *clp[V]) flushSends() {
	for _, dst := range l.pendDst {
		l.sh.inboxes[dst].PutAll(l.pend[dst])
		l.pend[dst] = l.pend[dst][:0]
		l.pendNull[dst] = -1
	}
	l.pendDst = l.pendDst[:0]
}

// handle processes one inbound message; it returns false on terminate.
func (l *clp[V]) handle(m msg[V]) bool {
	switch m.kind {
	case msgValue:
		// A remote sender's message never entered the local transit
		// ledger (it left its shard's at flush and crossed as seam
		// wire-recv), so only locally originated values decrement.
		if d := l.sh.cfg.Dist; d == nil || d.Local(m.from) {
			l.sh.transit.Add(-1)
		}
		l.st.MessagesRecv++
		if m.time < l.lvt {
			l.sh.fail(&supervise.SimError{
				Engine: l.sh.engine, LP: l.id, Phase: "handle", ModeledTime: l.lvt,
				Kind: supervise.KindCausality,
				Cause: fmt.Errorf("causality violation: lp %d received value for t=%d from lp %d after processing t=%d",
					l.id, m.time, m.from, l.lvt),
			})
			return false
		}
		l.q.Push(uint64(m.time), kernel.EventT[V]{Gate: m.gate, Value: m.value})
	case msgNull:
		l.st.NullsRecv++
		l.awaiting[m.from] = false
		if m.time > l.bound[m.from] {
			l.bound[m.from] = m.time
		}
	case msgRequest:
		l.reqd[m.from] = true
	case msgPermit:
		l.sh.transit.Add(-1)
		if s := m.time + 1; s > l.safe {
			l.safe = s
		}
	case msgTerminate:
		return false
	}
	return true
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
	l.flushSends() // initial promises and any settle-step boundary values

	for {
		if l.sh.abort.Load() {
			return
		}
		// Drain whatever has arrived.
		l.buf = l.sh.inboxes[l.id].TryDrain(l.buf[:0])
		for _, m := range l.buf {
			if !l.handle(m) {
				return
			}
		}
		// Process every safe timestep.
		for {
			t := l.nextLocal()
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
				l.sh.abortAll()
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
			l.sh.fail(&supervise.SimError{
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
			l.flushSends()
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
				l.buffer(src, msg[V]{kind: msgRequest, from: l.id})
			}
		}
		// About to park: everything buffered — values, folded promises,
		// promise requests — must be on the wire first.
		l.flushSends()
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
		l.buf, ok = l.sh.inboxes[l.id].WaitDrain(l.buf[:0])
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

// abortAll flags a global abort and wakes every LP. Releasing the chaos
// hook's hang fault here guarantees an injected permanent stall cannot
// outlive the abort: the watchdog fires, fail() lands here, and the
// parked LP goroutine is unblocked so wg.Wait always returns.
func (sh *shared[V]) abortAll() {
	sh.abort.Store(true)
	sh.cfg.Chaos.Release()
	for _, ib := range sh.inboxes {
		ib.Poke()
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
	if sh.blocked < len(sh.next) || sh.transit.Load() != 0 {
		return
	}
	gmin := infTick
	for _, t := range sh.next {
		if t < gmin {
			gmin = t
		}
	}
	grant := msg[V]{kind: msgTerminate}
	if gmin <= sh.until {
		grant = msg[V]{kind: msgPermit, time: gmin}
		sh.rounds++
		sh.transit.Add(int64(len(sh.inboxes)))
	}
	begin := l.trsh.Now()
	for _, ib := range sh.inboxes {
		ib.Put(grant)
	}
	l.trsh.Span(trace.PhaseGVT, begin, gmin)
}
