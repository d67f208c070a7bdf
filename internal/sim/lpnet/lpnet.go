// Package lpnet is the logical-process network both asynchronous engines
// run on: the paper's §II model of LPs exchanging timestamped messages,
// with the synchronization rule left to the caller. A Net owns one run's
// message type and its chaos role and wire codec; every LP's mailbox
// (mpsc, chaos-wrapped, or a socket outbox for an LP on another shard),
// kernel, recorder and send batcher; the routing of stimulus and
// checkpoint events; the failure latch; the one LP loop (drive) and the
// launcher. An engine supplies a Rule per LP — when to step, block,
// promise, roll back or find GVT — and counts transit on its own send
// paths, because that is part of each protocol's quiescence argument.
package lpnet

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/dist/wire"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/mpsc"
	"repro/internal/partition"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/kernel"
	"repro/internal/sim/supervise"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// Kind classifies a message. One enum covers both protocols; each engine
// sends and handles its own subset.
type Kind uint8

// The message kinds.
const (
	Value     Kind = iota // a net value change
	Null                  // a cmb promise; Time is the bound
	Request               // a cmb demand-mode promise request
	Permit                // a cmb deadlock-recovery grant; Time is the global minimum
	Anti                  // Time Warp: cancels the Value with the same ID
	GVTRound              // asks an LP for its GVT contribution
	GVTDone               // publishes a GVT; Time carries it
	Terminate             // ends the receiving LP's run
)

// Msg is one message between LPs. It mirrors wire.Msg field for field:
// From is the sending LP, ID the Time Warp identity anti-messages
// annihilate by (zero under cmb), Time the timestamp or bound, and Gate
// and Value the payload. The small fields lead so that a scalar message
// packs into 32 bytes.
type Msg[V comparable] struct {
	Kind  Kind
	Value V
	Gate  circuit.GateID
	From  int
	ID    uint64
	Time  circuit.Tick
}

// Meta projects a message to its chaos-transport role. Values and
// anti-messages are timestamped members of their sender's FIFO stream
// (annihilation and promise soundness both depend on that order, so chaos
// preserves it); nulls are promises whose bounds the transport checks;
// promise requests ride the stream without time semantics; permits, GVT
// rounds and termination are control that chaos must not touch.
func Meta[V comparable](m Msg[V]) inject.Meta {
	switch m.Kind {
	case Value, Anti:
		return inject.Meta{Kind: inject.Value, From: m.From, Time: uint64(m.Time)}
	case Null:
		return inject.Meta{Kind: inject.Null, From: m.From, Time: uint64(m.Time)}
	case Request:
		return inject.Meta{Kind: inject.Aux, From: m.From}
	default:
		return inject.Meta{Kind: inject.Control}
	}
}

// Encode projects a scalar message onto the wire format.
func Encode(m Msg[logic.Value]) wire.Msg {
	return wire.Msg{
		Kind:  uint8(m.Kind),
		From:  int32(m.From),
		ID:    m.ID,
		Time:  uint64(m.Time),
		Gate:  int32(m.Gate),
		Value: uint8(m.Value),
	}
}

// Decode is the inverse projection.
func Decode(w wire.Msg) Msg[logic.Value] {
	return Msg[logic.Value]{
		Kind:  Kind(w.Kind),
		From:  int(w.From),
		ID:    w.ID,
		Time:  circuit.Tick(w.Time),
		Gate:  circuit.GateID(w.Gate),
		Value: logic.Value(w.Value),
	}
}

// Spec describes the network of one run.
type Spec[V comparable] struct {
	Engine    string // labels metrics, errors and hang reports
	Plane     *circuit.Plane[V]
	Circuit   *circuit.Circuit
	Partition *partition.Partition
	System    logic.System
	Watch     []circuit.GateID // nets to record; nil records primary outputs
	Sweep     bool             // arms every kernel's oblivious block sweep
	Until     circuit.Tick     // the horizon: last simulated time, inclusive
	// Boot, when non-nil, seeds every kernel from a checkpoint, and Route
	// routes its events instead of the stimulus.
	Boot  *ckpt.Cut[V]
	Chaos *inject.Hook // when non-nil, wraps every local mailbox
	// Cuts, when non-nil, has the engine capture its own checkpoints; see
	// ckpt.Cuts.
	Cuts *ckpt.Cuts[V]
	// Seam, when non-nil, makes this process one shard of a distributed
	// run: remote LPs' mailboxes are socket outboxes, and Run binds the
	// seam's inbound batches to the local ones. Scalar values only.
	Seam *wire.Seam
	// Metrics receives the per-LP counters; nil uses a private registry
	// named Label, or Engine when Label is empty.
	Metrics metrics.Sink
	Label   string
	// Tracer, when non-nil, records every LP's spans.
	Tracer *trace.Tracer
	// HangTimeout, when positive, arms the progress watchdog over a
	// scoreboard the LPs publish to; Scoreboard keeps the scoreboard
	// without a watchdog.
	HangTimeout time.Duration
	Scoreboard  bool
	// MaxEvents ends a runaway run with an event-limit error once the LPs
	// have executed more events than this; 0 means no limit.
	MaxEvents uint64
}

// Net is the LP network of one run.
type Net[V comparable] struct {
	// Inboxes holds every LP's mailbox, indexed by LP.
	Inboxes []mpsc.Transport[Msg[V]]
	// Transit counts messages that must still be handled before the run
	// can be quiet. The engines count on their send paths and Settle on
	// their handlers; a socket outbox moves values and anti-messages onto
	// the seam's wire ledger.
	Transit atomic.Int64

	engine string
	c      *circuit.Circuit
	p      *partition.Partition
	until  circuit.Tick
	boot   *ckpt.Cut[V]
	seam   *wire.Seam
	chaos  *inject.Hook
	locals []int
	lps    []lp[V]
	// cuts configures native checkpoints (off when nil or Every is 0).
	cuts *ckpt.Cuts[V]
	// changes is the scheduled stimulus Open hands to Run's router.
	changes []vectors.ChangeT[V]

	sink      metrics.Sink
	tracer    *trace.Tracer
	board     *supervise.Board
	hang      time.Duration
	maxEvents uint64
	// events counts the events every local LP has executed.
	events atomic.Uint64
	start  time.Time

	aborted atomic.Bool
	mu      sync.Mutex
	err     error
}

// lp is the network's part of one logical process.
type lp[V comparable] struct {
	k     *kernel.LPT[V]
	rec   trace.RecorderT[V]
	batch Batcher[V]
	// prefix is the boot waveform restricted to the LP's gates, the front
	// of every cut it captures.
	prefix []trace.SampleT[V]
	drv    runner[V]
}

// Open is the preamble of a run: it schedules the stimulus (resolving
// s.System), seeds the boot cut from the snapshot when there is one, and
// builds the network.
func Open[V comparable](s Spec[V], stim vectors.Source[V], snap *ckpt.StateT[V]) (*Net[V], error) {
	changes, err := vectors.Schedule(s.Plane, s.Circuit, stim, &s.System)
	if err != nil {
		return nil, err
	}
	if s.Boot, err = snap.Seed(s.Circuit, s.System); err != nil {
		return nil, err
	}
	n, err := New(s)
	if err != nil {
		return nil, err
	}
	n.changes = changes
	return n, nil
}

// New validates the run's partition and builds its network: mailboxes,
// kernels, recorders and batchers for every LP.
func New[V comparable](s Spec[V]) (*Net[V], error) {
	c, p := s.Circuit, s.Partition
	if p == nil {
		return nil, fmt.Errorf("%s: Config.Partition is required", s.Engine)
	}
	if err := p.Validate(c); err != nil {
		return nil, err
	}
	if err := c.CheckEventDriven(); err != nil {
		return nil, err
	}
	n := &Net[V]{
		engine: s.Engine, c: c, p: p, until: s.Until, boot: s.Boot, seam: s.Seam, chaos: s.Chaos, cuts: s.Cuts,
		sink: s.Metrics, tracer: s.Tracer, hang: s.HangTimeout, maxEvents: s.MaxEvents,
	}
	if n.sink == nil {
		n.sink = metrics.NewRegistry(cmp.Or(s.Label, s.Engine))
	}
	if s.HangTimeout > 0 || s.Scoreboard {
		n.board = supervise.NewBoard(p.Blocks)
	}
	lps := p.Blocks
	n.Inboxes = make([]mpsc.Transport[Msg[V]], lps)
	n.locals = make([]int, 0, lps)
	for i := range n.Inboxes {
		if !n.Local(i) {
			continue
		}
		n.locals = append(n.locals, i)
		var mb mpsc.Transport[Msg[V]] = mpsc.NewCap[Msg[V]](64)
		if s.Chaos != nil {
			mb = inject.Wrap(s.Chaos, i, mb, Meta[V])
		}
		n.Inboxes[i] = mb
	}
	if s.Seam != nil {
		// Remote LPs' mailboxes become socket outboxes.
		if err := n.openSeam(); err != nil {
			return nil, err
		}
	}

	watched := s.Watch
	if watched == nil {
		watched = c.Outputs
	}
	blockGates := p.BlockGates()
	n.lps = make([]lp[V], lps)
	for i := range n.lps {
		k := kernel.NewOn(s.Plane, c, p.Assign, i, s.System, watched, blockGates[i])
		if s.Sweep {
			k.EnableSweep(kernel.SweepThreshold(len(blockGates[i])))
		}
		if s.Boot != nil {
			k.SeedState(s.Boot.Vals, s.Boot.PrevClk, s.Boot.Projected)
		}
		k.Record = n.lps[i].rec.Record
		n.lps[i].k = k
	}
	if n.cuts != nil && s.Boot != nil {
		for _, sm := range s.Boot.Waveform {
			if o := p.Assign[sm.Gate]; n.Local(o) {
				n.lps[o].prefix = append(n.lps[o].prefix, sm)
			}
		}
	}
	n.initBatchers()
	n.start = time.Now()
	return n, nil
}

// Local reports whether an LP runs in this process; without a seam every
// LP does.
func (n *Net[V]) Local(lp int) bool { return n.seam == nil || n.seam.Local(lp) }

// Locals lists the LPs that run in this process, in order.
func (n *Net[V]) Locals() []int { return n.locals }

// Recorder is LP lp's waveform recorder.
func (n *Net[V]) Recorder(lp int) *trace.RecorderT[V] { return &n.lps[lp].rec }

// Batcher is LP lp's outgoing message batcher.
func (n *Net[V]) Batcher(lp int) *Batcher[V] { return &n.lps[lp].batch }

// Sink is the run's metrics sink.
func (n *Net[V]) Sink() metrics.Sink { return n.sink }

// Board is the run's scoreboard, nil without one.
func (n *Net[V]) Board() *supervise.Board { return n.board }

// Events is the number of events the local LPs have executed so far.
func (n *Net[V]) Events() uint64 { return n.events.Load() }

// Settle takes a handled value or anti-message off the transit ledger. A
// remote sender's message never entered this process's ledger — it left
// its own shard's at flush and crossed as seam wire-recv — so only locally
// originated messages decrement.
func (n *Net[V]) Settle(from int) {
	if n.Local(from) {
		n.Transit.Add(-1)
	}
}

// Fail is the run's failure latch: it records err if no error came
// first, and aborts the run. Idempotent and safe from any goroutine.
func (n *Net[V]) Fail(err error) {
	n.mu.Lock()
	if n.err == nil {
		n.err = err
	}
	n.mu.Unlock()
	n.abort()
}

// abort stops the run and wakes every LP so it can see the flag. It
// releases a chaos-injected hang, so a parked LP cannot outlive the
// abort, and unblocks a distributed GVT loop waiting on a hub that will
// never answer a dead run.
func (n *Net[V]) abort() {
	n.aborted.Store(true)
	n.chaos.Release()
	if n.seam != nil {
		n.seam.CancelWait()
	}
	for _, ib := range n.Inboxes {
		ib.Poke()
	}
}

// Aborted reports whether the run has been aborted.
func (n *Net[V]) Aborted() bool { return n.aborted.Load() }

// Route hands each stimulus change inside the horizon — or, when the run
// boots from a checkpoint, each checkpoint event — to every local LP in
// its gate's audience: the owner first, then every LP holding a ghost of
// the net, in fanout order. Remote LPs are skipped: each shard holds the
// full schedule and routes to its own. push queues a future event on an
// LP; time-zero events feed the settle step and are returned per LP
// instead. A checkpoint's events all lie after its boundary, so none is
// time zero. Like the sequential engine, the run routes the changes past
// the horizon too — it never reaches them, but every cut holds them as
// pending, so a cut does not depend on the horizon of the run that took
// it — and the owner of an input notes its last change as the input's
// projection.
func (n *Net[V]) Route(changes []vectors.ChangeT[V], push func(lp int, t uint64, ev kernel.EventT[V])) (initial [][]kernel.EventT[V]) {
	initial = make([][]kernel.EventT[V], len(n.Inboxes))
	aud := n.p.Audience(n.c)
	route := func(t uint64, ev kernel.EventT[V]) {
		for _, dst := range aud.Of(ev.Gate) {
			if !n.Local(dst) {
				continue
			}
			if t == 0 {
				initial[dst] = append(initial[dst], ev)
			} else {
				push(dst, t, ev)
			}
		}
	}
	if n.boot != nil {
		for _, ev := range n.boot.Events {
			route(ev.Time, kernel.EventT[V]{Gate: ev.Gate, Value: ev.Value})
		}
		return initial
	}
	for _, ch := range changes {
		if o := n.p.Assign[ch.Input]; n.Local(o) {
			n.lps[o].k.Project(ch.Input, ch.Value)
		}
		route(uint64(ch.Time), kernel.EventT[V]{Gate: ch.Input, Value: ch.Value})
	}
	return initial
}
