// Package lpnet is the logical-process network both asynchronous engines
// run on: the paper's §II model of LPs exchanging timestamped messages,
// with the synchronization rule left to the caller. A Net owns one run's
// message type and its chaos role and wire codec; every LP's mailbox
// (mpsc, chaos-wrapped, or a socket outbox for an LP on another shard),
// kernel, recorder and send batcher; the routing of stimulus and
// checkpoint events; the failure latch; and the launcher. The engines
// keep what differs between protocols — when to block, promise, roll back
// or find GVT — and where they count transit and flush batches, because
// both are part of each protocol's quiescence argument.
package lpnet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/dist/wire"
	"repro/internal/logic"
	"repro/internal/mpsc"
	"repro/internal/partition"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/kernel"
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
	// Boot, when non-nil, seeds every kernel from a checkpoint, and Route
	// routes its events instead of the stimulus.
	Boot  *ckpt.Seed[V]
	Chaos *inject.Hook // when non-nil, wraps every local mailbox
	// Seam, when non-nil, makes this process one shard of a distributed
	// run: remote LPs' mailboxes are socket outboxes, and Run binds the
	// seam's inbound batches to the local ones. Scalar values only.
	Seam *wire.Seam
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
	boot   *ckpt.Seed[V]
	seam   *wire.Seam
	chaos  *inject.Hook
	locals []int
	lps    []lp[V]

	abort atomic.Bool
	mu    sync.Mutex
	err   error
}

// lp is the network's part of one logical process.
type lp[V comparable] struct {
	k     *kernel.LPT[V]
	rec   trace.RecorderT[V]
	batch Batcher[V]
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
	n := &Net[V]{engine: s.Engine, c: c, p: p, boot: s.Boot, seam: s.Seam, chaos: s.Chaos}
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
	n.initBatchers()
	return n, nil
}

// Local reports whether an LP runs in this process; without a seam every
// LP does.
func (n *Net[V]) Local(lp int) bool { return n.seam == nil || n.seam.Local(lp) }

// Locals lists the LPs that run in this process, in order.
func (n *Net[V]) Locals() []int { return n.locals }

// Kernel is LP lp's timestep executor. The engine installs its Schedule
// and Send hooks; Record is already wired to the LP's recorder.
func (n *Net[V]) Kernel(lp int) *kernel.LPT[V] { return n.lps[lp].k }

// Recorder is LP lp's waveform recorder.
func (n *Net[V]) Recorder(lp int) *trace.RecorderT[V] { return &n.lps[lp].rec }

// Batcher is LP lp's outgoing message batcher.
func (n *Net[V]) Batcher(lp int) *Batcher[V] { return &n.lps[lp].batch }

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
	n.Abort()
}

// Abort stops the run and wakes every LP so it can see the flag. It
// releases a chaos-injected hang, so a parked LP cannot outlive the
// abort, and unblocks a distributed GVT loop waiting on a hub that will
// never answer a dead run. An abort with no error recorded is the event
// limit tripping.
func (n *Net[V]) Abort() {
	n.abort.Store(true)
	n.chaos.Release()
	if n.seam != nil {
		n.seam.CancelWait()
	}
	for _, ib := range n.Inboxes {
		ib.Poke()
	}
}

// Aborted reports whether the run has been aborted.
func (n *Net[V]) Aborted() bool { return n.abort.Load() }

// Values reads the final value of every net from the LP that owns it.
func (n *Net[V]) Values() []V {
	vals := make([]V, len(n.c.Gates))
	for g := range vals {
		vals[g] = n.lps[n.p.Assign[g]].k.Value(circuit.GateID(g))
	}
	return vals
}

// Waveform merges every LP's recorded samples.
func (n *Net[V]) Waveform() []trace.SampleT[V] {
	recs := make([]*trace.RecorderT[V], len(n.lps))
	for i := range n.lps {
		recs[i] = &n.lps[i].rec
	}
	return trace.Merge(recs...)
}

// Route hands each stimulus change inside the horizon — or, when the run
// boots from a checkpoint, each checkpoint event — to every local LP in
// its gate's audience: the owner first, then every LP holding a ghost of
// the net, in fanout order. Remote LPs are skipped: each shard holds the
// full schedule and routes to its own. push queues a future event on an
// LP; time-zero events feed the settle step and are returned per LP
// instead. A checkpoint's events all lie after its boundary, so none is
// time zero.
func (n *Net[V]) Route(changes []vectors.ChangeT[V], until circuit.Tick, push func(lp int, t uint64, ev kernel.EventT[V])) (initial [][]kernel.EventT[V]) {
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
		if ch.Time <= until {
			route(uint64(ch.Time), kernel.EventT[V]{Gate: ch.Input, Value: ch.Value})
		}
	}
	return initial
}
