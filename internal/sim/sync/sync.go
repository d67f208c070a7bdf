// Package sync implements the synchronous (global-clock) parallel engine.
//
// All logical processes share one value of simulated time. Each global
// timestep runs in two barrier-separated phases mirroring the two-phase
// semantics of the sequential reference: phase A applies every net change
// scheduled for the current time and routes dirty-gate notifications to the
// owners of the fanout gates (the cross-LP notifications are the
// "messages" of the paper's model — here carried through shared memory,
// but counted and priced as messages by the cost model); phase B evaluates
// each affected gate exactly once against the settled values and schedules
// the outputs into the owner's local pending set. The coordinator then
// reduces the per-LP minima to find the next global time.
//
// The engine records Σ_steps max_LP(step work) as the modeled critical
// path, and two barriers per step, which is exactly where the paper says
// the synchronous algorithm's scaling limit lives: barrier time grows with
// the processor population while per-step useful work per LP shrinks.
package sync

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/eventq"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/phase"
	"repro/internal/sim/supervise"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// ConfigT parameterizes a synchronous run on the value plane of V.
type ConfigT[V comparable] struct {
	// Partition assigns gates to LPs; required.
	Partition *partition.Partition
	// System is the logic value system; zero selects the plane's default.
	System logic.System
	// Queue selects each LP's pending-event set implementation.
	Queue eventq.Impl
	// Watch lists nets to record; nil watches primary outputs.
	Watch []circuit.GateID
	// Cost prices per-step work for the modeled critical path; zero value
	// uses the default model.
	Cost stats.CostModel
	// MaxEvents aborts runaway simulations; 0 means no limit.
	MaxEvents uint64
	// Metrics receives per-LP counters and barrier globals; nil uses a
	// private registry.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records per-LP apply/evaluate spans and
	// coordinator barrier spans.
	Tracer *trace.Tracer
	// Rebalance enables dynamic load balancing, the Section VI proposal
	// "dynamic load balancing is being considered to react to variations
	// in computational workload": between global steps, gates migrate from
	// the most-loaded LP (by evaluations in the last window) to the least
	// loaded. Migration is cheap in the shared-memory synchronous engine —
	// only the ownership map changes — but each moved gate is priced as a
	// state-transfer message on both sides.
	Rebalance RebalanceConfig
	// Boot, when non-nil, resumes from a checkpoint instead of time zero:
	// the shared state planes are seeded from the snapshot, pending events
	// are reloaded from it, the stimulus is ignored (the checkpoint queue
	// already holds every future stimulus change), and the time-zero
	// settling step is skipped. The returned waveform covers only the
	// resumed suffix.
	Boot *ckpt.StateT[V]
	// Cuts, when non-nil, has the coordinator cut the whole plane at each
	// checkpoint boundary b, between the last global step at or before b
	// and the first after it.
	Cuts *ckpt.Cuts[V]
}

// RebalanceConfig parameterizes dynamic load balancing.
type RebalanceConfig struct {
	// Interval is the number of global steps between rebalancing
	// episodes; 0 disables dynamic balancing.
	Interval uint64
}

// ResultT is the outcome of a synchronous run over value type V.
type ResultT[V comparable] struct {
	Values []V
	// Waveform converts to trace.Waveform or trace.WideWaveform.
	Waveform []trace.SampleT[V]
	EndTime  circuit.Tick
	Stats    stats.RunStats
	// Migrations counts gates moved by dynamic load balancing.
	Migrations uint64
}

// The scalar and wide (64-lane) instances of ConfigT and ResultT.
type (
	Config     = ConfigT[logic.Value]
	WideConfig = ConfigT[logic.Word]
	Result     = ResultT[logic.Value]
	WideResult = ResultT[logic.Word]
)

// event is a scheduled net change local to one LP.
type event[V comparable] struct {
	gate  circuit.GateID
	value V
}

// lp is one logical process worker.
type lp[V comparable] struct {
	id    int
	gates []circuit.GateID
	q     eventq.Queue[event[V]]
	dirty []circuit.GateID
	stamp []uint64
	rec   trace.RecorderT[V]
	st    *metrics.LPBlock
	sh    *trace.Shard
	// outbox[dst] accumulates dirty-gate notifications for LP dst during
	// phase A; dst drains it in phase B. Only the owner writes, only dst
	// reads, and the phases are barrier-separated.
	outbox [][]circuit.GateID
	// phaseWork accumulates this phase's work in model nanoseconds.
	phaseWork float64
	// applied counts this phase's applied events for the MaxEvents check.
	applied uint64
}

// Run simulates c under the stimulus until the given time (inclusive).
func Run(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, cfg Config) (*Result, error) {
	return run(circuit.Scalar, "sync", c, stim, until, cfg)
}

// RunWide is the synchronous engine on 64 packed lanes: the identical
// two-phase barrier protocol, with every net change carrying a whole word
// and every evaluation processing 64 vectors. Events fire when any lane
// changes, so per-step work is the union of the lanes' scalar work — one
// barrier pair now advances 64 vectors instead of one.
func RunWide(c *circuit.Circuit, stim *vectors.WideStimulus, until circuit.Tick, cfg WideConfig) (*WideResult, error) {
	return run(circuit.Wide, "sync-wide", c, stim, until, cfg)
}

// run is the synchronous engine over value type V. engine labels the
// metrics registry and errors, and cfg.Boot, when non-nil, replaces the
// stimulus and the time-zero settling step.
func run[V comparable](pl *circuit.Plane[V], engine string, c *circuit.Circuit, stim vectors.Source[V],
	until circuit.Tick, cfg ConfigT[V]) (*ResultT[V], error) {
	changes, err := vectors.Schedule(pl, c, stim, &cfg.System)
	if err != nil {
		return nil, err
	}
	if cfg.Partition == nil {
		return nil, fmt.Errorf("sync: Config.Partition is required")
	}
	if err := cfg.Partition.Validate(c); err != nil {
		return nil, err
	}
	if err := c.CheckEventDriven(); err != nil {
		return nil, err
	}
	boot, err := cfg.Boot.Seed(c, cfg.System)
	if err != nil {
		return nil, err
	}
	if cfg.Cost == (stats.CostModel{}) {
		cfg.Cost = stats.DefaultCostModel()
	}
	sink := cfg.Metrics
	if sink == nil {
		sink = metrics.NewRegistry(engine)
	}
	start := time.Now()

	p := cfg.Partition
	numLPs := p.Blocks
	owner := p.Assign

	val, prevClk := pl.InitState(c, cfg.System)
	projected := make([]V, len(val))
	copy(projected, val)
	if boot != nil {
		copy(val, boot.Vals)
		copy(prevClk, boot.PrevClk)
		copy(projected, boot.Projected)
	}

	watched := cfg.Watch
	if watched == nil {
		watched = c.Outputs
	}
	isWatched := make([]bool, len(c.Kinds))
	for _, g := range watched {
		isWatched[g] = true
	}

	// Dynamic balancing mutates a private copy of the ownership map and
	// tracks per-gate evaluation counts within the current window.
	rebalancing := cfg.Rebalance.Interval > 0
	if rebalancing {
		owner = append([]int(nil), owner...)
	}
	var windowEvals []uint32
	if rebalancing {
		windowEvals = make([]uint32, len(c.Kinds))
	}
	var migrations uint64

	lps := make([]*lp[V], numLPs)
	blockGates := p.BlockGates()
	for i := range lps {
		lps[i] = &lp[V]{
			id:     i,
			gates:  blockGates[i],
			q:      eventq.New[event[V]](cfg.Queue),
			stamp:  make([]uint64, len(c.Kinds)),
			outbox: make([][]circuit.GateID, numLPs),
			st:     sink.LP(i),
			sh:     cfg.Tracer.Shard(fmt.Sprintf("lp %d", i)),
		}
	}
	globals := sink.Globals()
	coord := cfg.Tracer.Shard("coordinator")
	if boot == nil {
		// As in the sequential engine, changes past the horizon are queued
		// too, pending in every cut.
		for _, ch := range changes {
			lps[owner[ch.Input]].q.Push(uint64(ch.Time), event[V]{ch.Input, ch.Value})
			projected[ch.Input] = ch.Value
		}
	} else {
		// Checkpoint events go to the target's owner only: the engine
		// shares one value plane, so there are no ghost copies to feed.
		for _, ev := range boot.Events {
			lps[owner[ev.Gate]].q.Push(ev.Time, event[V]{ev.Gate, ev.Value})
		}
	}

	var epoch, totalEvents uint64
	res := &ResultT[V]{}

	// phaseA applies this LP's events at time t and routes notifications.
	phaseA := func(l *lp[V], t circuit.Tick) {
		l.phaseWork = 0
		begin := l.sh.Now()
		applied := uint64(0)
		for {
			pt, ok := l.q.PeekTime()
			if !ok || circuit.Tick(pt) != t {
				break
			}
			_, ev, _ := l.q.PopMin()
			l.st.EventsApplied++
			applied++
			l.phaseWork += cfg.Cost.EventCost
			if val[ev.gate] == ev.value {
				continue
			}
			val[ev.gate] = ev.value
			if isWatched[ev.gate] {
				l.rec.Record(t, ev.gate, ev.value)
			}
			for _, out := range c.FanoutAdj.Row(ev.gate) {
				dst := owner[out]
				l.outbox[dst] = append(l.outbox[dst], out)
				if dst != l.id {
					l.st.MessagesSent++
					l.phaseWork += cfg.Cost.MsgCost
				}
			}
		}
		l.applied = applied
		l.st.Hist(metrics.HistStepEvents).Observe(applied)
		l.sh.Span(trace.PhaseApply, begin, t)
	}

	// phaseB drains notifications and evaluates affected gates.
	phaseB := func(l *lp[V], t circuit.Tick, initial bool) {
		l.phaseWork = 0
		begin := l.sh.Now()
		l.dirty = l.dirty[:0]
		if initial {
			// Every local gate is evaluated regardless of notifications,
			// but the notifications were still delivered: account for the
			// receive side so the message counters stay paired.
			for _, src := range lps {
				for range src.outbox[l.id] {
					if src.id != l.id {
						l.st.MessagesRecv++
						l.phaseWork += cfg.Cost.MsgCost
					}
				}
			}
			for _, g := range l.gates {
				if !c.Kinds[g].Source() {
					l.dirty = append(l.dirty, g)
				}
			}
		} else {
			for _, src := range lps {
				inbox := src.outbox[l.id]
				for _, g := range inbox {
					if src.id != l.id {
						// Count the receive side of the notification.
						l.st.MessagesRecv++
						l.phaseWork += cfg.Cost.MsgCost
					}
					if l.stamp[g] != epoch {
						l.stamp[g] = epoch
						l.dirty = append(l.dirty, g)
					}
				}
			}
		}
		for _, g := range l.dirty {
			out, clkSample := pl.EvalGate(c, g, val, projected, prevClk)
			prevClk[g] = clkSample
			l.st.Evaluations++
			if rebalancing {
				windowEvals[g]++
			}
			l.phaseWork += cfg.Cost.EvalCost
			if out == projected[g] {
				continue
			}
			projected[g] = out
			l.q.Push(uint64(t+c.Delays[g]), event[V]{g, out})
			l.st.EventsScheduled++
			l.phaseWork += cfg.Cost.EventCost
		}
		l.st.Steps++
		l.sh.Span(trace.PhaseEvaluate, begin, t)
	}

	// One persistent helper per LP runs each phase on its own LP; step
	// sets phaseT, applying and settling before each barrier.
	var phaseT circuit.Tick
	var applying, settling bool
	pool := phase.New(numLPs, engine, sink, func(part, _ int) {
		if applying {
			phaseA(lps[part], phaseT)
		} else {
			phaseB(lps[part], phaseT, settling)
		}
	})
	defer pool.Close()

	// step runs timestep t: the apply phase, then the evaluate phase (of
	// every gate when settling), each on every LP concurrently and each
	// closed by the global barrier, priced by the cost model. The LPs'
	// applied-event counts fold into the run total at the barrier.
	step := func(t circuit.Tick, settle bool) error {
		phaseT, settling = t, settle
		for _, name := range [...]string{"apply", "eval"} {
			applying = name == "apply"
			begin := coord.Now()
			err := pool.Run(t, name, numLPs)
			coord.Span(trace.PhaseBarrier, begin, t)
			globals.Barriers++
			var max float64
			for _, l := range lps {
				if l.phaseWork > max {
					max = l.phaseWork
				}
				totalEvents += l.applied
				l.applied = 0
			}
			globals.ModeledCriticalNs += max
			if err != nil {
				return err
			}
		}
		for _, l := range lps {
			for d := range l.outbox {
				l.outbox[d] = l.outbox[d][:0]
			}
		}
		return nil
	}

	// rebalance migrates the hottest gates of the most loaded LP (by
	// window evaluations) to the least loaded LP. It runs between steps,
	// while every phase helper is parked, so mutating the ownership map is
	// safe; pending events stay in the queue that scheduled them (applying
	// a net change does not require ownership — only evaluation routing
	// does, and that always consults the current map).
	rebalance := func() {
		loads := make([]uint64, numLPs)
		for g, o := range owner {
			loads[o] += uint64(windowEvals[g])
		}
		var total uint64
		for _, l := range loads {
			total += l
		}
		if total == 0 {
			return
		}
		avg := total / uint64(numLPs)
		// Drain each over-average LP toward the currently coldest one, one
		// pass per LP at most; gates with the highest recent activity move
		// first so few migrations shift a lot of load.
		type hg struct {
			g circuit.GateID
			n uint32
		}
		for pass := 0; pass < numLPs; pass++ {
			hot, cold := 0, 0
			for i, l := range loads {
				if l > loads[hot] {
					hot = i
				}
				if l < loads[cold] {
					cold = i
				}
			}
			if hot == cold || loads[hot] <= avg+avg/10 {
				break
			}
			var cands []hg
			for g, o := range owner {
				if o == hot && windowEvals[g] > 0 && !c.Kinds[g].Source() {
					cands = append(cands, hg{circuit.GateID(g), windowEvals[g]})
				}
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i].n > cands[j].n })
			// Move at most the hot LP's excess over the mean, and no more
			// than the cold LP's headroom below it.
			budget := loads[hot] - avg
			if headroom := avg - loads[cold]; headroom < budget {
				budget = headroom
			}
			var moved uint64
			for _, cand := range cands {
				if moved >= budget {
					break
				}
				owner[cand.g] = cold
				moved += uint64(cand.n)
				migrations++
				// Price the state transfer on both sides.
				lps[hot].st.MessagesSent++
				lps[cold].st.MessagesRecv++
			}
			loads[hot] -= moved
			loads[cold] += moved
			if moved == 0 {
				break
			}
		}
		clear(windowEvals)
	}

	// Time-zero settling step: apply t=0 stimulus, then evaluate all
	// gates. A checkpoint resume skips it — the snapshot is already
	// settled state.
	epoch++
	if boot == nil {
		if err := step(0, true); err != nil {
			return nil, err
		}
	}
	var endTime circuit.Tick
	var stepsSinceRebalance uint64
	nextCk := ckpt.First(cfg.Cuts, boot, until)
	// cut captures boundary b on the coordinator while every phase helper
	// is parked: the shared planes, every LP's queue (a rebalanced event
	// stays in the queue that scheduled it) and every LP's samples.
	cut := func(b circuit.Tick) {
		var events []ckpt.EventT[V]
		recs := make([]*trace.RecorderT[V], numLPs)
		for i, l := range lps {
			eventq.Each(l.q, func(t uint64, ev event[V]) {
				events = append(events, ckpt.EventT[V]{Time: t, Gate: ev.gate, Value: ev.value})
			})
			recs[i] = &l.rec
		}
		cfg.Cuts.Sink(ckpt.PlaneCut(b, endTime, boot, val, prevClk, projected, events, trace.Merge(recs...)))
	}

	for {
		// Reduce the next global time across LP queues.
		var next uint64
		have := false
		for _, l := range lps {
			if err := l.q.Err(); err != nil {
				return nil, &supervise.SimError{
					Engine: engine, LP: l.id, Phase: "eventq", ModeledTime: endTime,
					Kind: supervise.KindCausality, Cause: err,
				}
			}
			if pt, ok := l.q.PeekTime(); ok && (!have || pt < next) {
				next, have = pt, true
			}
		}
		for ; nextCk != ckpt.Never && (!have || circuit.Tick(next) > nextCk); nextCk = cfg.Cuts.Next(nextCk, until) {
			cut(nextCk)
		}
		if !have || circuit.Tick(next) > until {
			break
		}
		if cfg.MaxEvents > 0 && totalEvents > cfg.MaxEvents {
			return nil, &supervise.SimError{
				Engine: engine, LP: -1, Phase: "run", ModeledTime: circuit.Tick(next),
				Kind:  supervise.KindEventLimit,
				Cause: fmt.Errorf("event limit %d exceeded at time %d", cfg.MaxEvents, next),
			}
		}
		t := circuit.Tick(next)
		endTime = t
		epoch++
		if err := step(t, false); err != nil {
			return nil, err
		}
		if rebalancing {
			stepsSinceRebalance++
			if stepsSinceRebalance >= cfg.Rebalance.Interval {
				stepsSinceRebalance = 0
				rebalance()
			}
		}
	}

	res.Values = val
	recs := make([]*trace.RecorderT[V], numLPs)
	for i, l := range lps {
		recs[i] = &l.rec
	}
	res.Waveform = trace.Merge(recs...)
	res.EndTime = endTime
	res.Migrations = migrations
	sink.SetGauge("migrations", float64(migrations))
	res.Stats = stats.Collect(sink, time.Since(start))
	return res, nil
}
