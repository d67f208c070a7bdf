// Package timewarp implements optimistic asynchronous simulation with the
// Time Warp mechanism of Jefferson.
//
// Logical processes execute events speculatively, as soon as they are
// available, with no safety check. Causality is repaired after the fact: a
// straggler message older than the local clock triggers a rollback that
// restores saved state, requeues the affected input events, and cancels
// previously sent messages with anti-messages. Both state-saving policies
// from the paper are implemented — full per-step copies and incremental
// undo logs ("frequently only the change in state is saved") — as are both
// cancellation policies, aggressive (cancel on rollback) and Gafni's lazy
// cancellation (cancel only once re-execution shows the message is not
// regenerated).
//
// Global virtual time is computed by a coordinator with a pause-the-world
// round protocol: processing is frozen, message-handling rounds repeat
// until nothing is in transit and nothing was handled, and GVT is then the
// minimum unprocessed event time. Fossil collection frees history older
// than GVT, and an optional moving time window bounds optimism to
// GVT + Window, one of the "control" mechanisms the paper's future
// directions discuss.
//
// The Time Warp protocol itself — speculation, rollback, anti-messages,
// GVT, fossil collection — never inspects a signal value; it only moves
// them, compares them, and saves them. The engine is therefore one body
// generic over the value type, built on a circuit.Plane[V]: run and the
// tlp machinery in lp.go are instantiated with logic.Value for Run and
// logic.Word for the 64-lane RunWide.
package timewarp

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/dist/wire"
	"repro/internal/eventq"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim/adapt"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/lpnet"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// Cancellation selects the anti-message policy.
type Cancellation uint8

// The cancellation policies.
const (
	Aggressive Cancellation = iota
	Lazy
)

// String names the policy.
func (c Cancellation) String() string {
	switch c {
	case Aggressive:
		return "aggressive"
	case Lazy:
		return "lazy"
	}
	return fmt.Sprintf("Cancellation(%d)", uint8(c))
}

// StateSaving selects the checkpointing policy.
type StateSaving uint8

// The state-saving policies.
const (
	Incremental StateSaving = iota
	FullCopy
)

// String names the policy.
func (s StateSaving) String() string {
	switch s {
	case Incremental:
		return "incremental"
	case FullCopy:
		return "full-copy"
	}
	return fmt.Sprintf("StateSaving(%d)", uint8(s))
}

// ConfigT parameterizes an optimistic run on the value plane of V.
type ConfigT[V comparable] struct {
	// Partition assigns gates to LPs; required.
	Partition *partition.Partition
	// Cancellation selects aggressive or lazy anti-messages.
	Cancellation Cancellation
	// StateSaving selects incremental undo logs or full per-step copies.
	StateSaving StateSaving
	// Window, when non-zero, bounds optimism: an LP does not execute
	// events later than GVT + Window (the moving-time-window control).
	Window circuit.Tick
	// GVTInterval is the wall-clock ceiling between GVT computations; zero
	// uses a 50ms default. GVT is normally paced by work, not wall time: a
	// round starts once the run has processed about sixteen events per
	// gate since the previous round, or immediately when every LP goes
	// idle (so termination latency never depends on the interval). GVT is
	// a pause-the-world protocol here and each pause perturbs the LPs'
	// relative progress enough to induce extra rollback, so pacing by work
	// keeps the perturbation proportional to useful progress at every
	// circuit size.
	GVTInterval time.Duration
	// IntraWorkers, when > 1, makes every LP a synchronous cluster: it
	// evaluates its per-timestep dirty set across this many sub-workers of
	// its own phase.Pool (kernel.StepParallel), while the clusters
	// synchronize optimistically among themselves. This is the
	// hierarchical scheme of the paper's future-directions section (§VI),
	// which core runs as the hybrid engine; 0 and 1 run plain Time Warp.
	IntraWorkers int
	// Cost prices intra-cluster critical-path accounting when
	// IntraWorkers > 1; the zero value uses the default model.
	Cost stats.CostModel
	// System is the logic value system; zero selects the plane's default.
	System logic.System
	// Queue selects each LP's pending-event set implementation.
	Queue eventq.Impl
	// Watch lists nets to record; nil watches primary outputs.
	Watch []circuit.GateID
	// MaxEvents aborts runaway simulations; 0 means no limit.
	MaxEvents uint64
	// Metrics receives per-LP counters and GVT globals; nil uses a private
	// registry.
	Metrics metrics.Sink
	// Tracer, when non-nil, records per-LP evaluate/rollback/block spans
	// and coordinator GVT spans.
	Tracer *trace.Tracer
	// Chaos, when non-nil, wraps every LP inbox in the fault-injecting
	// chaos transport and enables stall points at the
	// evaluate/rollback/block boundaries. Test harness use only; nil
	// leaves the hot path on the raw mailboxes.
	Chaos *inject.Hook
	// HangTimeout, when non-zero, arms a progress watchdog: if no LP
	// advances its clock, bound, or event count for this long, the run
	// aborts with a machine-readable hang report instead of blocking
	// forever.
	HangTimeout time.Duration
	// HistoryLimit, when non-zero, bounds the total words of saved
	// rollback history (undo logs, snapshots, step records) across all
	// LPs. When the bound is exceeded the coordinator forces an immediate
	// GVT round (aggressive fossil collection) and clamps the optimism
	// window until memory falls below half the limit.
	HistoryLimit uint64
	// Boot, when non-nil, resumes from a checkpoint instead of time zero:
	// LP state planes are seeded from the snapshot, the pending-event
	// queue is reloaded from it, the stimulus is ignored (the checkpoint
	// queue already holds every future stimulus change), and the
	// time-zero settling step is skipped. The returned waveform covers
	// only the resumed suffix.
	Boot *ckpt.StateT[V]
	// Sweep arms the kernel's oblivious block sweep (RunWide always arms
	// it): once a step's dirty set covers half an LP's
	// block, the whole block is evaluated in one levelized pass. Intended
	// for cone-split partitions, whose fat per-cone blocks saturate the
	// dirty set on nearly every active step.
	Sweep bool
	// Adapt, when non-nil, closes the loop on the optimism window: the
	// coordinator feeds the controller one metrics sample per GVT round
	// and publishes its output as an additional window bound. The
	// effective window is the narrowest of the configured Window, the
	// memory-throttle clamp, and the adapted window — so the clamp
	// always wins over the controller, by construction. The controller
	// may be shared across segmented runs (the adaptive supervisor
	// resets its sampling epoch between segments); within one run only
	// the coordinator goroutine touches it.
	Adapt *adapt.WindowController
	// Dist, when non-nil, runs this process as one shard of a
	// distributed simulation: only the LPs the seam maps to this shard
	// execute locally, remote LPs' mailboxes are replaced by socket
	// outboxes, and GVT becomes the seam's hub-driven round protocol
	// instead of the local pause-the-world coordinator. Incompatible
	// with IntraWorkers, HistoryLimit, and Adapt. The wire format
	// carries scalar values: RunWide runs every LP locally.
	Dist *wire.Seam
	// Cuts, when non-nil, has every LP capture its part of a consistent
	// cut at each checkpoint boundary b: speculatively, just before its
	// first step past b (again if a rollback undoes that), and handed over
	// once GVT passes b and no rollback can reach it.
	Cuts *ckpt.Cuts[V]
}

// ResultT is the outcome of an optimistic run over value type V.
type ResultT[V comparable] struct {
	Values []V
	// Waveform converts to trace.Waveform or trace.WideWaveform.
	Waveform []trace.SampleT[V]
	EndTime  circuit.Tick
	GVT      circuit.Tick
	Stats    stats.RunStats
	// IntraCritical, when the LPs are clusters (IntraWorkers > 1), holds
	// each cluster's modeled evaluation critical path (per-step max chunk
	// plus barrier costs); nil otherwise.
	IntraCritical []float64
	// workers is the processor count of each LP: IntraWorkers for a
	// cluster, 1 for a plain LP.
	workers int
}

// Processors reports the modeled machine size: LPs times the processors
// each one runs on.
func (r *ResultT[V]) Processors() int { return len(r.Stats.LPs) * r.workers }

// ModeledTime prices the run under m, the Config.Cost that priced
// IntraCritical. Plain LPs are priced as stats.RunStats.ModeledTime does.
// For clusters, each cluster's serial evaluation cost is replaced by its
// intra-cluster critical path, and the slowest cluster plus the GVT
// rounds bound the run.
func (r *ResultT[V]) ModeledTime(m stats.CostModel) float64 {
	if r.IntraCritical == nil {
		return r.Stats.ModeledTime(m)
	}
	var worst float64
	for i, lp := range r.Stats.LPs {
		t := m.Busy(lp)
		if i < len(r.IntraCritical) {
			t = t - m.EvalCost*float64(lp.Evaluations) + r.IntraCritical[i]
		}
		worst = max(worst, t)
	}
	return worst + float64(r.Stats.GVTRounds)*m.GVT(len(r.Stats.LPs))
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

// gvtReply is an LP's answer to one GVT round.
type gvtReply struct {
	handled  uint64       // messages handled since the previous reply
	localMin circuit.Tick // minimum live unprocessed event time
}

// shared bundles cross-goroutine state of a run.
type shared[V comparable] struct {
	cfg    ConfigT[V]
	engine string // supervise/metrics label
	c      *circuit.Circuit
	until  circuit.Tick
	// net is the LP network. Its Transit counts values and anti-messages
	// from the send that batches them to the handler that consumes them.
	net     *lpnet.Net[V]
	coShard *trace.Shard
	replies chan gvtReply
	paused  atomic.Bool
	// idle counts LPs parked with nothing executable; when every LP is
	// idle the coordinator starts a GVT round immediately (fast
	// termination) instead of waiting out the interval.
	idle atomic.Int64

	// Memory-throttle state (HistoryLimit > 0). histWords is the live
	// total of saved-history words across LPs; clamp, when non-zero, is a
	// coordinator-imposed optimism window that overrides any wider
	// configured window. throttleRounds and histPeak are coordinator-owned
	// and read only after it returns.
	histWords      atomic.Int64
	clamp          atomic.Uint64
	throttleRounds uint64
	histPeak       uint64

	// Adaptive-window state (cfg.Adapt != nil). adaptWin is the
	// controller's current output (0 = unbounded), published by the
	// coordinator after each GVT round and folded into every LP's
	// effective window alongside the clamp; winChanges is
	// coordinator-owned and read only after it returns. The network's
	// scoreboard is always kept, so the adaptive sampler (and any
	// watchdog) can read live progress.
	adaptWin   atomic.Uint64
	winChanges uint64
}

// Run simulates c under the stimulus until the given time (inclusive).
func Run(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, cfg Config) (*Result, error) {
	return run(circuit.Scalar, "timewarp", c, stim, until, cfg)
}

// RunWide is the optimistic engine on 64 packed lanes: the identical Time
// Warp protocol with every message, saved state word, and undo record
// carrying a whole 64-lane word. Rollback restores all lanes at once, so a
// straggler in any lane repairs every lane together. Inside each LP the
// kernel's oblivious block sweep is armed: when the lane-union dirty set
// reaches half the LP's block, the step evaluates the whole owned block in
// levelized order obliviously-wide — scalar event semantics at LP
// boundaries, batch evaluation inside. Per lane, the committed result is
// bit-identical to a scalar optimistic run of that lane's stimulus.
func RunWide(c *circuit.Circuit, stim *vectors.WideStimulus, until circuit.Tick, cfg WideConfig) (*WideResult, error) {
	// A lane-union dirty set saturates, so a wide run always sweeps; the
	// wire format carries scalar values, so every LP runs locally.
	cfg.Sweep, cfg.Dist = true, nil
	return run(circuit.Wide, "timewarp-wide", c, stim, until, cfg)
}

// run is the optimistic engine over value type V: LP construction on the
// shared LP network, the GVT coordinator, and result assembly. engine
// labels the metrics registry and errors, and cfg.Boot, when non-nil,
// replaces the stimulus and the time-zero settling step.
func run[V comparable](pl *circuit.Plane[V], engine string, c *circuit.Circuit, stim vectors.Source[V],
	until circuit.Tick, cfg ConfigT[V]) (*ResultT[V], error) {
	if err := checkDist(cfg); err != nil {
		return nil, err
	}
	net, err := lpnet.Open(lpnet.Spec[V]{
		Engine: engine, Plane: pl, Circuit: c, Partition: cfg.Partition,
		System: cfg.System, Watch: cfg.Watch, Sweep: cfg.Sweep, Until: until,
		Chaos: cfg.Chaos, Seam: cfg.Dist, Cuts: cfg.Cuts,
		Metrics: cfg.Metrics, Tracer: cfg.Tracer,
		HangTimeout: cfg.HangTimeout, Scoreboard: true, MaxEvents: cfg.MaxEvents,
	}, stim, cfg.Boot)
	if err != nil {
		return nil, err
	}
	if cfg.GVTInterval == 0 {
		cfg.GVTInterval = 50 * time.Millisecond
	}
	if cfg.Cost == (stats.CostModel{}) {
		cfg.Cost = stats.DefaultCostModel()
	}

	n := cfg.Partition.Blocks
	sh := &shared[V]{cfg: cfg, engine: engine, c: c, until: until, net: net}
	sh.coShard = cfg.Tracer.Shard("coordinator")
	sh.replies = make(chan gvtReply, n)
	if cfg.Adapt != nil {
		sh.adaptWin.Store(cfg.Adapt.Window())
	}
	lps := make([]*tlp[V], n)
	for i := range lps {
		lps[i] = newTLP(sh, i)
	}

	var gvtRounds uint64
	var finalGVT circuit.Tick
	err = net.Run(lpnet.Launch{
		Coordinate: func() {
			if cfg.Dist != nil {
				gvtRounds, finalGVT = distCoordinate(sh)
			} else {
				gvtRounds, finalGVT = coordinate(sh)
			}
		},
		// The heartbeat probe carries the all-idle flag the hub paces GVT
		// rounds on.
		Idle: func() bool { return sh.idle.Load() == int64(len(net.Locals())) },
	})
	// A cluster's pool outlives its LP's goroutine; close every pool once
	// no LP can step, on every exit path.
	for _, l := range lps {
		l.pool.Close()
	}
	if err != nil {
		return nil, err
	}

	sink := net.Sink()
	sink.Globals().GVTRounds = gvtRounds
	if finalGVT != infTick {
		sink.SetGauge("final_gvt", float64(finalGVT))
	}
	if cfg.HistoryLimit > 0 {
		sink.SetGauge("mem_throttle_rounds", float64(sh.throttleRounds))
		sink.SetGauge("history_peak_words", float64(sh.histPeak))
	}
	if cfg.Adapt != nil {
		sink.SetGauge("adapt_window_changes", float64(sh.winChanges))
		sink.SetGauge("adapt_final_window", float64(sh.adaptWin.Load()))
	}
	out := net.Result()
	res := &ResultT[V]{Values: out.Values, Waveform: out.Waveform, EndTime: out.EndTime, Stats: out.Stats,
		GVT: finalGVT, workers: max(cfg.IntraWorkers, 1)}
	if cfg.IntraWorkers > 1 {
		for _, l := range lps {
			res.IntraCritical = append(res.IntraCritical, l.critEval)
		}
	}
	return res, nil
}

// tell puts m in the inbox of every LP in lps.
func (sh *shared[V]) tell(lps []int, m lpnet.Msg[V]) {
	for _, i := range lps {
		sh.net.Inboxes[i].Put(m)
	}
}

// poll runs one GVT handling round over lps, which the caller has frozen:
// every LP reports what it handled since its last report and its local
// minimum, appended to mins. ok is false once the run aborts: an LP that
// died (panic, watchdog abort) never replies, so the collection stays
// abort-aware rather than block on the channel forever.
func (sh *shared[V]) poll(lps []int, mins []circuit.Tick) (handled uint64, _ []circuit.Tick, ok bool) {
	sh.tell(lps, lpnet.Msg[V]{Kind: lpnet.GVTRound})
	for k := 0; k < len(lps); {
		select {
		case r := <-sh.replies:
			handled += r.handled
			mins = append(mins, r.localMin)
			k++
		case <-time.After(5 * time.Millisecond):
			if sh.net.Aborted() {
				return 0, mins, false
			}
		}
	}
	return handled, mins, !sh.net.Aborted()
}

// coordinate runs the GVT/termination protocol and returns the number of
// GVT computations performed and the final GVT.
func coordinate[V comparable](sh *shared[V]) (uint64, circuit.Tick) {
	lps := sh.net.Locals()
	n := len(lps)
	start := time.Now()
	var rounds uint64
	gvt := circuit.Tick(0)
	// Work-based pacing: a GVT round per ~16 events of progress per gate,
	// floored so small circuits are not paused constantly.
	threshold := uint64(16 * len(sh.c.Gates))
	if threshold < 100_000 {
		threshold = 100_000
	}
	limit := sh.cfg.HistoryLimit
	var lastEvents uint64
	for {
		// Wait for enough progress, an all-idle run, the wall ceiling, or
		// (memory throttling) the history bound being exceeded — the last
		// forces an early GVT round so fossil collection can run. The
		// forced round still waits out a small air gap so the LPs execute
		// between pauses: with no gap a persistently-over-limit run would
		// pause back-to-back and never advance GVT at all.
		deadline := time.Now().Add(sh.cfg.GVTInterval)
		gapEnd := time.Now().Add(2 * time.Millisecond)
		for time.Now().Before(deadline) {
			over := false
			if limit > 0 {
				w := uint64(sh.histWords.Load())
				if w > sh.histPeak {
					sh.histPeak = w
				}
				over = w > limit
			}
			if over && time.Now().After(gapEnd) {
				break
			}
			if sh.net.Aborted() || sh.idle.Load() == int64(n) ||
				sh.net.Events()-lastEvents >= threshold {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		if sh.net.Aborted() {
			return rounds, gvt
		}
		lastEvents = sh.net.Events()
		// Freeze processing, then repeat handling rounds to quiescence.
		roundBegin := sh.coShard.Now()
		sh.paused.Store(true)
		var localMins []circuit.Tick
		for {
			var handled uint64
			var ok bool
			if handled, localMins, ok = sh.poll(lps, localMins[:0]); !ok {
				sh.paused.Store(false)
				return rounds, gvt
			}
			if handled == 0 && sh.net.Transit.Load() == 0 {
				break
			}
		}
		rounds++
		gvt = slices.Min(localMins)
		if limit > 0 {
			throttle(sh, localMins, gvt)
		}
		if ad := sh.cfg.Adapt; ad != nil {
			// Sample the frozen run. Reading the LP metrics blocks here is
			// race-free: every LP sent its gvtReply after its last counter
			// write and is parked in WaitDrain until the coordinator's next
			// message, so the reply-channel receives above are the
			// happens-before edge. Sampled after throttle so the controller
			// sees the clamp it must yield to.
			tot := metrics.SinkTotals(sh.net.Sink())
			s := adapt.Sample{
				Round:            int(rounds),
				WallMs:           float64(time.Since(start).Microseconds()) / 1e3,
				Engine:           sh.engine,
				EventsApplied:    tot.EventsApplied,
				EventsRolledBack: tot.EventsRolledBack,
				Rollbacks:        tot.Rollbacks,
				MessagesSent:     tot.MessagesSent,
				Clamp:            sh.clamp.Load(),
				PerLPEvals:       sh.net.Board().Utilization(),
			}
			if gvt != infTick {
				s.GVT = uint64(gvt)
			}
			win, changed := ad.Observe(s)
			sh.adaptWin.Store(win)
			if changed {
				sh.winChanges++
			}
		}
		if gvt == infTick {
			sh.coShard.Span(trace.PhaseGVT, roundBegin, trace.NoTick)
		} else {
			sh.coShard.Span(trace.PhaseGVT, roundBegin, gvt)
			sh.coShard.Sample("gvt", float64(gvt))
		}
		if gvt > sh.until {
			sh.tell(lps, lpnet.Msg[V]{Kind: lpnet.Terminate})
			sh.paused.Store(false)
			return rounds, gvt
		}
		sh.paused.Store(false)
		sh.tell(lps, lpnet.Msg[V]{Kind: lpnet.GVTDone, Time: gvt})
	}
}

// throttle adjusts the optimism clamp after a GVT round. Over the history
// limit: count a throttle round and clamp the window to half the observed
// optimism spread (or halve an existing clamp), forcing the LPs to stay
// near GVT so fossil collection can keep up. Under half the limit: release
// the clamp. The hysteresis band avoids oscillating at the boundary.
func throttle[V comparable](sh *shared[V], localMins []circuit.Tick, gvt circuit.Tick) {
	w := uint64(sh.histWords.Load())
	if w > sh.histPeak {
		sh.histPeak = w
	}
	limit := sh.cfg.HistoryLimit
	switch {
	case w > limit:
		sh.throttleRounds++
		cl := sh.clamp.Load()
		if cl == 0 {
			// First clamp: half the spread between GVT and the most
			// optimistic LP's next event.
			var spread circuit.Tick = 2
			if gvt != infTick {
				for _, m := range localMins {
					if m != infTick && m > gvt && m-gvt > spread {
						spread = m - gvt
					}
				}
			}
			cl = uint64(spread / 2)
		} else if cl > 1 {
			cl /= 2
		}
		if cl < 1 {
			cl = 1
		}
		sh.clamp.Store(cl)
	case w < limit/2:
		sh.clamp.Store(0)
	}
}
