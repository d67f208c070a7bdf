package core

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim/adapt"
	"repro/internal/stats"
	"repro/internal/trace"
)

// AdaptReport records what the adaptive supervisor did: the decision
// log of every controller, the segment/switch/rebalance tallies, and
// the operating point the run ended on.
type AdaptReport struct {
	// Decisions is the full decision log: segment-boundary decisions
	// (engine switch, rebalance, commit, and explanatory holds) in
	// order, followed by the in-run optimism-window decisions (whose
	// Round field is the GVT round they fired at).
	Decisions []adapt.Decision
	// Segments is how many engine runs the job was split into.
	Segments int
	// EngineSwitches and Rebalances count the acted boundary decisions;
	// WindowChanges counts in-run optimism-window moves.
	EngineSwitches int
	Rebalances     int
	WindowChanges  int
	// FinalEngine is the engine that ran the last segment; FinalWindow
	// is the adapted optimism window at the end (0 = unbounded).
	FinalEngine Engine
	FinalWindow circuit.Tick
	// Committed reports that probing ended by decision (the switch
	// controller committed, a scripted commit fired, or the probe
	// budget ran out) rather than by reaching the horizon.
	Committed bool
}

// simulateAdaptive runs the job under closed-loop adaptive control.
//
// The run is split into probing segments at multiples of Spec.Every.
// Each segment executes on the currently selected engine, booted from
// the previous boundary's checkpoint; at every boundary the
// engine-switch supervisor and the load rebalancer observe that
// segment's metrics and may migrate the job to another protocol or
// repartition it on measured per-LP load. The boundary state is the
// segment engine's own cut at its horizon; with CheckpointEvery set, the
// segments cut at the gcd of the two cadences and write the multiples of
// CheckpointEvery. A boundary with no event left inside the horizon ends
// the run. Once the switch controller settles (or the probe budget is
// spent) the current engine is committed and runs unsegmented to the
// horizon, so adaptation overhead is paid only while the controllers are
// still deciding. The optimism-window controller is not segmented: it
// rides inside the optimistic engines, observing once per GVT round, and
// its adapted window carries across segments.
//
// The waveform is the concatenation of each segment's recorded suffix,
// behind the restore prefix simulateOn splices on — bit-identical to a
// static run under any
// decision sequence, because adaptation changes when things execute,
// never what is computed. Note that MaxEvents bounds each segment
// individually, not the whole job. Both value planes adapt alike: a wide
// segment boots from the previous wide segment's cut.
func (j *job[S, V]) adaptive(until circuit.Tick, opts Options) (*ReportT[V], error) {
	c := j.c
	if !opts.Engine.Parallel() {
		return nil, fmt.Errorf("core: adaptive control requires a parallel engine (got %v)", opts.Engine)
	}
	for _, d := range opts.Adapt.Script {
		if d.Kind == adapt.KindSwitch {
			if _, err := parseSwitchTarget(d.To); err != nil {
				return nil, err
			}
		}
	}
	spec := opts.Adapt.WithDefaults(uint64(until))

	var winCtl *adapt.WindowController
	if !spec.NoWindow {
		winCtl = adapt.NewWindowController()
	}
	var swCtl *adapt.SwitchController
	if !spec.NoSwitch {
		swCtl = adapt.NewSwitchController()
	}
	var rbCtl *adapt.Rebalancer
	if !spec.NoRebalance {
		rbCtl = adapt.NewRebalancer()
	}

	// One cut interval serves the probes and the checkpoint files.
	cutEvery := circuit.Tick(spec.Every)
	for b := opts.CheckpointEvery; b != 0 && opts.CheckpointDir != ""; {
		cutEvery, b = b, cutEvery%b
	}
	engine := opts.Engine
	weights := opts.Weights
	baseWindow := opts.Window
	cur := j.boot // boundary state feeding the next segment
	boundary := uint64(0)
	if cur != nil {
		boundary = cur.Time
	}

	master := metrics.NewRegistry(engine.String() + j.eng.suffix)
	wallStart := time.Now()
	var (
		wave       trace.WaveformT[V]
		values     []V
		endTime    circuit.Tick
		modeled    float64
		procs      int
		decisions  []adapt.Decision
		segments   int
		switches   int
		rebalances int
		committed  bool
		srep       *SupervisionReport
		// part is the partition the next segment runs on: the prepared
		// run's to begin with, rebuilt after every rebalance.
		part = opts.prebuilt
	)
	opts.prebuilt = nil

	for {
		// Segment horizon: the next multiple of the cadence, or the full
		// horizon once the engine is committed (or the cadence overshoots).
		segEnd := until
		last := committed
		if !last {
			next := (boundary/spec.Every + 1) * spec.Every
			if circuit.Tick(next) >= until {
				last = true
			} else {
				segEnd = circuit.Tick(next)
			}
		}

		o := opts
		o.Engine = engine
		o.Window = baseWindow
		o.Weights = weights
		o.Adapt = nil
		o.winCtl = winCtl
		if !last {
			o.cutEvery, o.cutUntil = cutEvery, until
		}
		// The partition only depends on inputs that survive a segment
		// boundary (method, LP count, seed, weights), so build it once
		// and share it across segments; a rebalance invalidates it.
		if part == nil {
			var err error
			part, err = buildPartition(c, o)
			if err != nil {
				return nil, err
			}
		}
		o.prebuilt = part
		segReg := metrics.NewRegistry(engine.String() + j.eng.suffix)
		if opts.PProfLabels {
			segReg.EnablePProf()
		}
		o.Metrics = segReg

		seg := *j
		seg.boot = cur
		rep, err := seg.run(segEnd, o)
		if err != nil {
			return nil, err
		}
		segments++
		master.Absorb(segReg)
		wave = append(wave, rep.Waveform...)
		values = rep.Values
		modeled += rep.Modeled
		if rep.EndTime > endTime {
			endTime = rep.EndTime
		}
		if rep.Processors > procs {
			procs = rep.Processors
		}
		if rep.Supervision != nil {
			if srep == nil {
				srep = &SupervisionReport{}
			}
			srep.Recoveries += rep.Supervision.Recoveries
			srep.Fallbacks += rep.Supervision.Fallbacks
			srep.Attempts = append(srep.Attempts, rep.Supervision.Attempts...)
			// A fallback sticks: later segments continue on the engine
			// that actually survived, not the one that kept failing.
			engine = rep.Supervision.FinalEngine
		}
		if last {
			break
		}

		// Boundary state for the next segment: the segment's own cut at
		// its horizon, pending events in time order.
		st := rep.cut
		if st == nil {
			return nil, fmt.Errorf("core: segment to %d ended without its boundary cut", segEnd)
		}
		if len(st.Events) == 0 || circuit.Tick(st.Events[0].Time) > until {
			// No activity left inside the horizon — the run is complete.
			break
		}

		// Boundary decisions. A scripted entry replaces the controllers
		// for this boundary; otherwise the switch supervisor decides
		// first and the rebalancer only when placement was not already
		// invalidated by a protocol migration.
		bIdx := segments - 1
		s := segmentSample(bIdx, engine, rep, segReg)
		act := func(d adapt.Decision) error {
			decisions = append(decisions, d)
			switch d.Kind {
			case adapt.KindSwitch:
				e, err := parseSwitchTarget(d.To)
				if err != nil {
					return err
				}
				engine = e
				switches++
			case adapt.KindWindow:
				baseWindow = circuit.Tick(d.Window)
			case adapt.KindRebalance:
				w, err := rebalanceWeights(c, o, s.PerLPEvals)
				if err != nil || w == nil {
					return err
				}
				weights = w
				rebalances++
				part = nil // weights changed: repartition next segment
			case adapt.KindCommit:
				committed = true
			case adapt.KindHold:
				// Explicitly forced no-op boundary.
			default:
				return fmt.Errorf("core: scripted decision round %d has unknown kind %q", d.Round, d.Kind)
			}
			return nil
		}
		if d, ok := spec.Scripted(bIdx); ok {
			if d.Kind == adapt.KindSwitch && d.From == "" {
				d.From = engine.String()
			}
			if err := act(d); err != nil {
				return nil, err
			}
		} else {
			switched := false
			if swCtl != nil {
				d, acted := swCtl.Observe(s)
				if !acted {
					decisions = append(decisions, d)
				} else if err := act(d); err != nil {
					return nil, err
				}
				switched = acted && d.Kind == adapt.KindSwitch
			}
			if rbCtl != nil && !switched && !committed {
				d, acted := rbCtl.Observe(s)
				if !acted {
					decisions = append(decisions, d)
				} else if err := act(d); err != nil {
					return nil, err
				}
			}
		}
		if !committed && segments >= spec.MaxProbes {
			committed = true
			decisions = append(decisions, adapt.Decision{
				Round: bIdx, Kind: adapt.KindCommit,
				Reason: fmt.Sprintf("probe budget (%d segments) spent: commit %s", spec.MaxProbes, engine),
			})
		}
		if winCtl != nil {
			// The next segment's counters restart from zero; re-baseline
			// the delta computation (the adapted window carries over).
			winCtl.ResetEpoch()
		}
		cur = st
		boundary = st.Time
	}

	wall := time.Since(wallStart)
	ar := &AdaptReport{
		Decisions:      decisions,
		Segments:       segments,
		EngineSwitches: switches,
		Rebalances:     rebalances,
		FinalEngine:    engine,
		Committed:      committed,
	}
	master.SetLabel("engine", engine.String()+j.eng.suffix)
	master.SetLabel("adaptive", "on")
	master.SetLabel("lps", fmt.Sprint(procs))
	master.SetGauge("adapt_segments", float64(segments))
	master.SetGauge("adapt_engine_switches", float64(switches))
	master.SetGauge("adapt_rebalances", float64(rebalances))
	if committed {
		master.SetGauge("adapt_committed", 1)
	} else {
		master.SetGauge("adapt_committed", 0)
	}
	if winCtl != nil {
		ar.WindowChanges = winCtl.Changes()
		ar.FinalWindow = circuit.Tick(winCtl.Window())
		ar.Decisions = append(ar.Decisions, winCtl.Decisions()...)
		master.SetGauge("adapt_window_changes", float64(winCtl.Changes()))
		master.SetGauge("adapt_final_window", float64(winCtl.Window()))
	}
	if srep != nil {
		srep.FinalEngine = engine
		master.SetGauge("supervise_recoveries", float64(srep.Recoveries))
		master.SetGauge("supervise_fallbacks", float64(srep.Fallbacks))
	}

	rep := &ReportT[V]{
		Engine:      opts.Engine,
		Values:      values,
		Waveform:    wave,
		EndTime:     endTime,
		Modeled:     modeled,
		Processors:  procs,
		Supervision: srep,
		Adapt:       ar,
	}
	rep.Stats = stats.Collect(master, wall)
	if ext := opts.Metrics; ext != nil {
		// The caller brought its own registry: fold the run into it and
		// report through it, mirroring the static path.
		ext.Absorb(master)
		rep.Metrics = ext.Report()
	} else {
		rep.Metrics = master.Report()
	}
	return rep, nil
}

// segmentSample condenses one finished segment into the per-segment
// observation the boundary controllers consume.
func segmentSample[V comparable](round int, engine Engine, rep *ReportT[V], reg *metrics.Registry) adapt.Sample {
	tot := reg.Totals()
	perLP := make([]uint64, reg.NumLPs())
	for i := range perLP {
		perLP[i] = reg.LP(i).Evaluations
	}
	return adapt.Sample{
		Round:            round,
		WallMs:           float64(rep.Stats.Wall.Microseconds()) / 1e3,
		Engine:           engine.String(),
		EventsApplied:    tot.EventsApplied,
		EventsRolledBack: tot.EventsRolledBack,
		Rollbacks:        tot.Rollbacks,
		NullsSent:        tot.NullsSent,
		MessagesSent:     tot.MessagesSent,
		PerLPEvals:       perLP,
	}
}

// parseSwitchTarget resolves an engine-switch target, rejecting engines
// that cannot resume from a checkpoint.
func parseSwitchTarget(name string) (Engine, error) {
	e, err := ParseEngine(name)
	if err != nil {
		return 0, err
	}
	if e == EngineOblivious {
		return 0, fmt.Errorf("core: cannot switch to %v mid-run: the oblivious engine is cycle-based and cannot resume from an event checkpoint", e)
	}
	return e, nil
}

// rebalanceWeights turns the just-measured per-LP utilization into
// per-gate partitioner weights: every gate inherits its LP's mean
// measured load, so the next partition spreads observed work instead of
// static estimates. segOpts must be the options the measured segment
// ran with — the same gate→LP assignment. Returns nil (no error) when
// the segment has no partition to project through.
func rebalanceWeights(c *circuit.Circuit, segOpts Options, perLP []uint64) (partition.Weights, error) {
	part, err := buildPartition(c, segOpts)
	if err != nil || part == nil || len(perLP) == 0 {
		return nil, err
	}
	counts := make([]int, len(perLP))
	for _, lp := range part.Assign {
		if lp >= 0 && lp < len(counts) {
			counts[lp]++
		}
	}
	w := make(partition.Weights, len(c.Kinds))
	for g, lp := range part.Assign {
		if lp < 0 || lp >= len(perLP) || counts[lp] == 0 {
			w[g] = 1
			continue
		}
		// The +0.1 floor keeps gates that happened to be idle this
		// segment movable rather than weightless.
		w[g] = float64(perLP[lp])/float64(counts[lp]) + 0.1
	}
	return w, nil
}
