package experiments

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	"repro/internal/sim/timewarp"
	"repro/internal/stats"
	"repro/internal/vectors"
)

// defaultModel shortens stats.DefaultCostModel calls.
func defaultModel() stats.CostModel { return stats.DefaultCostModel() }

// E3Activity reproduces the oblivious/event-driven trade-off: "at low
// activity levels, redundant evaluations are an enormous overhead; at
// higher activity levels, the elimination of the event queue can lead to a
// performance advantage".
func E3Activity(s Scale) (*Table, error) {
	n := 1500
	vecs := 25
	if s == Full {
		n = 8000
		vecs = 50
	}
	c, err := sizedCircuit(n, 11, gen.Unit)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E3",
		Title:  "event-driven vs oblivious across input activity",
		Claim:  "the appropriateness of the oblivious algorithm is highly dependent upon the activity within a circuit",
		Header: []string{"activity", "evd-evals", "obl-evals", "evd-modeled", "obl-modeled", "obl/evd"},
	}
	for _, act := range []float64{0.01, 0.05, 0.1, 0.3, 0.6, 1.0} {
		w, err := randomWorkload(c, vecs, 40, act, 13)
		if err != nil {
			return nil, err
		}
		base, err := baselineFor(w)
		if err != nil {
			return nil, err
		}
		obl, err := core.Simulate(w.c, w.stim, w.until, core.Options{
			Engine: core.EngineOblivious, LPs: 1, System: logic.TwoValued,
		})
		if err != nil {
			return nil, err
		}
		ratio := obl.Modeled / base.Modeled
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", act),
			d(base.SeqWork.Evaluations),
			d(obl.Metrics.Total(metrics.Evaluations)),
			f2(base.Modeled / 1e6), f2(obl.Modeled / 1e6), f2(ratio),
		})
	}
	t.Notes = append(t.Notes,
		"modeled times in model-milliseconds; obl/evd < 1 means oblivious wins",
		"oblivious evaluation count is constant (gates x boundaries) regardless of activity")
	return t, nil
}

// E4Partitioners compares the Section III heuristics on cut size, load
// balance, and delivered parallel performance.
func E4Partitioners(s Scale) (*Table, error) {
	n := 1500
	vecs := 20
	annealMoves := 40_000
	if s == Full {
		n = 6000
		vecs = 40
		annealMoves = 400_000
	}
	c, err := sizedCircuit(n, 17, gen.Unit)
	if err != nil {
		return nil, err
	}
	w, err := randomWorkload(c, vecs, 40, 0.5, 17)
	if err != nil {
		return nil, err
	}
	base, err := baselineFor(w)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E4",
		Title:  "partitioning heuristics at 8 LPs",
		Claim:  "the emphasis has been on developing efficient heuristics with near optimal results (strings, cones, min-cut, annealing)",
		Header: []string{"method", "cut-links", "imbalance", "sync-speedup", "tw-speedup"},
	}
	weights := partition.WeightsUniform(c)
	for _, m := range []partition.Method{
		partition.MethodRandom, partition.MethodContiguous, partition.MethodStrings,
		partition.MethodCones, partition.MethodLevels, partition.MethodKL,
		partition.MethodFM, partition.MethodAnneal, partition.MethodMultilevel,
	} {
		p, err := partition.New(m, c, 8, partition.Options{Seed: 3, AnnealMoves: annealMoves})
		if err != nil {
			return nil, err
		}
		q := p.Evaluate(c, weights)
		spSync, _, err := speedupOf(w, base, core.Options{
			Engine: core.EngineSync, LPs: 8, Partition: m, PartitionSeed: 3,
		})
		if err != nil {
			return nil, err
		}
		spTW, _, err := speedupOf(w, base, core.Options{
			Engine: core.EngineTimeWarp, LPs: 8, Partition: m, PartitionSeed: 3,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			m.String(), d(q.CutLinks), f2(q.Imbalance), f2(spSync), f2(spTW),
		})
	}
	return t, nil
}

// E5Granularity sweeps gates-per-LP at a fixed machine size: "only one
// gate per LP can result in high overhead processing incoming messages,
// while only one LP per processor can result in unnecessarily blocked
// computation or high rollback overheads ... the optimum granularity is
// somewhere between these two extremes."
//
// The machine is fixed at 8 processors. The circuit is 32 independent
// inverter chains, four of them hot (inputs toggling every vector) and the
// rest nearly idle, partitioned contiguously — the natural per-module
// assignment. Few LPs trap all hot chains on few processors (imbalance);
// many LPs slice every chain so that its internal traffic becomes
// messages (overhead); the optimum sits in between. The modeled processor
// time is the round-robin sum of its co-located LPs' busy times.
func E5Granularity(s Scale) (*Table, error) {
	chainLen := 64
	vecs := 20
	if s == Full {
		chainLen = 256
		vecs = 40
	}
	const procs = 8
	const chains = 32
	const hotChains = 4
	b := circuit.NewBuilder()
	for ch := 0; ch < chains; ch++ {
		in := b.Input(fmt.Sprintf("in%d", ch))
		prev := in
		for g := 0; g < chainLen; g++ {
			prev = b.Gate(circuit.Not, fmt.Sprintf("c%dg%d", ch, g), prev)
		}
		b.Output(fmt.Sprintf("out%d", ch), prev)
	}
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	// Hot chains toggle every vector; cold chains only set their initial
	// value.
	var chs []vectors.Change
	for _, in := range c.Inputs {
		chs = append(chs, vectors.Change{Time: 0, Input: in, Value: logic.Zero})
	}
	period := circuit.Tick(4 * chainLen)
	for k := 1; k <= vecs; k++ {
		t := circuit.Tick(k) * period
		for i := 0; i < hotChains; i++ {
			chs = append(chs, vectors.Change{Time: t, Input: c.Inputs[i], Value: logic.FromBool(k%2 == 1)})
		}
	}
	stim := &vectors.Stimulus{Changes: chs, End: circuit.Tick(vecs) * period}
	stim.Sort()
	w := &workload{c: c, stim: stim, until: core.Horizon(c, stim)}
	base, err := baselineFor(w)
	if err != nil {
		return nil, err
	}
	m := defaultModel()
	seqTime := stats.SequentialTime(m,
		base.SeqWork.Evaluations, base.SeqWork.EventsApplied, base.SeqWork.EventsScheduled)
	t := &Table{
		ID:     "E5",
		Title:  "speedup vs LP granularity on a fixed 8-processor machine",
		Claim:  "the optimum granularity is somewhere between these two extremes",
		Header: []string{"LPs", "gates/LP", "tw-speedup", "proc-imbalance", "msgs/event"},
	}
	for _, lps := range []int{8, 16, 32, 64, 128, 256, 512} {
		if lps > c.NumGates()/2 {
			break
		}
		_, rep, err := speedupOf(w, base, core.Options{
			Engine: core.EngineTimeWarp, LPs: lps, Partition: partition.MethodContiguous,
		})
		if err != nil {
			return nil, err
		}
		procTime := make([]float64, procs)
		for i, lp := range rep.Stats.LPs {
			procTime[i%procs] += m.Busy(lp)
		}
		var worst, total float64
		for _, pt := range procTime {
			total += pt
			if pt > worst {
				worst = pt
			}
		}
		worst += float64(rep.Metrics.Globals.GVTRounds) * m.GVT(procs)
		imb := worst * float64(procs) / total
		tot := rep.Metrics.Counters()
		msgsPerEvent := 0.0
		if tot.EventsApplied > 0 {
			msgsPerEvent = float64(tot.MessagesSent) / float64(tot.EventsApplied)
		}
		t.Rows = append(t.Rows, []string{
			d(lps), d(c.NumGates() / lps), f2(stats.Speedup(seqTime, worst)), f2(imb), f2(msgsPerEvent),
		})
	}
	t.Notes = append(t.Notes, "few LPs: hot chains trapped per processor; many LPs: chain traffic becomes messages")
	return t, nil
}

// E6StateSaving compares Time Warp's state saving policies: "incremental
// state saving is crucial to achieving good performance with optimistic
// algorithms."
func E6StateSaving(s Scale) (*Table, error) {
	n := 1500
	vecs := 20
	if s == Full {
		n = 6000
		vecs = 40
	}
	c, err := sizedCircuit(n, 23, gen.Unit)
	if err != nil {
		return nil, err
	}
	w, err := randomWorkload(c, vecs, 40, 0.6, 23)
	if err != nil {
		return nil, err
	}
	base, err := baselineFor(w)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E6",
		Title:  "Time Warp state saving: incremental vs full copy (8 LPs)",
		Claim:  "incremental state saving is crucial to achieving good performance with optimistic algorithms",
		Header: []string{"policy", "saved-words", "words/step", "rollbacks", "speedup"},
	}
	for _, pol := range []struct {
		name string
		ss   timewarp.StateSaving
	}{{"incremental", timewarp.Incremental}, {"full-copy", timewarp.FullCopy}} {
		opts := core.Options{
			Engine: core.EngineTimeWarp, LPs: 8,
			Partition: partition.MethodFM, PartitionSeed: 5,
			StateSaving: pol.ss,
		}
		sp, rep, err := speedupOf(w, base, opts)
		if err != nil {
			return nil, err
		}
		tot := rep.Metrics.Counters()
		perStep := 0.0
		if tot.StateSaves > 0 {
			perStep = float64(tot.StateSavedWords) / float64(tot.StateSaves)
		}
		t.Rows = append(t.Rows, []string{
			pol.name, d(tot.StateSavedWords), f2(perStep), d(tot.Rollbacks), f2(sp),
		})
	}
	return t, nil
}

// E7Cancellation compares aggressive and lazy cancellation: "Gafni's lazy
// cancellation strategy reduces the impact of rollback ... if the right
// event had been calculated for the wrong reasons, the receiving processor
// is not inhibited."
func E7Cancellation(s Scale) (*Table, error) {
	n := 1200
	vecs := 20
	if s == Full {
		n = 5000
		vecs = 40
	}
	c, err := sizedCircuit(n, 29, gen.Unit)
	if err != nil {
		return nil, err
	}
	w, err := randomWorkload(c, vecs, 40, 0.6, 29)
	if err != nil {
		return nil, err
	}
	base, err := baselineFor(w)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E7",
		Title:  "Time Warp cancellation: aggressive vs lazy (8 LPs, random partition)",
		Claim:  "lazy cancellation waits to cancel the message until it is known that the wrong message had been sent",
		Header: []string{"policy", "rollbacks", "antis-sent", "events-undone", "speedup"},
	}
	// Random partitioning maximizes cross-LP traffic and rollback pressure,
	// where the cancellation policy matters.
	for _, eng := range []core.Engine{core.EngineTimeWarp, core.EngineTimeWarpLazy} {
		sp, rep, err := speedupOf(w, base, core.Options{
			Engine: eng, LPs: 8, Partition: partition.MethodRandom, PartitionSeed: 5,
		})
		if err != nil {
			return nil, err
		}
		tot := rep.Metrics.Counters()
		name := "aggressive"
		if eng == core.EngineTimeWarpLazy {
			name = "lazy"
		}
		t.Rows = append(t.Rows, []string{
			name, d(tot.Rollbacks), d(tot.AntiMessagesSent), d(tot.EventsRolledBack), f2(sp),
		})
	}
	return t, nil
}

// E8NullMessages measures conservative synchronization overheads: null
// traffic per committed event for the eager and demand protocols, the
// global-quiescence cost of deadlock recovery, and the lookahead effect.
func E8NullMessages(s Scale) (*Table, error) {
	n := 1200
	vecs := 20
	if s == Full {
		n = 5000
		vecs = 40
	}
	t := &Table{
		ID:     "E8",
		Title:  "conservative variants: null traffic and lookahead (8 LPs)",
		Claim:  "deadlock prevention is usually accomplished via null messages ... deadlock detection via circulating marker algorithms",
		Header: []string{"delays", "variant", "nulls", "nulls/event", "wall ms", "speedup"},
	}
	for _, delays := range []struct {
		name string
		spec gen.DelaySpec
	}{{"unit", gen.Unit}, {"fine(1..10)", gen.Fine(10, 31)}} {
		c, err := sizedCircuit(n, 31, delays.spec)
		if err != nil {
			return nil, err
		}
		w, err := randomWorkload(c, vecs, 40, 0.5, 31)
		if err != nil {
			return nil, err
		}
		base, err := baselineFor(w)
		if err != nil {
			return nil, err
		}
		for _, eng := range []core.Engine{core.EngineCMB, core.EngineCMBDemand, core.EngineCMBDetect} {
			sp, rep, err := speedupOf(w, base, core.Options{
				Engine: eng, LPs: 8, Partition: partition.MethodFM, PartitionSeed: 7,
			})
			if err != nil {
				return nil, err
			}
			tot := rep.Metrics.Counters()
			perEvent := 0.0
			if tot.EventsApplied > 0 {
				perEvent = float64(tot.NullsSent) / float64(tot.EventsApplied)
			}
			t.Rows = append(t.Rows, []string{
				delays.name, eng.String(), d(tot.NullsSent), f2(perEvent),
				f2(float64(rep.Stats.Wall.Microseconds()) / 1e3), f2(sp),
			})
		}
	}
	t.Notes = append(t.Notes, "larger delays mean larger lookahead: fewer nulls per unit of simulated time",
		"speedup is modeled; wall ms is this host's clock for the one run (noisy, host-dependent)")
	return t, nil
}

// E9TimingGranularity tests the closing synthesis of Section VI: "for
// coarse timing granularity a synchronous algorithm is sufficient and for
// fine timing granularity an optimistic asynchronous algorithm is needed."
func E9TimingGranularity(s Scale) (*Table, error) {
	n := 1500
	vecs := 20
	if s == Full {
		n = 6000
		vecs = 40
	}
	t := &Table{
		ID:     "E9",
		Title:  "engines under coarse (unit) and fine (random 1..16) delays, 8 LPs",
		Claim:  "for coarse timing granularity a synchronous algorithm is sufficient and for fine timing granularity an optimistic asynchronous algorithm is needed",
		Header: []string{"delays", "events/timestep", "sync", "cmb", "timewarp"},
	}
	for _, delays := range []struct {
		name string
		spec gen.DelaySpec
	}{{"unit", gen.Unit}, {"fine(1..16)", gen.Fine(16, 37)}} {
		c, err := sizedCircuit(n, 37, delays.spec)
		if err != nil {
			return nil, err
		}
		w, err := randomWorkload(c, vecs, 50, 0.5, 37)
		if err != nil {
			return nil, err
		}
		base, err := baselineFor(w)
		if err != nil {
			return nil, err
		}
		simult := 0.0
		if base.SeqWork.Steps > 0 {
			simult = float64(base.SeqWork.EventsApplied) / float64(base.SeqWork.Steps)
		}
		row := []string{delays.name, f2(simult)}
		for _, eng := range []core.Engine{core.EngineSync, core.EngineCMB, core.EngineTimeWarp} {
			sp, _, err := speedupOf(w, base, core.Options{
				Engine: eng, LPs: 8, Partition: partition.MethodFM, PartitionSeed: 9,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, f2(sp))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "events/timestep is the event simultaneity coarse granularity buys the synchronous algorithm")
	return t, nil
}

// E10PreSimulation tests the pre-simulation workload estimation proposal:
// measured evaluation frequencies as partitioner weights.
func E10PreSimulation(s Scale) (*Table, error) {
	hot, cold := 400, 400
	cycles := 30
	if s == Full {
		hot, cold = 2000, 2000
		cycles = 60
	}
	// A deliberately skewed circuit: a hot half toggling every vector and
	// a cold half that almost never switches.
	b := circuit.NewBuilder()
	var hotIn, coldIn []circuit.GateID
	for i := 0; i < 8; i++ {
		hotIn = append(hotIn, b.Input(fmt.Sprintf("h%d", i)))
	}
	for i := 0; i < 8; i++ {
		coldIn = append(coldIn, b.Input(fmt.Sprintf("c%d", i)))
	}
	prev := hotIn[0]
	for i := 0; i < hot; i++ {
		prev = b.Gate(circuit.Xor, fmt.Sprintf("hx%d", i), prev, hotIn[i%8])
	}
	b.Output("hot", prev)
	prevC := coldIn[0]
	for i := 0; i < cold; i++ {
		prevC = b.Gate(circuit.And, fmt.Sprintf("cx%d", i), prevC, coldIn[i%8])
	}
	b.Output("cold", prevC)
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	var chs []vectors.Change
	for _, in := range c.Inputs {
		chs = append(chs, vectors.Change{Time: 0, Input: in, Value: logic.Zero})
	}
	for k := 1; k <= cycles; k++ {
		tck := circuit.Tick(k) * 2000
		for i, in := range c.Inputs {
			if i < 8 {
				chs = append(chs, vectors.Change{Time: tck, Input: in, Value: logic.FromBool(k%2 == 1)})
			}
		}
	}
	stim := &vectors.Stimulus{Changes: chs, End: circuit.Tick(cycles) * 2000}
	stim.Sort()
	w := &workload{c: c, stim: stim, until: core.Horizon(c, stim)}
	base, err := baselineFor(w)
	if err != nil {
		return nil, err
	}
	profile, err := core.PreSimulate(c, stim, w.until, logic.TwoValued)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E10",
		Title:  "pre-simulation workload weights vs structural weights (4 LPs, FM)",
		Claim:  "the simulation is run for a period of time and the evaluation frequency of each gate is measured ... it has proven successful when using random test vectors",
		Header: []string{"weights", "load-imbalance", "sync-speedup"},
	}
	for _, wt := range []struct {
		name    string
		weights partition.Weights
	}{{"uniform", nil}, {"pre-simulated", profile}} {
		p, err := partition.New(partition.MethodFM, c, 4, partition.Options{Weights: wt.weights, Seed: 11})
		if err != nil {
			return nil, err
		}
		sp, _, err := speedupOf(w, base, core.Options{
			Engine: core.EngineSync, LPs: 4, Partition: partition.MethodFM,
			PartitionSeed: 11, Weights: wt.weights,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			wt.name, f2(p.Imbalance(profile)), f2(sp),
		})
	}
	t.Notes = append(t.Notes, "load-imbalance is judged under the measured activity weights in both rows")
	return t, nil
}

// E11Variance tests the stability observation: "one problem that is of
// concern with the optimistic asynchronous algorithms is inconsistency in
// performance ... seemingly small variations in circumstances can trigger
// dramatic swings ... The synchronous algorithm does not seem to be prone
// to this type of behavior."
//
// Each engine runs the identical circuit, stimulus, and partition several
// times. The synchronous and conservative engines perform exactly the same
// work every run (their counters are deterministic); Time Warp's rollback
// behaviour depends on runtime scheduling, so its modeled time moves from
// run to run — the instability the paper describes, isolated from every
// other variable.
func E11Variance(s Scale) (*Table, error) {
	n := 1000
	vecs := 15
	reps := 6
	if s == Full {
		n = 4000
		vecs = 30
		reps = 12
	}
	c, err := sizedCircuit(n, 41, gen.Unit)
	if err != nil {
		return nil, err
	}
	w, err := randomWorkload(c, vecs, 40, 0.5, 500)
	if err != nil {
		return nil, err
	}
	base, err := baselineFor(w)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E11",
		Title:  "speedup stability across repeated identical runs (8 LPs)",
		Claim:  "seemingly small variations in circumstances can trigger dramatic swings in [optimistic] performance results",
		Header: []string{"engine", "runs", "mean", "stddev", "cv", "min", "max", "rollback-range"},
	}
	for _, eng := range []core.Engine{core.EngineSync, core.EngineCMB, core.EngineTimeWarp} {
		var sps []float64
		minRB, maxRB := uint64(1<<62), uint64(0)
		for r := 0; r < reps; r++ {
			sp, rep, err := speedupOf(w, base, core.Options{
				Engine: eng, LPs: 8, Partition: partition.MethodRandom, PartitionSeed: 9,
			})
			if err != nil {
				return nil, err
			}
			sps = append(sps, sp)
			rb := rep.Metrics.Counters().Rollbacks
			if rb < minRB {
				minRB = rb
			}
			if rb > maxRB {
				maxRB = rb
			}
		}
		mean, sd, min, max := summarize(sps)
		cv := 0.0
		if mean > 0 {
			cv = sd / mean
		}
		t.Rows = append(t.Rows, []string{
			eng.String(), d(reps), f2(mean), f2(sd), f2(cv), f2(min), f2(max),
			fmt.Sprintf("%d..%d", minRB, maxRB),
		})
	}
	return t, nil
}

// summarize computes mean, standard deviation, min, and max.
func summarize(xs []float64) (mean, sd, min, max float64) {
	if len(xs) == 0 {
		return 0, 0, 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs {
		mean += x
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	sd = math.Sqrt(sd / float64(len(xs)))
	return mean, sd, min, max
}

// E12Hybrid compares hierarchical synchronization with the flat engines at
// the same total processor count.
func E12Hybrid(s Scale) (*Table, error) {
	n := 2000
	vecs := 20
	if s == Full {
		n = 8000
		vecs = 40
	}
	c, err := sizedCircuit(n, 43, gen.Unit)
	if err != nil {
		return nil, err
	}
	w, err := randomWorkload(c, vecs, 40, 0.5, 43)
	if err != nil {
		return nil, err
	}
	base, err := baselineFor(w)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E12",
		Title:  "hybrid (4 clusters x 4 workers) vs flat engines at 16 processors",
		Claim:  "hierarchical synchronization ... appears especially attractive for naturally hierarchical execution platforms",
		Header: []string{"configuration", "processors", "speedup"},
	}
	add := func(name string, opts core.Options) error {
		sp, rep, err := speedupOf(w, base, opts)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{name, d(rep.Processors), f2(sp)})
		return nil
	}
	if err := add("sync-16", core.Options{Engine: core.EngineSync, LPs: 16, Partition: partition.MethodFM, PartitionSeed: 13}); err != nil {
		return nil, err
	}
	if err := add("timewarp-16", core.Options{Engine: core.EngineTimeWarp, LPs: 16, Partition: partition.MethodFM, PartitionSeed: 13}); err != nil {
		return nil, err
	}
	if err := add("timewarp-4", core.Options{Engine: core.EngineTimeWarp, LPs: 4, Partition: partition.MethodFM, PartitionSeed: 13}); err != nil {
		return nil, err
	}
	if err := add("hybrid-4x4", core.Options{Engine: core.EngineHybrid, LPs: 4, IntraWorkers: 4, Partition: partition.MethodFM, PartitionSeed: 13}); err != nil {
		return nil, err
	}
	return t, nil
}

// E13FaultParallel demonstrates data parallelism on fault simulation.
func E13FaultParallel(s Scale) (*Table, error) {
	bits := 4
	vecs := 15
	if s == Full {
		bits = 6
		vecs = 30
	}
	c, err := gen.ArrayMultiplier(bits, gen.Unit)
	if err != nil {
		return nil, err
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: vecs, Period: 60, Activity: 0.5, Seed: 47})
	if err != nil {
		return nil, err
	}
	until := core.Horizon(c, stim)
	faults := fault.Collapse(c, fault.Universe(c))
	t := &Table{
		ID:     "E13",
		Title:  fmt.Sprintf("fault simulation of a %dx%d multiplier (%d collapsed faults)", bits, bits, len(faults)),
		Claim:  "data parallelism ... is quite effective for fault simulation, where a large number of independent input vectors need to be simulated",
		Header: []string{"workers", "coverage", "wall", "modeled-speedup"},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		res, wall, err := timedFaultRun(c, stim, until, faults, workers)
		if err != nil {
			return nil, err
		}
		// Data-parallel modeled speedup: independent equal-cost faults
		// divided round-robin across workers.
		modeled := float64(len(faults)) / math.Ceil(float64(len(faults))/float64(workers))
		t.Rows = append(t.Rows, []string{
			d(workers), f2(res.Coverage), wall, f2(modeled),
		})
	}
	t.Notes = append(t.Notes, "wall time reflects the host core count; modeled speedup assumes independent equal-cost faults")
	return t, nil
}

// E14EventQueues compares the pending-event set structures under the
// sequential engine (the "event queue management" overhead of Section II).
func E14EventQueues(s Scale) (*Table, error) {
	n := 2000
	vecs := 25
	if s == Full {
		n = 8000
		vecs = 50
	}
	t := &Table{
		ID:     "E14",
		Title:  "pending-event set implementations (sequential engine)",
		Claim:  "algorithm parallelism ... event queue management [is one of the serial bottleneck steps]",
		Header: []string{"queue", "delays", "events", "wall", "events/ms"},
	}
	for _, delays := range []struct {
		name string
		spec gen.DelaySpec
	}{{"unit", gen.Unit}, {"fine(1..16)", gen.Fine(16, 53)}} {
		c, err := sizedCircuit(n, 53, delays.spec)
		if err != nil {
			return nil, err
		}
		w, err := randomWorkload(c, vecs, 40, 0.6, 53)
		if err != nil {
			return nil, err
		}
		for _, q := range []struct {
			name string
			impl int
		}{{"heap", 0}, {"calendar", 1}, {"wheel", 2}} {
			events, wall, rate, err := timedSeqRun(w, q.impl)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{q.name, delays.name, d(events), wall, f2(rate)})
		}
	}
	return t, nil
}

// timedSeqRun measures one sequential run with the given queue impl.
func timedSeqRun(w *workload, impl int) (uint64, string, float64, error) {
	start := nowf()
	res, err := seq.Run(w.c, w.stim, w.until, seq.Config{
		System: logic.TwoValued, Queue: eventqImpl(impl),
	})
	if err != nil {
		return 0, "", 0, err
	}
	el := nowf() - start
	events := res.Counters.EventsApplied + res.Counters.EventsScheduled
	rate := float64(events) / (el * 1000)
	return events, fmt.Sprintf("%.1fms", el*1000), rate, nil
}
