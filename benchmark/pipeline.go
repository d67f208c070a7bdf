package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/eventq"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/partition"
	"repro/internal/sim/cmb"
	"repro/internal/sim/seq"
	simsync "repro/internal/sim/sync"
	"repro/internal/sim/timewarp"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// This file is an in-process replica of cmd/parsim/main.go: the same
// public functions in the same order, with a span around each. parsim
// reports no phase split of its own, so this is how set-up and the layers
// are seen from outside. The replica is kept honest by the golden check:
// its VCD must equal the binary's byte for byte.

// prepared is what cmd/parsim holds when it first calls into an engine.
type prepared struct {
	c      *circuit.Circuit
	loaded int        // gates bench.Read returned, before the optimizer
	ostats *opt.Stats // nil without -opt
	stim   *vectors.Stimulus
	wstim  *vectors.WideStimulus // -wide only
	until  circuit.Tick
	part   *partition.Partition // nil for the serial engines and under -dist
}

// prepare is everything cmd/parsim does before its first call into an
// engine or dist.Run: load, optimize, stimulus, partition. Its duration
// with a nil recorder is the setup_s metric.
func (w workload) prepare(rec *recorder, benchPath string, seed int64) (*prepared, error) {
	p := &prepared{}
	err := rec.do("load", func() error {
		f, err := os.Open(benchPath)
		if err != nil {
			return err
		}
		defer f.Close()
		p.c, err = bench.Read(f)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	p.loaded = p.c.NumGates()

	if w.opt {
		err := rec.do("opt", func() error {
			passes, err := opt.ParsePasses("")
			if err != nil {
				return err
			}
			res, err := opt.Optimize(p.c, opt.Options{Passes: passes})
			if err != nil {
				return err
			}
			p.c, p.ostats = res.Circuit, &res.Stats
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("opt: %w", err)
		}
	}

	err = rec.do("stim", func() error {
		var err error
		if p.stim, err = makeStimulus(p.c, w, seed); err != nil {
			return err
		}
		p.until = core.Horizon(p.c, p.stim)
		if w.wide {
			// parsim builds the scalar stimulus first, then the wide one.
			if p.wstim, err = makeWideStimulus(p.c, w, seed); err != nil {
				return err
			}
			p.until = core.WideHorizon(p.c, p.wstim)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("stimulus: %w", err)
	}

	// Under -dist the hub and every worker partition inside dist.Run.
	if w.lps > 0 && !w.dist {
		err := rec.do("partition", func() error {
			var err error
			p.part, err = w.buildPartition(p.c, seed)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("partition: %w", err)
		}
	}
	return p, nil
}

// buildPartition mirrors core.buildPartition for the flags the workloads
// use.
func (w workload) buildPartition(c *circuit.Circuit, seed int64) (*partition.Partition, error) {
	if w.coneSplit {
		part, _ := partition.ConeSplit(c, w.lps, partition.WeightsUniform(c))
		return part, part.Validate(c)
	}
	return partition.New(partition.MethodFM, c, w.lps, partition.Options{Seed: seed})
}

// clockInput names the circuit's clock input, if it has one; parsim then
// drives clocked stimulus, -vectors cycles long.
func clockInput(c *circuit.Circuit) (string, bool) {
	for _, clk := range []string{"clk", "CLK", "__CLK"} {
		if id, ok := c.ByName(clk); ok && c.Gate(id).Kind == circuit.Input {
			return clk, true
		}
	}
	return "", false
}

func makeStimulus(c *circuit.Circuit, w workload, seed int64) (*vectors.Stimulus, error) {
	if clk, ok := clockInput(c); ok {
		return vectors.Clocked(c, w.clockedConfig(clk, seed))
	}
	return vectors.Random(c, w.randomConfig(seed))
}

func makeWideStimulus(c *circuit.Circuit, w workload, seed int64) (*vectors.WideStimulus, error) {
	if clk, ok := clockInput(c); ok {
		ws, _, err := vectors.ClockedBatch(c, w.clockedConfig(clk, seed), logic.Lanes, w.system())
		return ws, err
	}
	ws, _, err := vectors.RandomBatch(c, w.randomConfig(seed), logic.Lanes, w.system())
	return ws, err
}

func (w workload) clockedConfig(clk string, seed int64) vectors.ClockedConfig {
	return vectors.ClockedConfig{Clock: clk, Cycles: w.vectors, HalfPeriod: period, Activity: w.activity, Seed: seed}
}

func (w workload) randomConfig(seed int64) vectors.RandomConfig {
	return vectors.RandomConfig{Vectors: w.vectors, Period: period, Activity: w.activity, Seed: seed}
}

// outcome is what a run leaves behind: the waveform of the primary
// outputs and the counters the engine (or dist.Run) reported.
type outcome struct {
	wave     trace.Waveform
	wideWave trace.WideWaveform // -wide only; lane 0 goes to the VCD
	counters metrics.LPCounters
	gauges   map[string]float64 // dist.Run's registry gauges
}

// simulate calls the engine's public Run with the prebuilt partition, as
// core.Simulate does, or dist.Run with the options cmd/parsim passes.
func (w workload) simulate(p *prepared, benchPath, distDir string, seed int64) (*outcome, error) {
	sys, queue := w.system(), eventq.ImplHeap
	switch {
	case w.dist:
		reg := metrics.NewRegistry(w.engine + "-dist")
		res, err := dist.Run(dist.Options{
			Shards: 2, Engine: w.engine, Bench: benchPath, Seed: seed,
			Vectors: w.vectors, Activity: w.activity, Period: period, Until: uint64(p.until),
			LPs: w.lps, Partition: "fm", PartitionSeed: seed, System: sys,
			CheckpointEvery: w.checkpointEvery(), WorkDir: distDir,
			Restarts: 2, Fallback: true, HeartbeatTimeout: time.Second, Network: "tcp",
			Mesh: true, CkptDelta: true, Spawn: dist.InProcSpawner{}, Metrics: reg,
		})
		if err != nil {
			return nil, err
		}
		if res.FinalMode != "dist" {
			return nil, fmt.Errorf("dist run degraded to %s: %s", res.FinalMode, res.Degraded)
		}
		// dist.Run reports committed net changes and nothing finer.
		return &outcome{wave: res.Waveform, counters: metrics.LPCounters{EventsApplied: res.Events},
			gauges: reg.Report().Gauges}, nil
	case w.wide:
		res, err := seq.RunWide(p.c, p.wstim, p.until, seq.WideConfig{
			System: sys, Queue: queue, Metrics: metrics.NewRegistry("seq-wide")})
		if err != nil {
			return nil, err
		}
		return &outcome{wideWave: res.Waveform, counters: res.Counters}, nil
	}
	reg := metrics.NewRegistry(w.engine)
	switch w.engine {
	case "seq":
		res, err := seq.Run(p.c, p.stim, p.until, seq.Config{System: sys, Queue: queue, Metrics: reg})
		if err != nil {
			return nil, err
		}
		return &outcome{wave: res.Waveform, counters: res.Counters}, nil
	case "sync":
		res, err := simsync.Run(p.c, p.stim, p.until, simsync.Config{
			Partition: p.part, System: sys, Queue: queue, Metrics: reg})
		if err != nil {
			return nil, err
		}
		return &outcome{wave: res.Waveform, counters: res.Stats.Total()}, nil
	case "cmb":
		res, err := cmb.Run(p.c, p.stim, p.until, cmb.Config{
			Partition: p.part, Mode: cmb.NullEager, System: sys, Queue: queue, Metrics: reg, Sweep: w.coneSplit})
		if err != nil {
			return nil, err
		}
		return &outcome{wave: res.Waveform, counters: res.Stats.Total()}, nil
	case "timewarp":
		res, err := timewarp.Run(p.c, p.stim, p.until, timewarp.Config{
			Partition: p.part, System: sys, Queue: queue, Metrics: reg, Sweep: w.coneSplit})
		if err != nil {
			return nil, err
		}
		return &outcome{wave: res.Waveform, counters: res.Stats.Total()}, nil
	}
	return nil, fmt.Errorf("workload %s: no in-process path for engine %q", w.name, w.engine)
}

// writeVCD writes the primary outputs' waveform as parsim's -vcd does.
func writeVCD(path string, p *prepared, out *outcome, sys logic.System) error {
	wf := out.wave
	if out.wideWave != nil {
		wf = out.wideWave.Lane(0, func(g circuit.GateID) logic.Value {
			return sys.Project(circuit.InitialValue(p.c.Gates[g].Kind))
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteVCD(f, p.c, p.c.Outputs, wf, "1ns"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPass runs the whole pipeline once under a root span and returns
// the layer metrics read off its spans and counters, keyed by the names
// in perLayer. The VCD is left at vcdPath for the golden check.
func (w workload) tracedPass(rec *recorder, benchPath, vcdPath, distDir string, seed int64) (map[string]float64, error) {
	rec.workload = w.name
	root := rec.begin("run")
	p, out, err := w.runSpans(rec, benchPath, vcdPath, distDir, seed)
	rec.end()
	if err != nil {
		return nil, err
	}

	m := map[string]float64{}
	self := rec.selfTimes()
	for i := root + 1; i < len(rec.spans); i++ {
		if rec.spans[i].parent == root {
			m[rec.spans[i].name+"_s"] = self[i].Seconds()
		}
	}
	m["traced_total_s"] = (rec.spans[root].end - rec.spans[root].start).Seconds()
	m["unattributed_s"] = self[root].Seconds()
	if m["load_s"] > 0 {
		m["load_gates_per_s"] = float64(p.loaded) / m["load_s"]
	}
	if p.ostats != nil {
		m["opt_gates_removed"] = float64(p.ostats.GatesRemoved)
		m["opt_levels_after"] = float64(p.ostats.LevelsAfter)
	}
	part := p.part
	if w.dist {
		// The partition the hub and the workers each rebuild; timed
		// nowhere, counted here.
		if part, err = w.buildPartition(p.c, seed); err != nil {
			return nil, err
		}
	}
	if part != nil {
		m["partition_cut_links"] = float64(part.CutLinks(p.c))
		m["partition_imbalance"] = part.Imbalance(partition.WeightsUniform(p.c))
	}
	ct := out.counters
	m["evals"] = float64(ct.Evaluations)
	m["events_applied"] = float64(ct.EventsApplied)
	m["messages_sent"] = float64(ct.MessagesSent)
	if ct.EventsApplied > 0 {
		m["ns_per_event"] = m["sim_s"] * 1e9 / float64(ct.EventsApplied)
		m["rollback_waste"] = float64(ct.EventsRolledBack) / float64(ct.EventsApplied)
	}
	if ct.MessagesSent > 0 {
		m["null_ratio"] = float64(ct.NullsSent) / float64(ct.MessagesSent)
	}
	m["dist_mesh_bytes"] = out.gauges["mesh_bytes"]
	m["dist_hub_bytes"] = out.gauges["hub_bytes"]
	m["ckpt_full_bytes"] = out.gauges["ckpt_full_bytes"]
	m["ckpt_delta_bytes"] = out.gauges["ckpt_delta_bytes"]
	return m, nil
}

// runSpans is the body of the root span: set-up, simulate, emit VCD.
func (w workload) runSpans(rec *recorder, benchPath, vcdPath, distDir string, seed int64) (*prepared, *outcome, error) {
	p, err := w.prepare(rec, benchPath, seed)
	if err != nil {
		return nil, nil, err
	}
	if !w.dist {
		// parsim computes the structure statistics here even under -q.
		// No span: the cost shows as unattributed time.
		p.c.ComputeStats()
	}
	var out *outcome
	err = rec.do("sim", func() error {
		var err error
		out, err = w.simulate(p, benchPath, distDir, seed)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("simulate: %w", err)
	}
	err = rec.do("vcd", func() error { return writeVCD(vcdPath, p, out, w.system()) })
	if err != nil {
		return nil, nil, fmt.Errorf("vcd: %w", err)
	}
	return p, out, nil
}
