// Package fault implements single-stuck-at fault simulation.
//
// The paper's taxonomy of parallelism notes that data parallelism —
// different processors simulating distinct inputs — "is quite effective
// for fault simulation, where a large number of independent input vectors
// [and faults] need to be simulated". This package provides the workload:
// a stuck-at fault universe with simple structural collapsing, a serial
// fault simulator built on the sequential engine, and a data-parallel
// runner that fans the fault list out across goroutines. Experiment E13
// compares the two.
package fault

import (
	"fmt"
	"sort"
	gosync "sync"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/sim/seq"
	"repro/internal/sim/supervise"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// Fault is a single stuck-at fault on a gate's output net.
type Fault struct {
	Gate    circuit.GateID
	StuckAt logic.Value // logic.Zero or logic.One
}

// String renders the conventional "net/sa0" form.
func (f Fault) String() string {
	sa := "sa0"
	if f.StuckAt == logic.One {
		sa = "sa1"
	}
	return fmt.Sprintf("%d/%s", f.Gate, sa)
}

// Universe enumerates both stuck-at faults on every fault site: all gate
// output nets except constants and output markers (whose faults are
// equivalent to faults on their driving nets).
func Universe(c *circuit.Circuit) []Fault {
	var out []Fault
	for id := range c.Gates {
		switch c.Gates[id].Kind {
		case circuit.Const0, circuit.Const1, circuit.ConstX, circuit.Output:
			continue
		}
		out = append(out,
			Fault{circuit.GateID(id), logic.Zero},
			Fault{circuit.GateID(id), logic.One},
		)
	}
	return out
}

// Collapse removes faults that are structurally equivalent to a fault on
// their (sole) fanin: a buffer's stuck-at-v collapses onto its input's
// stuck-at-v, an inverter's onto its input's stuck-at-(not v). This is the
// classic cheap equivalence collapsing; it typically removes the
// buffer/inverter share of the universe.
func Collapse(c *circuit.Circuit, faults []Fault) []Fault {
	// representative follows Buf/Not chains down to a canonical site.
	var canon func(f Fault) Fault
	canon = func(f Fault) Fault {
		g := c.Gate(f.Gate)
		switch g.Kind {
		case circuit.Buf, circuit.Output:
			return canon(Fault{g.Fanin[0], f.StuckAt})
		case circuit.Not:
			inv := logic.Zero
			if f.StuckAt == logic.Zero {
				inv = logic.One
			}
			return canon(Fault{g.Fanin[0], inv})
		}
		return f
	}
	seen := map[Fault]bool{}
	var out []Fault
	for _, f := range faults {
		cf := canon(f)
		if !seen[cf] {
			seen[cf] = true
			out = append(out, cf)
		}
	}
	return out
}

// Detection records where a fault first became observable.
type Detection struct {
	Fault Fault
	// Time is the first simulated time at which a primary output diverged
	// from the good circuit.
	Time circuit.Tick
}

// Result summarizes a fault simulation campaign.
type Result struct {
	Total      int
	Detected   int
	Coverage   float64
	Detections []Detection
	// GoodStats are the work counters of the fault-free reference run.
	GoodStats metrics.LPCounters
}

// Config parameterizes a campaign.
type Config struct {
	// Workers is the data-parallel fan-out; 1 is the serial baseline.
	Workers int
	// System is the logic value system (two-valued is customary for fault
	// grading).
	System logic.System
	// MaxEvents bounds each faulty-circuit run.
	MaxEvents uint64
}

// check rejects a fault list the graders cannot honour: a site outside
// the circuit, or a stuck value other than 0 or 1.
func check(c *circuit.Circuit, faults []Fault) error {
	for _, f := range faults {
		if f.Gate < 0 || int(f.Gate) >= c.NumGates() {
			return fmt.Errorf("fault: %v: gate %d outside the circuit's %d gates", f, f.Gate, c.NumGates())
		}
		if f.StuckAt != logic.Zero && f.StuckAt != logic.One {
			return fmt.Errorf("fault: gate %d stuck at %v: only stuck-at-0 and stuck-at-1 are graded", f.Gate, f.StuckAt)
		}
	}
	return nil
}

// Run grades the given faults under the stimulus.
func Run(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, faults []Fault, cfg Config) (*Result, error) {
	if err := check(c, faults); err != nil {
		return nil, err
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.System == 0 {
		cfg.System = logic.TwoValued
	}
	seqCfg := seq.Config{System: cfg.System, MaxEvents: cfg.MaxEvents}
	good, err := seq.Run(c, stim, until, seqCfg)
	if err != nil {
		return nil, fmt.Errorf("fault: good-circuit run: %w", err)
	}
	strobes := strobeTimes(stim, until)
	init := cfg.System.Project(logic.U)
	goodSamples := sampleAt(good.Waveform, c.Outputs, strobes, init)

	type verdict struct {
		idx      int
		detected bool
		at       circuit.Tick
		err      error
	}
	verdicts := make([]verdict, len(faults))
	var wg gosync.WaitGroup
	work := make(chan int)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range work {
				// Recover per item: a panic on one fault must not kill the
				// worker (which would starve the feeder) or the campaign.
				func(i int) {
					defer func() {
						if r := recover(); r != nil {
							verdicts[i] = verdict{idx: i, err: supervise.FromPanic("seq", w, "fault", 0, r)}
						}
					}()
					fc, fstim, err := inject(c, stim, faults[i])
					if err != nil {
						verdicts[i] = verdict{idx: i, err: err}
						return
					}
					res, err := seq.Run(fc, fstim, until, seqCfg)
					if err != nil {
						verdicts[i] = verdict{idx: i, err: err}
						return
					}
					badSamples := sampleAt(res.Waveform, c.Outputs, strobes, init)
					at, det := firstDivergence(strobes, goodSamples, badSamples)
					verdicts[i] = verdict{idx: i, detected: det, at: at}
				}(i)
			}
		}(w)
	}
	for i := range faults {
		work <- i
	}
	close(work)
	wg.Wait()

	out := &Result{Total: len(faults), GoodStats: good.Counters}
	for i, v := range verdicts {
		if v.err != nil {
			return nil, fmt.Errorf("fault %v: %w", faults[i], v.err)
		}
		if v.detected {
			out.Detected++
			out.Detections = append(out.Detections, Detection{Fault: faults[i], Time: v.at})
		}
	}
	sort.Slice(out.Detections, func(a, b int) bool {
		if out.Detections[a].Time != out.Detections[b].Time {
			return out.Detections[a].Time < out.Detections[b].Time
		}
		return out.Detections[a].Fault.Gate < out.Detections[b].Fault.Gate
	})
	if out.Total > 0 {
		out.Coverage = float64(out.Detected) / float64(out.Total)
	}
	return out, nil
}

// inject builds the faulty circuit: the faulted gate is replaced by a
// constant driving the stuck value. Faulting a primary input also removes
// it from the input list and the stimulus.
func inject(c *circuit.Circuit, stim *vectors.Stimulus, f Fault) (*circuit.Circuit, *vectors.Stimulus, error) {
	gates := make([]circuit.Gate, len(c.Gates))
	copy(gates, c.Gates)
	fg := &gates[f.Gate]
	faultedInput := fg.Kind == circuit.Input
	if f.StuckAt == logic.One {
		fg.Kind = circuit.Const1
	} else {
		fg.Kind = circuit.Const0
	}
	fg.Fanin = nil

	inputs := c.Inputs
	if faultedInput {
		inputs = make([]circuit.GateID, 0, len(c.Inputs)-1)
		for _, in := range c.Inputs {
			if in != f.Gate {
				inputs = append(inputs, in)
			}
		}
	}
	fc, err := circuit.New(gates, inputs, c.Outputs)
	if err != nil {
		return nil, nil, err
	}
	if !faultedInput {
		return fc, stim, nil
	}
	fs := &vectors.Stimulus{End: stim.End}
	for _, ch := range stim.Changes {
		if ch.Input != f.Gate {
			fs.Changes = append(fs.Changes, ch)
		}
	}
	return fc, fs, nil
}

// strobeTimes lists the observation instants: just before each vector
// boundary after the first, and the simulation horizon. Strobing settled
// values (rather than diffing full waveforms) is the standard fault-
// grading discipline — it ignores transient glitch differences, so
// logically redundant faults stay undetected.
func strobeTimes(stim *vectors.Stimulus, until circuit.Tick) []circuit.Tick {
	var strobes []circuit.Tick
	var last circuit.Tick
	have := false
	for _, ch := range stim.Changes {
		if !have || ch.Time != last {
			if have && ch.Time > 0 {
				strobes = append(strobes, ch.Time-1)
			}
			last = ch.Time
			have = true
		}
	}
	strobes = append(strobes, until)
	return strobes
}

// sampleAt reconstructs the values of the given gates at each strobe time
// from a change waveform, in one pass.
func sampleAt(wf trace.Waveform, gates []circuit.GateID, strobes []circuit.Tick, initial logic.Value) [][]logic.Value {
	cur := map[circuit.GateID]logic.Value{}
	for _, g := range gates {
		cur[g] = initial
	}
	out := make([][]logic.Value, len(strobes))
	wi := 0
	for si, st := range strobes {
		for wi < len(wf) && wf[wi].Time <= st {
			if _, ok := cur[wf[wi].Gate]; ok {
				cur[wf[wi].Gate] = wf[wi].Value
			}
			wi++
		}
		row := make([]logic.Value, len(gates))
		for i, g := range gates {
			row[i] = cur[g]
		}
		out[si] = row
	}
	return out
}

// firstDivergence compares strobe samples and returns the earliest strobe
// at which the faulty circuit's outputs disagree with the good circuit's.
func firstDivergence(strobes []circuit.Tick, good, bad [][]logic.Value) (circuit.Tick, bool) {
	for si := range strobes {
		for i := range good[si] {
			if good[si][i] != bad[si][i] {
				return strobes[si], true
			}
		}
	}
	return 0, false
}
