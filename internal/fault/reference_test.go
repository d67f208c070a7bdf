package fault

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	gosync "sync"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim/seq"
	"repro/internal/sim/supervise"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// runReference is the serial grader Run replaced, kept as the oracle the
// lane grader is held to: a separate good-circuit run, then for every
// fault inject builds the faulty circuit and a scalar seq.Run grades it.
// It is the earlier code verbatim, except that the two settings Config no
// longer has are fixed in place (two-valued, no event limit), the result
// carries no good-circuit counters, and one amendment: the earlier code
// read a stuck-at-1 Output marker as 0, since its faulty run never
// records the constant.
func runReference(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, faults []Fault, cfg Config) (*Result, error) {
	if err := check(c, faults); err != nil {
		return nil, err
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	system := logic.TwoValued
	// Every run watches the good circuit's outputs: a faulted Output
	// marker leaves the faulty circuit's output list but is still sampled.
	seqCfg := seq.Config{System: system, Watch: c.Outputs}
	good, err := seq.Run(c, stim, until, seqCfg)
	if err != nil {
		return nil, fmt.Errorf("fault: good-circuit run: %w", err)
	}
	strobes := strobeTimes(stim, until)
	init := system.Project(logic.U)
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
					// Amended: a stuck Output marker is a constant the faulty
					// run never records, so sampleAt reads it as init; it
					// reads its stuck value.
					if o := slices.Index(c.Outputs, faults[i].Gate); o >= 0 {
						for _, row := range badSamples {
							row[o] = faults[i].StuckAt
						}
					}
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

	out := &Result{Total: len(faults)}
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

// records lists c's gates as records, each fanin its own copy, for the
// tests to edit and rebuild with fromRecords.
func records(c *circuit.Circuit) []circuit.Gate {
	gates := make([]circuit.Gate, len(c.Kinds))
	for id := range gates {
		g := circuit.GateID(id)
		gates[id] = circuit.Gate{Kind: c.Kinds[g], Name: c.Name(g), Fanin: slices.Clone(c.FaninAdj.Row(g)), Delay: c.Delays[g]}
	}
	return gates
}

// fromRecords builds a circuit from gate records the way the .bench
// reader does: laid out flat and checked by circuit.FromFlat.
func fromRecords(gates []circuit.Gate, inputs, outputs []circuit.GateID) (*circuit.Circuit, error) {
	kinds := make([]circuit.Kind, len(gates))
	delays := make([]circuit.Tick, len(gates))
	nameOff := []int32{0}
	fanin := circuit.Adj{Off: []int32{0}, Idx: []circuit.GateID{}}
	var names strings.Builder
	for id, g := range gates {
		kinds[id], delays[id] = g.Kind, g.Delay
		names.WriteString(g.Name)
		nameOff = append(nameOff, int32(names.Len()))
		fanin.Idx = append(fanin.Idx, g.Fanin...)
		fanin.Off = append(fanin.Off, int32(len(fanin.Idx)))
	}
	return circuit.FromFlat(kinds, delays, names.String(), nameOff, fanin, inputs, outputs, nil)
}

// inject builds the faulty circuit: the faulted gate is replaced by a
// constant driving the stuck value. Faulting a primary input also removes
// it from the input list and the stimulus, and faulting an Output marker
// removes it from the output list (a circuit lists only Input and Output
// gates there).
func inject(c *circuit.Circuit, stim *vectors.Stimulus, f Fault) (*circuit.Circuit, *vectors.Stimulus, error) {
	gates := records(c)
	fg := &gates[f.Gate]
	faultedInput := fg.Kind == circuit.Input
	if f.StuckAt == logic.One {
		fg.Kind = circuit.Const1
	} else {
		fg.Kind = circuit.Const0
	}
	fg.Fanin = nil

	without := func(list []circuit.GateID) []circuit.GateID {
		out := make([]circuit.GateID, 0, len(list))
		for _, g := range list {
			if g != f.Gate {
				out = append(out, g)
			}
		}
		return out
	}
	inputs, outputs := c.Inputs, c.Outputs
	if faultedInput {
		inputs = without(inputs)
	}
	if c.Kinds[f.Gate] == circuit.Output {
		outputs = without(outputs)
	}
	fc, err := fromRecords(gates, inputs, outputs)
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
