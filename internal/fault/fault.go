// Package fault implements single-stuck-at fault simulation.
//
// The paper's taxonomy of parallelism notes that data parallelism —
// different processors simulating distinct inputs — "is quite effective
// for fault simulation, where a large number of independent input vectors
// [and faults] need to be simulated". This package provides the workload:
// a stuck-at fault universe with simple structural collapsing, and two
// graders on the 64-lane plane every wide engine runs on. Run is
// parallel-fault simulation: one run of the sequential engine carries the
// good machine and 63 faulty ones, and workers fan the runs out across
// goroutines (experiment E13). GradeBitParallel is parallel-pattern
// single-fault propagation on combinational circuits (E17).
package fault

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	gosync "sync"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim/seq"
	"repro/internal/sim/supervise"
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
	for id, k := range c.Kinds {
		switch k {
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
		switch c.Kinds[f.Gate] {
		case circuit.Buf, circuit.Output:
			return canon(Fault{c.FaninAdj.Row(f.Gate)[0], f.StuckAt})
		case circuit.Not:
			inv := logic.Zero
			if f.StuckAt == logic.Zero {
				inv = logic.One
			}
			return canon(Fault{c.FaninAdj.Row(f.Gate)[0], inv})
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

// compareDetections is the one detection order of both graders: by time
// (or pattern), then gate, then stuck value.
func compareDetections(a, b Detection) int {
	return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Fault.Gate, b.Fault.Gate),
		cmp.Compare(a.Fault.StuckAt, b.Fault.StuckAt))
}

// Result summarizes a fault simulation campaign.
type Result struct {
	Total      int
	Detected   int
	Coverage   float64
	Detections []Detection
}

// Config parameterizes a campaign.
type Config struct {
	// Workers is the data-parallel fan-out; 1 is the serial baseline.
	Workers int
}

// check rejects a fault list the graders cannot honour: a site outside
// the circuit, or a stuck value other than 0 or 1.
func check(c *circuit.Circuit, faults []Fault) error {
	for _, f := range faults {
		if f.Gate < 0 || int(f.Gate) >= len(c.Kinds) {
			return fmt.Errorf("fault: %v: gate %d outside the circuit's %d gates", f, f.Gate, len(c.Kinds))
		}
		if f.StuckAt != logic.Zero && f.StuckAt != logic.One {
			return fmt.Errorf("fault: gate %d stuck at %v: only stuck-at-0 and stuck-at-1 are graded", f.Gate, f.StuckAt)
		}
	}
	return nil
}

// perRun is the number of faults one run grades: lane 0 carries the good
// machine and each other lane one faulty machine.
const perRun = logic.Lanes - 1

// Run grades the given faults under the stimulus by parallel-fault
// simulation. Each run of the sequential engine on the 64-lane plane
// carries the good machine in lane 0 and up to 63 faults, one per lane,
// every lane under the same two-valued stimulus; workers take whole runs.
// A fault is detected at the first strobe at which its lane's outputs
// differ from lane 0's.
func Run(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, faults []Fault, cfg Config) (*Result, error) {
	if err := check(c, faults); err != nil {
		return nil, err
	}
	changes, err := stim.Projected(c, logic.TwoValued)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	strobes := strobeTimes(stim, until)
	runs := (len(faults) + perRun - 1) / perRun
	found := make([][]Detection, runs)
	errs := make([]error, runs)
	var wg gosync.WaitGroup
	work := make(chan int)
	for w := 0; w < min(max(cfg.Workers, 1), runs); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := newLanes(c, stim.End)
			for r := range work {
				lo, hi := r*perRun, min((r+1)*perRun, len(faults))
				if found[r], errs[r] = l.grade(w, faults[lo:hi], changes, until, strobes); errs[r] != nil {
					errs[r] = fmt.Errorf("fault: faults %d-%d (%v to %v): %w", lo, hi-1, faults[lo], faults[hi-1], errs[r])
				}
			}
		}(w)
	}
	for r := range runs {
		work <- r
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := &Result{Total: len(faults), Detections: slices.Concat(found...)}
	out.Detected = len(out.Detections)
	slices.SortFunc(out.Detections, compareDetections)
	if out.Total > 0 {
		out.Coverage = float64(out.Detected) / float64(out.Total)
	}
	return out, nil
}

// lanes is one worker's parallel-fault machine: its own copy of the wide
// plane whose InitState and EvalGate pin each faulty lane's stuck net, and
// the buffers it reuses from run to run.
type lanes struct {
	c *circuit.Circuit
	// stuck[g] holds the lanes net g is pinned in: stuck-at-0 lanes in L,
	// stuck-at-1 lanes in H (so a pinned lane is a driven 0 or 1). sites
	// lists the nets pinned in the current run.
	stuck []logic.Word
	sites []circuit.GateID
	plane circuit.Plane[logic.Word]
	stim  vectors.WideStimulus
	// out[g] is output g's word at the strobe being checked.
	out []logic.Word
}

// pin overrides the pinned lanes of w with their stuck values.
func pin(stuck, w logic.Word) logic.Word {
	return logic.Select(stuck.L|stuck.H, stuck, w)
}

func newLanes(c *circuit.Circuit, end circuit.Tick) *lanes {
	l := &lanes{c: c, stuck: make([]logic.Word, len(c.Kinds)), out: make([]logic.Word, len(c.Kinds))}
	l.stim.End, l.stim.Lanes = end, logic.Lanes
	l.plane = *circuit.Wide
	l.plane.InitState = func(c *circuit.Circuit, sys logic.System) (val, prevClk []logic.Word) {
		val, prevClk = circuit.InitStateWide(c, sys)
		for _, g := range l.sites {
			val[g] = pin(l.stuck[g], val[g])
		}
		return val, prevClk
	}
	l.plane.EvalGate = func(c *circuit.Circuit, id circuit.GateID, val, held, prevClk []logic.Word) (logic.Word, logic.Word) {
		out, clk := circuit.EvalGateWide(c, id, val, held, prevClk)
		return pin(l.stuck[id], out), clk
	}
	return l
}

// grade runs batch[k] in lane k+1 and returns the faults it detects. A
// panic is recovered into the error, so that worker w grades on.
func (l *lanes) grade(w int, batch []Fault, changes []vectors.Change, until circuit.Tick, strobes []circuit.Tick) (found []Detection, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = supervise.FromPanic("seq-wide", w, "fault", 0, p)
		}
	}()
	c := l.c
	for _, g := range l.sites {
		l.stuck[g] = logic.Word{}
	}
	l.sites = l.sites[:0]
	for k, f := range batch {
		s := &l.stuck[f.Gate]
		if *s == (logic.Word{}) {
			l.sites = append(l.sites, f.Gate)
		}
		if f.StuckAt == logic.One {
			s.H |= 1 << (k + 1)
		} else {
			s.L |= 1 << (k + 1)
		}
	}
	// Every lane sees the stimulus, except where its input is stuck.
	l.stim.Changes = l.stim.Changes[:0]
	for _, ch := range changes {
		l.stim.Changes = append(l.stim.Changes,
			vectors.WideChange{Time: ch.Time, Input: ch.Input, Value: pin(l.stuck[ch.Input], logic.Splat(ch.Value))})
	}
	res, err := seq.RunWideOn(&l.plane, c, &l.stim, until, seq.WideConfig{System: logic.TwoValued})
	if err != nil {
		return nil, err
	}

	for _, o := range c.Outputs {
		l.out[o] = pin(l.stuck[o], circuit.InitialWide(c.Kinds[o], logic.TwoValued))
	}
	live := ^uint64(0) >> (logic.Lanes - len(batch)) << 1
	wf, wi := res.Waveform, 0
	for _, st := range strobes {
		for ; wi < len(wf) && wf[wi].Time <= st; wi++ {
			l.out[wf[wi].Gate] = wf[wi].Value
		}
		// A lane differs from lane 0 where either plane differs from
		// lane 0's bit of that plane, spread over all lanes.
		var diff uint64
		for _, o := range c.Outputs {
			v := l.out[o]
			diff |= (v.L ^ -(v.L & 1)) | (v.H ^ -(v.H & 1))
		}
		for hit := diff & live; hit != 0; hit &= hit - 1 {
			found = append(found, Detection{Fault: batch[bits.TrailingZeros64(hit)-1], Time: st})
		}
		if live &^= diff; live == 0 {
			break
		}
	}
	return found, nil
}

// strobeTimes lists the observation instants: just before each vector
// boundary after the first, up to the simulation horizon, then the
// horizon itself. Strobing settled values (rather than diffing full
// waveforms) is the standard fault-grading discipline — it ignores
// transient glitch differences, so logically redundant faults stay
// undetected.
func strobeTimes(stim *vectors.Stimulus, until circuit.Tick) []circuit.Tick {
	var strobes []circuit.Tick
	for i, ch := range stim.Changes {
		if i > 0 && ch.Time != stim.Changes[i-1].Time && ch.Time-1 < until {
			strobes = append(strobes, ch.Time-1)
		}
	}
	return append(strobes, until)
}
