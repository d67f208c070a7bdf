package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/adapt"
	"repro/internal/vectors"
)

// E20Adaptive compares static protocol choices against closed-loop
// adaptive control on the E19 workload swept across activity. The
// paper's future directions ask for dynamic load estimation and runtime
// control of the synchronization mechanism; E20 closes that loop: the
// run starts on the eager-null conservative engine, the switch
// supervisor observes the first probe segment's null-per-event ratio,
// and migrates the job through its engine's own checkpoint when the
// protocol is wrong for the workload. Wall-clock here is real (not
// modeled), because the claim under test is that the controller's probe
// overhead is small against the cost of staying on the wrong protocol.
func E20Adaptive(s Scale) (*Table, error) {
	vecs := 192
	runs := 3
	if s == Full {
		vecs = 1536
		runs = 5
	}
	const lps = 8
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 300, Inputs: 12, Outputs: 8, Locality: 0.6, Seed: 11})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E20",
		Title:  "static vs adaptive synchronization (8 LPs, wall-clock)",
		Claim:  "dynamic load estimation and runtime control of the synchronization mechanism (future directions)",
		Header: []string{"activity", "config", "ms", "nulls", "rollbacks", "switches", "segments", "final"},
	}
	base := core.Options{
		LPs: lps, Partition: partition.MethodFM, PartitionSeed: 11,
		System: logic.TwoValued,
	}
	for _, activity := range []float64{0.1, 0.5, 0.9} {
		stim, err := vectors.Random(c, vectors.RandomConfig{
			Vectors: vecs, Period: 30, Activity: activity, Seed: 11,
		})
		if err != nil {
			return nil, err
		}
		until := core.Horizon(c, stim)
		// Best-of-N wall clock: the quantity under test is the cost the
		// configuration cannot avoid, not scheduler noise on a busy host.
		measure := func(opts core.Options) (time.Duration, *core.Report, error) {
			var best time.Duration = 1 << 62
			var rep *core.Report
			for i := 0; i < runs; i++ {
				start := time.Now()
				r, err := core.Simulate(c, stim, until, opts)
				if err != nil {
					return 0, nil, err
				}
				if d := time.Since(start); d < best {
					best, rep = d, r
				}
			}
			return best, rep, nil
		}
		row := func(name string, dur time.Duration, rep *core.Report) {
			tot := rep.Stats.Total()
			swch, segs, final := "-", "-", "-"
			if rep.Adapt != nil {
				swch = d(rep.Adapt.EngineSwitches)
				segs = d(rep.Adapt.Segments)
				final = rep.Adapt.FinalEngine.String()
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.1f", activity), name,
				fmt.Sprintf("%.2f", float64(dur.Microseconds())/1e3),
				d(tot.NullsSent), d(tot.EventsRolledBack), swch, segs, final,
			})
		}
		for _, eng := range []core.Engine{core.EngineCMB, core.EngineHybrid, core.EngineTimeWarp} {
			o := base
			o.Engine = eng
			dur, rep, err := measure(o)
			if err != nil {
				return nil, err
			}
			row("static/"+eng.String(), dur, rep)
		}
		o := base
		o.Engine = core.EngineCMB
		// Probe cadence and budget as in the Adapt/* benchmark rows: two
		// short segments of evidence, then commit whatever the controller
		// chose and run unsegmented to the horizon.
		o.Adapt = &adapt.Spec{Every: 128, MaxProbes: 2}
		dur, rep, err := measure(o)
		if err != nil {
			return nil, err
		}
		row("adaptive(start=cmb)", dur, rep)
	}
	t.Notes = append(t.Notes,
		"adaptive starts on the worst protocol for low activity; the switch supervisor migrates it off after one 128-tick probe segment",
		"probe cost is bounded by MaxProbes; the committed engine runs the rest of the horizon unsegmented")
	return t, nil
}
