package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/vectors"
)

// E18Wide measures word-level data parallelism inside the event-driven
// and parallel engines: 64 independent random stimuli over one 600-gate
// DAG, simulated as 64 scalar runs one lane at a time and as one 64-lane
// wide run. Both columns retire the identical vector count, so within an
// engine the wide/scalar ratio is the word-parallel speedup. Wall-clock
// is real (best of N runs), because lanes need no extra cores.
func E18Wide(s Scale) (*Table, error) {
	vecs := 2
	runs := 1
	if s == Full {
		vecs = 8
		runs = 10
	}
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 600, Inputs: 12, Outputs: 8, Locality: 0.6, Seed: 11})
	if err != nil {
		return nil, err
	}
	ws, stims, err := vectors.RandomBatch(c, vectors.RandomConfig{
		Vectors: vecs, Period: 30, Activity: 0.6, Seed: 11,
	}, logic.Lanes, logic.TwoValued)
	if err != nil {
		return nil, err
	}
	until := core.WideHorizon(c, ws)
	total := float64(ws.NumVectors() * ws.Lanes)
	t := &Table{
		ID:     "E18",
		Title:  fmt.Sprintf("wide event-driven evaluation (600-gate DAG, %d lanes, %.0f vectors, 4 LPs)", logic.Lanes, total),
		Claim:  "data parallelism uses different processors to simulate the circuit for distinct input vectors",
		Header: []string{"engine", "scalar vec/s", "wide vec/s", "ratio"},
	}
	// best returns the fastest of runs calls of fn.
	best := func(fn func() error) (time.Duration, error) {
		var min time.Duration = 1 << 62
		for i := 0; i < runs; i++ {
			start := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			if dur := time.Since(start); dur < min {
				min = dur
			}
		}
		return min, nil
	}
	for _, eng := range []core.Engine{core.EngineSeq, core.EngineOblivious, core.EngineCMB} {
		opts := core.Options{
			Engine: eng, LPs: 4, Partition: partition.MethodFM, PartitionSeed: 11,
			System: logic.TwoValued,
		}
		scalar, err := best(func() error {
			for _, stim := range stims {
				if _, err := core.Simulate(c, stim, until, opts); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		wide, err := best(func() error {
			_, err := core.SimulateWide(c, ws, until, opts)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			eng.String(),
			fmt.Sprintf("%.0f", total/scalar.Seconds()),
			fmt.Sprintf("%.0f", total/wide.Seconds()),
			fmt.Sprintf("%.1fx", scalar.Seconds()/wide.Seconds()),
		})
	}
	t.Notes = append(t.Notes,
		"scalar = one engine run per lane; wide = one 64-lane run; both retire the same vectors",
		"per-lane waveforms are bit-identical to the scalar runs (internal/simtest/differ WideLockstep)")
	return t, nil
}
