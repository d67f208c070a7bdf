// Quickstart: load the embedded ISCAS-85 c17 benchmark, simulate it with
// the sequential reference engine and with optimistic (Time Warp) parallel
// simulation on four logical processes, and check they agree.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

func main() {
	// 1. A circuit: the classic six-NAND c17, shipped with the library.
	c := bench.MustC17()
	st := c.ComputeStats()
	fmt.Printf("c17: %d gates, %d inputs, %d outputs, depth %d\n",
		st.Gates, st.Inputs, st.Outputs, st.CombDepth)

	// 2. Stimulus: 100 random vectors, one every 20 ticks, with each input
	// toggling with probability 0.5 at each vector boundary.
	stim, err := vectors.Random(c, vectors.RandomConfig{
		Vectors: 100, Period: 20, Activity: 0.5, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	until := core.Horizon(c, stim)

	// 3. The sequential reference run.
	ref, err := core.Simulate(c, stim, until, core.Options{
		Engine: core.EngineSeq, System: logic.NineValued,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential: %d evaluations, %d output changes recorded\n",
		ref.SeqWork.Evaluations, len(ref.Waveform))

	// 4. The same workload under Time Warp on 4 LPs with an FM partition.
	tw, err := core.Simulate(c, stim, until, core.Options{
		Engine: core.EngineTimeWarp, LPs: 4, Partition: partition.MethodFM,
		System: logic.NineValued,
	})
	if err != nil {
		log.Fatal(err)
	}
	tot := tw.Stats.Total()
	fmt.Printf("time warp:  %d evaluations, %d rollbacks, %d messages\n",
		tot.Evaluations, tot.Rollbacks, tot.MessagesSent)

	// 5. Parallel simulation must be invisible in the results.
	if d := trace.Diff(ref.Waveform, tw.Waveform, 3); d != "" {
		log.Fatalf("engines disagree:\n%s", d)
	}
	fmt.Println("waveforms identical across engines ✓")
	fmt.Printf("modeled speedup on 4 processors: %.2fx\n",
		tw.SpeedupOver(ref, stats.DefaultCostModel()))

	// 6. Final output values by name.
	for _, o := range c.Outputs {
		fmt.Printf("  output %s = %v\n", c.Name(o), ref.Values[o])
	}
}
