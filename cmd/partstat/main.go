// Command partstat compares partitioning heuristics on a circuit: cut
// links (communication volume per event), load imbalance under uniform and
// pre-simulated weights, and partitioner wall time.
//
// Example:
//
//	partstat -circuit dag5000 -lps 8 -presim
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/pipeline"
)

func main() {
	var (
		benchPath = flag.String("bench", "", "read circuit from an ISCAS .bench file")
		circName  = flag.String("circuit", "dag2000", "built-in circuit name (see circgen)")
		lps       = flag.Int("lps", 8, "number of blocks")
		seed      = flag.Int64("seed", 1, "seed")
		presim    = flag.Bool("presim", false, "also judge balance under pre-simulated activity weights")
	)
	flag.Parse()

	// The judging weights come from the same pre-simulation pass parsim
	// -presim partitions with: 30 vectors at activity 0.5, clocked when
	// the circuit has a clock.
	run, err := pipeline.Prepare(pipeline.Spec{
		Bench: *benchPath, Circuit: *circName, Seed: *seed,
		Vectors: 30, Period: 40, Activity: 0.5, System: logic.TwoValued, Presim: *presim,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "partstat:", err)
		os.Exit(1)
	}
	c := run.Circuit
	uniform := partition.WeightsUniform(c)
	judge := uniform
	if *presim {
		judge = run.Weights
	}

	st := c.ComputeStats()
	fmt.Printf("circuit: %d gates, %d inputs, %d outputs; %d blocks\n",
		st.Gates, st.Inputs, st.Outputs, *lps)
	fmt.Printf("%-12s %10s %12s %12s %10s\n", "method", "cut-links", "imbalance", "activity-imb", "time")
	for _, m := range []partition.Method{
		partition.MethodRandom, partition.MethodContiguous, partition.MethodStrings,
		partition.MethodCones, partition.MethodLevels, partition.MethodKL,
		partition.MethodFM, partition.MethodAnneal, partition.MethodMultilevel,
	} {
		start := time.Now()
		p, err := partition.New(m, c, *lps, partition.Options{Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "partstat: %v: %v\n", m, err)
			continue
		}
		el := time.Since(start)
		fmt.Printf("%-12s %10d %12.3f %12.3f %10v\n",
			m, p.CutLinks(c), p.Imbalance(uniform), p.Imbalance(judge), el.Round(time.Microsecond))
	}
}
