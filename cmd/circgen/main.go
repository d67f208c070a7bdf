// Command circgen emits generated benchmark circuits as ISCAS-style
// .bench netlists (with the delay-annotation extension when fine delays
// are requested), so other tools — including parsim -bench — can consume
// them.
//
// Example:
//
//	circgen -circuit mul16 -fine-delays 8 -o mul16.bench
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/pipeline"
)

func main() {
	var (
		circName   = flag.String("circuit", "mul8", "circuit: c17, s27, mulN, rippleN, claN, lfsrN, counterN, shiftN, dagN, seqN")
		fineDelays = flag.Uint64("fine-delays", 0, "assign random delays in [1,N] (0 = unit)")
		seed       = flag.Int64("seed", 1, "generator seed")
		out        = flag.String("o", "", "output path (default stdout)")
		statsOnly  = flag.Bool("stats", false, "print structure statistics instead of the netlist")
	)
	flag.Parse()

	c, err := pipeline.Load(pipeline.Spec{Circuit: *circName, FineDelays: *fineDelays, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "circgen:", err)
		os.Exit(1)
	}

	if *statsOnly {
		st := c.ComputeStats()
		fmt.Printf("gates=%d inputs=%d outputs=%d ffs=%d latches=%d depth=%d\n",
			st.Gates, st.Inputs, st.Outputs, st.FlipFlops, st.Latches, st.CombDepth)
		fmt.Printf("fanout: avg=%.2f max=%d; delays: %d..%d; connections=%d\n",
			st.AvgFanout, st.MaxFanout, st.MinDelay, st.MaxDelay, st.TotalConns)
		for k, n := range st.ByKind {
			fmt.Printf("  %-8v %d\n", k, n)
		}
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "circgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := bench.Write(w, c, *circName); err != nil {
		fmt.Fprintln(os.Stderr, "circgen:", err)
		os.Exit(1)
	}
}
