// Fault grading: the data-parallelism use case from the paper's taxonomy
// ("data parallelism ... is quite effective for fault simulation"). An
// 8x8 array multiplier's collapsed single-stuck-at fault universe is
// graded against random vectors, fanning the independent fault machines
// out across worker goroutines, and the undetected faults are listed so a
// test engineer could target them.
//
// Run with:
//
//	go run ./examples/faultsim
package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/vectors"
)

func main() {
	c, err := gen.ArrayMultiplier(8, gen.Unit)
	if err != nil {
		log.Fatal(err)
	}
	st := c.ComputeStats()

	universe := fault.Universe(c)
	collapsed := fault.Collapse(c, universe)
	fmt.Printf("mul8: %d gates; fault universe %d, collapsed %d (%.0f%%)\n",
		st.Gates, len(universe), len(collapsed),
		100*float64(len(collapsed))/float64(len(universe)))

	stim, err := vectors.Random(c, vectors.RandomConfig{
		Vectors: 60, Period: 80, Activity: 0.5, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	until := core.Horizon(c, stim)

	workers := runtime.GOMAXPROCS(0) * 2
	start := time.Now()
	res, err := fault.Run(c, stim, until, collapsed, fault.Config{Workers: workers})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graded %d faults on %d workers in %v\n",
		res.Total, workers, time.Since(start).Round(time.Millisecond))
	fmt.Printf("coverage: %.1f%% (%d detected, %d undetected)\n",
		100*res.Coverage, res.Detected, res.Total-res.Detected)

	// Detection-time histogram: how quickly the vector set finds faults.
	if len(res.Detections) > 0 {
		first := res.Detections[0]
		median := res.Detections[len(res.Detections)/2]
		last := res.Detections[len(res.Detections)-1]
		fmt.Printf("detection times: first t=%d, median t=%d, last t=%d\n",
			first.Time, median.Time, last.Time)
	}

	// List the faults the vectors missed — the targets for directed tests.
	detected := map[fault.Fault]bool{}
	for _, dt := range res.Detections {
		detected[dt.Fault] = true
	}
	missed := 0
	for _, f := range collapsed {
		if !detected[f] {
			if missed < 10 {
				fmt.Printf("  undetected: gate %q %s\n", c.Name(f.Gate), f)
			}
			missed++
		}
	}
	if missed > 10 {
		fmt.Printf("  ... and %d more\n", missed-10)
	}
	if missed == 0 {
		fmt.Println("every collapsed fault detected — the vector set is complete")
	}

	// The same campaign with bit-parallel PPSFP grading: 64 patterns per
	// machine word, fault dropping between passes. Same verdicts, a few
	// orders of magnitude faster.
	patterns := make([][]bool, 60)
	rng := rand.New(rand.NewSource(5))
	for k := range patterns {
		patterns[k] = make([]bool, len(c.Inputs))
		for i := range patterns[k] {
			patterns[k][i] = rng.Intn(2) == 1
		}
	}
	start = time.Now()
	pp, err := fault.GradeBitParallel(c, patterns, collapsed, workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PPSFP (bit-parallel): %d faults, coverage %.1f%%, in %v\n",
		pp.Total, 100*pp.Coverage, time.Since(start).Round(time.Microsecond))
}
