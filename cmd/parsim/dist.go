package main

import (
	"fmt"
	"os"

	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/simtest/chaos/netfault"
)

// runDist executes the distributed path: a coordinator in this process
// preparing the workload once, worker shards over sockets (in-process
// goroutines by default, real parsimd-worker processes with -dist-exec)
// each decoding it from their job frame, checkpointed recovery, and
// optional seeded network chaos.
func runDist(opts dist.Options, exec string, chaosSeed uint64, chaosFaults int, chaosKill bool,
	vcdPath, metricsOut string, quiet bool) {
	opts.Spawn = dist.InProcSpawner{}
	if exec != "" {
		opts.Spawn = &dist.ExecSpawner{Bin: exec, Stderr: os.Stderr}
	}
	if chaosFaults > 0 {
		// On a mesh topology roughly half the non-kill faults retarget a
		// direct worker-to-worker link; hub-only plans keep their meaning.
		if opts.Mesh {
			opts.Plan = netfault.NewMeshPlan(chaosSeed, opts.Shards, chaosFaults, chaosKill)
		} else {
			opts.Plan = netfault.NewPlan(chaosSeed, opts.Shards, chaosFaults, chaosKill)
		}
		if !quiet {
			fmt.Printf("dist chaos: seed=%d faults=%d kills=%d\n", chaosSeed, len(opts.Plan), opts.Plan.Kills())
			for _, f := range opts.Plan {
				fmt.Printf("dist chaos: %s\n", f)
			}
		}
	}
	reg := metrics.NewRegistry(opts.Engine + "-dist")
	opts.Metrics = reg

	res, err := dist.Run(opts)
	fatal(err)
	c := res.Prepared.Circuit
	if !quiet {
		printWorkload(res.Prepared, c.ComputeStats())
	}

	fmt.Printf("engine=%s-dist shards=%d mode=%s attempts=%d recoveries=%d fallbacks=%d events=%d end=%d\n",
		opts.Engine, res.Shards, res.FinalMode, res.Attempts, res.Recoveries, res.Fallbacks,
		res.Events, res.EndTime)
	if !quiet {
		if res.Degraded != "" {
			fmt.Printf("dist: degraded after shard loss: %s\n", res.Degraded)
		}
		fmt.Printf("final outputs:")
		for _, o := range c.Outputs {
			fmt.Printf(" %s=%v", c.Name(o), res.Values[o])
		}
		fmt.Println()
	}
	writeVCD(vcdPath, c, res.Waveform, "waveform", quiet)
	writeMetrics(metricsOut, reg.Report(), res.Prepared.OptStats, quiet)
}
