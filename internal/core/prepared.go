package core

import (
	"fmt"

	"repro/internal/dist/wire"
	"repro/internal/logic"
	"repro/internal/pipeline"
	"repro/internal/sim/ckpt"
)

// Run simulates a prepared workload on the scalar plane. The workload half
// of the options — LP count, partition, weights — comes from the run;
// opts supplies the engine and its configuration.
func Run(p *pipeline.Prepared, opts Options) (*Report, error) {
	opts, err := withPrepared(p, opts)
	if err != nil {
		return nil, err
	}
	return Simulate(p.Circuit, p.Stim, p.Until, opts)
}

// RunWide is Run on the 64-lane plane, over the run's wide stimulus.
func RunWide(p *pipeline.Prepared, opts Options) (*WideReport, error) {
	if p.WideStim == nil {
		return nil, fmt.Errorf("core: the run was not prepared with lanes")
	}
	opts, err := withPrepared(p, opts)
	if err != nil {
		return nil, err
	}
	return SimulateWide(p.Circuit, p.WideStim, p.Until, opts)
}

// RunShard is Run as one shard of a socket fleet: the same dispatch with
// the seam attached, so only the LPs it maps to this process execute and
// the rest are reached over the wire. The report covers the whole circuit
// with this shard's gates filled in. With cuts non-nil the engine captures
// its local LPs' parts of every checkpoint boundary itself.
func RunShard(p *pipeline.Prepared, opts Options, seam *wire.Seam, cuts *ckpt.Cuts[logic.Value]) (*Report, error) {
	if !opts.Engine.Distributes() {
		return nil, fmt.Errorf("core: %w", NotDistributed(opts.Engine.String()))
	}
	opts, err := withPrepared(p, opts)
	if err != nil {
		return nil, err
	}
	opts.seam = seam
	return simulateOn(&scalarEngines, p.Circuit, p.Stim, p.Until, opts, cuts)
}

// withPrepared moves the run's partitioning decisions into opts.
func withPrepared(p *pipeline.Prepared, opts Options) (Options, error) {
	if p.Part == nil {
		if opts.Engine.Parallel() {
			return opts, fmt.Errorf("core: engine %v needs a partition and the run was prepared without one (Spec.LPs = 0)", opts.Engine)
		}
		return opts, nil
	}
	opts.LPs = p.Part.Blocks
	opts.Partition, opts.PartitionSeed = p.Spec.Partition, p.Spec.PartitionSeed
	opts.Weights, opts.prebuilt = p.Weights, p.Part
	return opts, nil
}
