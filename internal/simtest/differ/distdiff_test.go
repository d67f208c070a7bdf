package differ

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/sim/seq"
	"repro/internal/simtest/chaos"
	"repro/internal/trace"
)

// TestDistEquivalence is the fleet's transparency property: every
// distributable engine, under no transform, each transform alone and all
// together, over the hub relay and over the mesh, must reproduce the
// sequential engine's waveform and final values on the prepared circuit it
// was shipped. Generated circuits rotate so combinational, clocked and
// fine-delay netlists all appear under every engine.
func TestDistEquivalence(t *testing.T) {
	engines := []string{"cmb", "cmb-demand", "timewarp", "timewarp-lazy"}
	sets := [][]string{nil, {"opt"}, {"cone-split"}, {"presim"}, {"opt", "cone-split", "presim"}}
	circuits := []string{"seq300", "dag250", "mul5", "counter6", "s27"}
	if testing.Short() {
		engines = []string{"cmb", "timewarp-lazy"}
	}
	n := 0
	for _, engine := range engines {
		for _, set := range sets {
			for _, mesh := range []bool{false, true} {
				tr := &DistTrial{Engine: engine, Circuit: circuits[n%len(circuits)], Seed: int64(n + 1), Transforms: set}
				if mesh {
					tr.Transforms = append(append([]string(nil), set...), "mesh")
				}
				n++
				if err := tr.Check(); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// DistTransforms are the run-shaping switches a fleet must be transparent
// to: the three netlist and partition transforms the hub applies before it
// ships the prepared run, and the data-plane topology.
var DistTransforms = []string{"opt", "cone-split", "presim", "mesh"}

// DistTrial is one distributed-equivalence check: a generated circuit
// prepared under a set of transforms, run by a two-shard fleet, and
// compared with the sequential engine on the very circuit, stimulus and
// horizon the hub prepared and shipped.
type DistTrial struct {
	Engine     string // cmb, cmb-demand, timewarp, timewarp-lazy
	Circuit    string // generator name
	Seed       int64
	Transforms []string // subset of DistTransforms
}

// Check runs the trial; on a divergence the transform set is ddmin-shrunk
// (as Trial.Check shrinks its pass subset) so the report names the
// smallest set of switches that still breaks equivalence.
func (tr *DistTrial) Check() error {
	failure := tr.probe(tr.Transforms)
	if failure == "" {
		return nil
	}
	idx, detail := chaos.ShrinkIndices(len(tr.Transforms), failure, func(idx []int) (bool, string) {
		sub := make([]string, 0, len(idx))
		for _, i := range idx {
			sub = append(sub, tr.Transforms[i])
		}
		f := tr.probe(sub)
		return f != "", f
	}, 16)
	minimal := make([]string, 0, len(idx))
	for _, i := range idx {
		minimal = append(minimal, tr.Transforms[i])
	}
	if detail == "" {
		detail = failure
	}
	return fmt.Errorf("dist trial engine=%s circuit=%s seed=%d: fleet diverges from seq (minimal failing transforms %v of %v):\n%s",
		tr.Engine, tr.Circuit, tr.Seed, minimal, tr.Transforms, detail)
}

// probe runs the fleet under the given transforms and returns "" when its
// result equals the sequential engine's on the prepared run, else the
// divergence.
func (tr *DistTrial) probe(transforms []string) string {
	opts := dist.Options{
		Shards: 2, Engine: tr.Engine, LPs: 4, PartitionSeed: tr.Seed, System: logic.NineValued,
		Circuit: tr.Circuit, FineDelays: 3, Seed: tr.Seed, Vectors: 12, Activity: 0.5, Period: 30,
	}
	for _, x := range transforms {
		switch x {
		case "opt":
			opts.Opt = true
		case "cone-split":
			opts.Partition = "cone-split"
		case "presim":
			opts.Presim = true
		case "mesh":
			opts.Mesh = true
		}
	}
	res, err := dist.Run(opts)
	if err != nil {
		return fmt.Sprintf("dist.Run under %s: %v", strings.Join(transforms, "+"), err)
	}
	if res.FinalMode != "dist" {
		return fmt.Sprintf("fleet degraded to %s: %s", res.FinalMode, res.Degraded)
	}
	run := res.Prepared
	ref, err := seq.Run(run.Circuit, run.Stim, run.Until, seq.Config{System: opts.System})
	if err != nil {
		return fmt.Sprintf("sequential reference failed: %v", err)
	}
	if d := trace.Diff(ref.Waveform, res.Waveform, 5); d != "" {
		return "waveform vs seq on the prepared circuit:\n" + d
	}
	for g, v := range ref.Values {
		if res.Values[g] != v {
			return fmt.Sprintf("final value of gate %d (%q): fleet=%v seq=%v", g, run.Circuit.Name(circuit.GateID(g)), res.Values[g], v)
		}
	}
	return ""
}
