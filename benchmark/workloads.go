package main

import (
	"fmt"
	"os"
	"strconv"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
)

// circuitSeed fixes the structure of every generated netlist. The
// benchmark's -seed draws the stimulus and seeds the partitioner; it does
// not redraw the circuit, because two random 30k-gate DAGs of the same
// size differ by 6 % in wall time (interquartile, ten seeds) while ten
// stimuli on one DAG differ by 1.3 %. A regression bound of 5–10 % needs
// the second figure.
const circuitSeed = 1

// period is parsim's default -period, the ticks between input vectors.
const period = 40

// workload is one set of inputs and the parsim flags that run it. The
// flags a timed invocation receives and the calls the in-process pass
// makes are both derived from these fields, so the two cannot drift.
// BENCHMARK.json and README.md record why each one exists.
type workload struct {
	name string

	circuit      string // generator spec of the netlist written to the .bench input
	smokeCircuit string // the same at -smoke size
	fineDelays   uint64 // random gate delays in [1,N]; 0 = unit

	vectors      int // -vectors at full size
	smokeVectors int
	activity     float64

	engine    string
	lps       int    // 0 for the serial engines
	partition string // "" leaves parsim's default (fm)
	opt       bool
	coneSplit bool
	wide      bool
	dist      bool // -dist 2 -dist-mesh -checkpoint-every N -ckpt-delta
}

var workloads = []workload{
	{name: "seq.dag.hi", circuit: "dag30000", smokeCircuit: "dag500", fineDelays: 4,
		vectors: 40, smokeVectors: 5, activity: 0.5, engine: "seq"},
	{name: "seq.ff.lo", circuit: "seq30000", smokeCircuit: "s27", fineDelays: 4,
		vectors: 500, smokeVectors: 20, activity: 0.05, engine: "seq"},
	{name: "par.cmb", circuit: "dag12000", smokeCircuit: "dag500", fineDelays: 4,
		vectors: 50, smokeVectors: 5, activity: 0.5, engine: "cmb", lps: 2},
	{name: "par.timewarp", circuit: "dag12000", smokeCircuit: "dag500", fineDelays: 4,
		vectors: 50, smokeVectors: 5, activity: 0.5, engine: "timewarp", lps: 2},
	{name: "cone.cmb.opt", circuit: "seq30000", smokeCircuit: "s27",
		vectors: 150, smokeVectors: 20, activity: 0.3, engine: "cmb", lps: 2, opt: true, coneSplit: true},
	{name: "setup.bench.fm", circuit: "seq40000", smokeCircuit: "dag500",
		vectors: 5, smokeVectors: 5, activity: 0.5, engine: "sync", lps: 2, partition: "fm", opt: true},
	{name: "wide.seq", circuit: "dag30000", smokeCircuit: "c17", fineDelays: 4,
		vectors: 4, smokeVectors: 4, activity: 0.5, engine: "seq", wide: true},
	{name: "dist.cmb.ckpt", circuit: "dag12000", smokeCircuit: "dag500", fineDelays: 4,
		vectors: 40, smokeVectors: 5, activity: 0.5, engine: "cmb", lps: 2, dist: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sized returns the workload at full or -smoke size.
func (w workload) sized(smoke bool) workload {
	if smoke {
		w.circuit, w.vectors = w.smokeCircuit, w.smokeVectors
	}
	return w
}

// inputVectors is the work one invocation completes: vectors times lanes.
func (w workload) inputVectors() int {
	if w.wide {
		return w.vectors * logic.Lanes
	}
	return w.vectors
}

// checkpointEvery spaces the dist workload's shard checkpoints so that a
// run crosses four boundaries at any size: one full snapshot, then deltas.
func (w workload) checkpointEvery() uint64 { return uint64(w.vectors) * period / 4 }

// system is the logic value system parsim picks: nine-valued by default,
// four-valued under -wide.
func (w workload) system() logic.System {
	if w.wide {
		return logic.FourValued
	}
	return logic.NineValued
}

// args are the flags of one timed invocation. Tracing is off and -q is
// set; -lps is 2 on every parallel workload.
func (w workload) args(benchPath, vcdPath, distDir string, seed int64) []string {
	a := w.stimulusArgs(benchPath, vcdPath, seed)
	a = append(a, "-engine", w.engine)
	if w.lps > 0 {
		a = append(a, "-lps", strconv.Itoa(w.lps))
	}
	if w.partition != "" {
		a = append(a, "-partition", w.partition)
	}
	if w.opt {
		a = append(a, "-opt")
	}
	if w.coneSplit {
		a = append(a, "-cone-split")
	}
	if w.wide {
		a = append(a, "-wide")
	}
	if w.dist {
		a = append(a, "-dist", "2", "-dist-mesh", "-ckpt-delta",
			"-checkpoint-every", strconv.FormatUint(w.checkpointEvery(), 10), "-dist-workdir", distDir)
	}
	return a
}

// goldenArgs run the scalar sequential engine on the same circuit,
// stimulus and value system. Every engine must reproduce its VCD byte
// for byte, so its hash is the correctness check.
func (w workload) goldenArgs(benchPath, vcdPath string, seed int64) []string {
	a := append(w.stimulusArgs(benchPath, vcdPath, seed), "-engine", "seq")
	if w.wide {
		a = append(a, "-system", "4")
	}
	return a
}

func (w workload) stimulusArgs(benchPath, vcdPath string, seed int64) []string {
	return []string{"-q", "-bench", benchPath, "-vcd", vcdPath,
		"-seed", strconv.FormatInt(seed, 10),
		"-vectors", strconv.Itoa(w.vectors),
		"-activity", strconv.FormatFloat(w.activity, 'g', -1, 64)}
}

// writeCircuit generates the workload's netlist and writes it as an ISCAS
// .bench file, the only circuit input parsim receives.
func (w workload) writeCircuit(path string) error {
	delays := gen.Unit
	if w.fineDelays > 0 {
		delays = gen.Fine(circuit.Tick(w.fineDelays), circuitSeed)
	}
	c, err := gen.ByName(w.circuit, delays, circuitSeed)
	if err != nil {
		return fmt.Errorf("generate %s: %w", w.circuit, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.Write(f, c, w.name); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
