// Package experiments regenerates every figure and quantitative claim of
// the paper's evaluation discussion as a reproducible table. Each
// experiment is a pure function from a scale (quick for CI, full for the
// recorded results) to a Table; the cmd/experiments binary prints them and
// bench_test.go exercises them under the Go benchmark harness.
//
// See DESIGN.md for the experiment index (F1, E2..E18, E20) mapping each table
// to the sentence of the paper it reproduces.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/stats"
	"repro/internal/vectors"
)

// Scale selects the experiment size.
type Scale uint8

// The scales.
const (
	// Quick shrinks circuits and vector counts for test runs.
	Quick Scale = iota
	// Full is the configuration recorded in EXPERIMENTS.md.
	Full
)

// Table is one rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper statement under test
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table for terminals and EXPERIMENTS.md.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&sb, "paper: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Experiment is a runnable experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func(Scale) (*Table, error)
}

// All lists every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"F1", "speedup vs circuit size (Figure 1)", Figure1},
		{"E2", "speedup vs processor count", E2Scaling},
		{"E3", "activity crossover: oblivious vs event-driven", E3Activity},
		{"E4", "partitioning heuristics", E4Partitioners},
		{"E5", "LP granularity", E5Granularity},
		{"E6", "state saving policies", E6StateSaving},
		{"E7", "cancellation policies", E7Cancellation},
		{"E8", "conservative variants and null traffic", E8NullMessages},
		{"E9", "timing granularity", E9TimingGranularity},
		{"E10", "pre-simulation load estimation", E10PreSimulation},
		{"E11", "performance stability", E11Variance},
		{"E12", "hybrid hierarchical synchronization", E12Hybrid},
		{"E13", "data-parallel fault simulation", E13FaultParallel},
		{"E14", "pending-event set implementations", E14EventQueues},
		{"E15", "dynamic load balancing", E15Dynamic},
		{"E16", "critical-path (ideal parallelism) analysis", E16CriticalPath},
		{"E17", "word-level data parallelism (PPSFP)", E17WordParallel},
		{"E18", "wide event-driven evaluation (64 vectors per gate op)", E18Wide},
		{"E20", "static vs adaptive synchronization control", E20Adaptive},
	}
}

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared workload builders -------------------------------------------

// sizedCircuit builds a random layered DAG with roughly n gates.
func sizedCircuit(n int, seed int64, delays gen.DelaySpec) (*circuit.Circuit, error) {
	inputs := 8 + n/64
	if inputs > 128 {
		inputs = 128
	}
	outputs := 4 + n/128
	if outputs > 64 {
		outputs = 64
	}
	return gen.RandomDAG(gen.RandomConfig{
		Gates: n, Inputs: inputs, Outputs: outputs,
		Locality: 0.6, Seed: seed, Delays: delays,
	})
}

// workload bundles a circuit with its stimulus and horizon.
type workload struct {
	c     *circuit.Circuit
	stim  *vectors.Stimulus
	until circuit.Tick
}

// randomWorkload attaches random vectors to a circuit.
func randomWorkload(c *circuit.Circuit, vecs int, period circuit.Tick, activity float64, seed int64) (*workload, error) {
	stim, err := vectors.Random(c, vectors.RandomConfig{
		Vectors: vecs, Period: period, Activity: activity, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return &workload{c: c, stim: stim, until: core.Horizon(c, stim)}, nil
}

// baselineFor runs the sequential engine once.
func baselineFor(w *workload) (*core.Report, error) {
	return core.Simulate(w.c, w.stim, w.until, core.Options{
		Engine: core.EngineSeq, System: logic.TwoValued,
	})
}

// speedupOf runs an engine and returns its modeled speedup plus report.
func speedupOf(w *workload, base *core.Report, opts core.Options) (float64, *core.Report, error) {
	opts.System = logic.TwoValued
	rep, err := core.Simulate(w.c, w.stim, w.until, opts)
	if err != nil {
		return 0, nil, err
	}
	return rep.SpeedupOver(base, stats.CostModel{}), rep, nil
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// d formats an integer.
func d[T int | int64 | uint64](v T) string { return fmt.Sprintf("%d", v) }
