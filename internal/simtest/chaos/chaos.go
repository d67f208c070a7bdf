// Package chaos is the deterministic schedule-exploration harness for the
// asynchronous engines: it sweeps seeded fault plans (message delays,
// batch splits, cross-sender reorders, LP stalls — see the inject
// subpackage) over a workload corpus, checks every perturbed run against
// the sequential engine's golden waveform plus the counter-conservation
// invariants, and shrinks any failure to a minimal fault subset with a
// self-contained repro command.
//
// Determinism contract: a Plan is a pure function of its seed, every
// workload is reconstructible from its name, and verdicts depend only on
// (workload, engine, seed, plan subset, bias) — a correct engine passes
// under every chaos schedule, and protocol violations are detected at the
// transport where they are schedule-independent. Which faults happen to
// fire can vary with runtime scheduling (batch boundaries are
// timing-dependent); verdicts never derive from it.
package chaos

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/trace"
)

// DefaultEngines is the sweep's engine set: every asynchronous engine
// that honors core.Options.Chaos.
var DefaultEngines = []core.Engine{
	core.EngineCMB, core.EngineCMBDemand, core.EngineCMBDetect,
	core.EngineTimeWarp, core.EngineTimeWarpLazy, core.EngineHybrid,
}

// DefaultSeeds is the fixed seed list used when Config.Seeds is nil.
var DefaultSeeds = []uint64{1, 2, 3, 4}

// Config parameterizes an exploration sweep.
type Config struct {
	// Seeds are the fault-plan seeds swept per (workload, engine); nil
	// uses DefaultSeeds.
	Seeds []uint64
	// Engines limits the engines exercised; nil uses DefaultEngines.
	Engines []core.Engine
	// Workloads names the workload corpus; nil uses DefaultWorkloads.
	Workloads []string
	// LPs is the logical-process count (default 4).
	LPs int
	// Faults is the plan size per seed (default 16).
	Faults int
	// MaxEvents bounds each run (default 5,000,000).
	MaxEvents uint64
	// LookaheadBias is forwarded to the hook's sabotage knob; nonzero
	// deliberately breaks the conservative engines' promises (harness
	// self-tests only).
	LookaheadBias uint64
}

// shrinkBudget caps the shrinking probes spent on one failure.
const shrinkBudget = 120

func (cfg *Config) fill() {
	if cfg.LPs <= 0 {
		cfg.LPs = 4
	}
	if cfg.Faults <= 0 {
		cfg.Faults = 16
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 5_000_000
	}
	if cfg.Seeds == nil {
		cfg.Seeds = DefaultSeeds
	}
	if cfg.Engines == nil {
		cfg.Engines = DefaultEngines
	}
	if cfg.Workloads == nil {
		cfg.Workloads = DefaultWorkloads
	}
}

// Outcome is one (workload, engine, seed) verdict.
type Outcome struct {
	Workload string
	Engine   core.Engine
	Seed     uint64
	Plan     inject.Plan
	// Failure is empty on a pass; otherwise the first check that failed.
	Failure string
	// Keep is the minimal failing subset of plan indices (empty means the
	// engine fails with no injected faults at all); nil until shrunk.
	Keep []int
	// MinFailure is the failure observed on the minimal subset.
	MinFailure string
	// Repro is a self-contained command replaying the minimal failure.
	Repro string
}

// Failed reports whether the run failed any check.
func (o *Outcome) Failed() bool { return o.Failure != "" }

// Explore sweeps the configured seeds over every (workload, engine) pair.
// The outcome order is deterministic: workloads × engines × seeds, each in
// configuration order.
func Explore(cfg Config) ([]Outcome, error) {
	cfg.fill()
	var out []Outcome
	for _, wn := range cfg.Workloads {
		w, err := WorkloadByName(wn)
		if err != nil {
			return nil, err
		}
		ref, err := goldenRun(w)
		if err != nil {
			return nil, fmt.Errorf("chaos: sequential golden for %q: %w", wn, err)
		}
		for _, eng := range cfg.Engines {
			for _, seed := range cfg.Seeds {
				out = append(out, exploreOne(cfg, w, ref, eng, seed))
			}
		}
	}
	return out, nil
}

// goldenRun computes the sequential reference for a workload.
func goldenRun(w *Workload) (*core.Report, error) {
	return core.Simulate(w.C, w.Stim, w.Until, core.Options{
		Engine: core.EngineSeq, System: logic.TwoValued,
	})
}

// exploreOne runs one seed and shrinks on failure.
func exploreOne(cfg Config, w *Workload, ref *core.Report, eng core.Engine, seed uint64) Outcome {
	plan := inject.NewPlan(seed, cfg.LPs, cfg.Faults)
	run := func(p inject.Plan) string {
		hook := inject.NewHook(seed, p)
		hook.LookaheadBias = cfg.LookaheadBias
		return runOnce(w, eng, ref, cfg.LPs, cfg.MaxEvents, hook)
	}
	o := Outcome{Workload: w.Name, Engine: eng, Seed: seed, Plan: plan}
	o.Failure = run(plan)
	if o.Failure == "" {
		return o
	}
	o.Keep, o.MinFailure = Shrink(plan, o.Failure, run, shrinkBudget)
	o.Repro = reproLine(cfg, &o)
	return o
}

// runOnce executes one perturbed run and applies every check: engine
// error, transport-level protocol violations, golden waveform and final
// values, and counter conservation. It returns the first failure, or "".
func runOnce(w *Workload, eng core.Engine, ref *core.Report, lps int, maxEvents uint64, hook *inject.Hook) string {
	rep, err := core.Simulate(w.C, w.Stim, w.Until, core.Options{
		Engine: eng, LPs: lps, Partition: partition.MethodFM, PartitionSeed: 11,
		System: logic.TwoValued, MaxEvents: maxEvents, Chaos: hook,
	})
	// Transport-level violations are checked before the engine error:
	// message contents and per-sender batch order are schedule-independent,
	// so a violation yields the same failure text on every run, whereas a
	// broken engine's own failure mode (straggler abort vs silently wrong
	// waveform) can depend on how far the receiver happened to advance.
	if v := hook.Violations(); len(v) > 0 {
		s := "protocol violation: " + v[0]
		if len(v) > 1 {
			s += fmt.Sprintf(" (+%d more)", len(v)-1)
		}
		return s
	}
	if err != nil {
		return fmt.Sprintf("engine error: %v", err)
	}
	if d := trace.Diff(ref.Waveform, rep.Waveform, 5); d != "" {
		return "waveform mismatch vs sequential:\n" + d
	}
	for g := range ref.Values {
		if ref.Values[g] != rep.Values[g] {
			return fmt.Sprintf("final value mismatch at gate %d (%q): seq=%v got=%v",
				g, w.C.Gates[g].Name, ref.Values[g], rep.Values[g])
		}
	}
	if rep.Metrics == nil {
		return "metrics report not populated"
	}
	tot := rep.Metrics.Counters()
	seqEvals := ref.SeqWork.Evaluations

	// Conservative engines do exactly the sequential work under any
	// schedule (safe processing is schedule-independent); optimistic
	// engines may only add rollback re-execution.
	switch eng {
	case core.EngineCMB, core.EngineCMBDemand, core.EngineCMBDetect:
		if tot.Evaluations != seqEvals {
			return fmt.Sprintf("evaluations %d != sequential %d", tot.Evaluations, seqEvals)
		}
	default:
		if tot.Evaluations < seqEvals {
			return fmt.Sprintf("evaluations %d < sequential %d (lost work)", tot.Evaluations, seqEvals)
		}
	}
	// Message conservation (lazy cancellation counts suppressed
	// regenerations as sent, so only >= holds there).
	if eng == core.EngineTimeWarpLazy {
		if tot.MessagesSent < tot.MessagesRecv {
			return fmt.Sprintf("messages recv %d exceed sent %d", tot.MessagesRecv, tot.MessagesSent)
		}
	} else if tot.MessagesSent != tot.MessagesRecv {
		return fmt.Sprintf("messages sent %d != recv %d", tot.MessagesSent, tot.MessagesRecv)
	}
	if tot.NullsFolded > tot.NullsSent {
		return fmt.Sprintf("nulls folded %d exceed sent %d", tot.NullsFolded, tot.NullsSent)
	}
	if transmitted := tot.NullsSent - tot.NullsFolded; tot.NullsRecv > transmitted {
		return fmt.Sprintf("nulls recv %d exceed transmitted %d", tot.NullsRecv, transmitted)
	}
	if tot.AntiMessagesSent != tot.AntiMessagesRecv {
		return fmt.Sprintf("anti-messages sent %d != recv %d", tot.AntiMessagesSent, tot.AntiMessagesRecv)
	}
	return ""
}

// allIndices returns [0, n).
func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// planDigest is a deterministic fingerprint of a plan, for compact
// reporting.
func planDigest(p inject.Plan) string {
	h := fnv.New64a()
	for _, f := range p {
		fmt.Fprintln(h, f.String())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Render formats outcomes one per line. The output is a pure function of
// the outcomes' verdict-relevant fields, so two sweeps of the same
// configuration render byte-identically.
func Render(outs []Outcome) string {
	var b strings.Builder
	for i := range outs {
		o := &outs[i]
		verdict := "ok"
		if o.Failed() {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "workload=%s engine=%v seed=%d faults=%d plan=%s verdict=%s",
			o.Workload, o.Engine, o.Seed, len(o.Plan), planDigest(o.Plan), verdict)
		if o.Failed() {
			fmt.Fprintf(&b, " keep=%s", joinInts(o.Keep))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// joinInts renders indices as a semicolon list ("-" when empty).
func joinInts(idx []int) string {
	if len(idx) == 0 {
		return "-"
	}
	parts := make([]string, len(idx))
	for i, v := range idx {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ";")
}

// reproLine builds the self-contained replay command for a failure.
func reproLine(cfg Config, o *Outcome) string {
	spec := ReplaySpec{
		Workload: o.Workload,
		Engine:   o.Engine,
		Seed:     o.Seed,
		LPs:      cfg.LPs,
		Faults:   cfg.Faults,
		Bias:     cfg.LookaheadBias,
		Keep:     o.Keep,
	}
	return fmt.Sprintf("go test ./internal/simtest/chaos -run 'TestReplay$' -replay '%s'", spec)
}
