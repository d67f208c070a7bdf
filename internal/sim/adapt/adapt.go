// Package adapt implements closed-loop controllers that self-tune a
// running simulation: a hysteretic AIMD controller for the Time Warp
// optimism window (extending the memory-pressure clamp to a throughput
// objective), an engine-switch supervisor that migrates a job between
// the conservative and optimistic protocols from observed null/rollback
// ratios, and a load rebalancer that migrates whole LPs between workers
// from the per-LP utilization scoreboard. The source paper's future
// directions ask for exactly this: dynamic load estimation and runtime
// control of the synchronization mechanism instead of static flags.
// Each control law's thresholds are package constants, one documented
// const block beside its controller; Spec carries only what a run
// varies.
//
// # Determinism model
//
// Every controller is a pure function of the sampled-metrics trace it
// observes: feed the same sequence of Samples and it emits the same
// sequence of Decisions. Nothing here reads clocks, channels, or
// random state. That makes the policies testable open-loop — the unit
// harness in this package drives each controller from recorded JSON
// traces in testdata/ and pins the decision logs as goldens — without
// running a simulation at all.
//
// Live runs sample real metrics, whose values vary run to run, so live
// decision sequences may differ between runs. Correctness never
// depends on them: every engine reproduces the sequential trajectory
// exactly, so adaptation changes *when* things execute, never *what*
// is computed. The equivalence suite in internal/simtest/differ
// replays adaptive runs (with both live controllers and forced
// decision scripts) against the golden waveforms to enforce that.
package adapt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Sample is one observation of a run's metrics. The window controller
// consumes cumulative samples (one per GVT round, counters monotone
// within a run) and differences consecutive samples itself; the
// engine-switch and rebalance controllers consume per-segment samples
// whose counters are that segment's totals.
type Sample struct {
	// Round is the observation's sequence number: the GVT round for
	// in-run window samples, the segment index for boundary samples.
	Round int `json:"round"`
	// WallMs is wall-clock milliseconds since the run (or segment)
	// started — the denominator of committed-events/sec.
	WallMs float64 `json:"wall_ms"`
	// GVT is the global virtual time at the sample (window samples).
	GVT uint64 `json:"gvt,omitempty"`
	// Engine names the engine that produced the sample.
	Engine string `json:"engine,omitempty"`

	EventsApplied    uint64 `json:"events_applied"`
	EventsRolledBack uint64 `json:"events_rolled_back,omitempty"`
	Rollbacks        uint64 `json:"rollbacks,omitempty"`
	NullsSent        uint64 `json:"nulls_sent,omitempty"`
	MessagesSent     uint64 `json:"messages_sent,omitempty"`

	// Clamp is the memory-throttle window in force at the sample (0 =
	// none). The window controller must never adapt against it.
	Clamp uint64 `json:"clamp,omitempty"`
	// PerLPEvals is the per-LP utilization scoreboard (evaluations per
	// logical process) for rebalance samples.
	PerLPEvals []uint64 `json:"per_lp_evals,omitempty"`
}

// Decision is one structured controller action, both the in-memory
// decision-log entry of core.Report and the JSON golden format of the
// open-loop harness.
type Decision struct {
	// Round echoes the triggering Sample's sequence number (for
	// scripted decisions: the segment boundary index the decision
	// fires at).
	Round int `json:"round"`
	// Kind is "window", "switch", "rebalance", "commit", or "hold".
	Kind string `json:"kind"`
	// From and To name engines for "switch" decisions.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Window is the new optimism window for "window" decisions
	// (0 = unbounded).
	Window uint64 `json:"window,omitempty"`
	// Reason is the human-readable trigger, stable enough to golden.
	Reason string `json:"reason"`
}

// The decision kinds.
const (
	KindWindow    = "window"
	KindSwitch    = "switch"
	KindRebalance = "rebalance"
	KindCommit    = "commit"
	KindHold      = "hold"
)

// String renders the decision for logs.
func (d Decision) String() string {
	switch d.Kind {
	case KindSwitch:
		return fmt.Sprintf("round %d: switch %s -> %s (%s)", d.Round, d.From, d.To, d.Reason)
	case KindWindow:
		if d.Window == 0 {
			return fmt.Sprintf("round %d: window -> unbounded (%s)", d.Round, d.Reason)
		}
		return fmt.Sprintf("round %d: window -> %d (%s)", d.Round, d.Window, d.Reason)
	default:
		return fmt.Sprintf("round %d: %s (%s)", d.Round, d.Kind, d.Reason)
	}
}

// Spec is the adaptive-control configuration, parseable from the
// -adapt-spec JSON. The zero value (plus WithDefaults) enables all
// three controllers, whose thresholds are package constants.
type Spec struct {
	// Every is the adaptation cadence in modeled time: segment
	// boundaries where the engine-switch and rebalance controllers may
	// act fall on multiples of it. 0 defaults to a quarter of the
	// horizon. The window controller is not segmented — it acts inside
	// the run, once per GVT round.
	Every uint64 `json:"every,omitempty"`
	// MaxProbes bounds the number of probing segments: after this many
	// boundary decisions the current engine is committed and the run
	// proceeds unsegmented to the horizon (so adaptation overhead is
	// paid only while the controllers are still deciding). 0 defaults
	// to 4.
	MaxProbes int `json:"max_probes,omitempty"`

	// NoWindow, NoSwitch, and NoRebalance disable individual
	// controllers.
	NoWindow    bool `json:"no_window,omitempty"`
	NoSwitch    bool `json:"no_switch,omitempty"`
	NoRebalance bool `json:"no_rebalance,omitempty"`

	// Script, when non-empty, replaces the boundary controllers with a
	// forced decision sequence: the entry whose Round equals the
	// segment-boundary index fires verbatim. The test harness uses it
	// to pin exact adaptation paths (the waveform must be identical
	// under any decision sequence).
	Script []Decision `json:"script,omitempty"`
}

// WithDefaults fills zero fields from the run horizon.
func (sp Spec) WithDefaults(until uint64) Spec {
	if sp.Every == 0 {
		sp.Every = until / 4
		if sp.Every == 0 {
			sp.Every = 1
		}
	}
	if sp.MaxProbes == 0 {
		sp.MaxProbes = 4
	}
	return sp
}

// Scripted returns the forced decision for a segment boundary, if any.
func (sp *Spec) Scripted(seg int) (Decision, bool) {
	for _, d := range sp.Script {
		if d.Round == seg {
			if d.Reason == "" {
				d.Reason = "scripted"
			}
			return d, true
		}
	}
	return Decision{}, false
}

// ParseSpec parses an -adapt-spec argument: inline JSON (first byte
// '{') or a path to a JSON file. A key Spec does not have is an error
// naming the key, not a setting silently ignored.
func ParseSpec(arg string) (*Spec, error) {
	data := []byte(arg)
	if len(arg) == 0 {
		return &Spec{}, nil
	}
	if arg[0] != '{' {
		b, err := os.ReadFile(arg)
		if err != nil {
			return nil, fmt.Errorf("adapt: read spec: %w", err)
		}
		data = b
	}
	sp := &Spec{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(sp); err != nil {
		return nil, fmt.Errorf("adapt: parse spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("adapt: parse spec: data after the JSON object")
	}
	return sp, nil
}

// ReadTrace loads a recorded metrics trace (a JSON array of Samples),
// the open-loop input of the controller test harness.
func ReadTrace(path string) ([]Sample, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr []Sample
	if err := json.Unmarshal(b, &tr); err != nil {
		return nil, fmt.Errorf("adapt: parse trace %s: %w", path, err)
	}
	return tr, nil
}

// sub returns a-b, clamped at zero (samples are expected monotone; a
// malformed trace must not wrap).
func sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// ratio divides delta counters with a zero-safe denominator.
func ratio(num, den uint64) float64 {
	if den == 0 {
		den = 1
	}
	return float64(num) / float64(den)
}
