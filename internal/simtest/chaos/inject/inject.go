// Package inject is the engine-facing half of the chaos harness: seeded
// fault plans, a perturbing Transport wrapper for the per-LP mailboxes,
// and stall points at LP phase boundaries.
//
// It deliberately imports nothing above the transport layer (only
// internal/mpsc), so the asynchronous engines can depend on it without a
// cycle: engines import inject, the chaos runner imports core, core
// imports the engines.
//
// Everything is driven by one PCG seed. A Plan is a pure function of
// (seed, LP count, fault count); the reorder permutations are derived from
// (seed, LP, drain ordinal). A failure is therefore replayable from the
// integers in its repro line alone.
//
// The wrapper only perturbs *commutable* deliveries: messages from
// different senders may be delayed or permuted past each other, but the
// per-sender FIFO order is never broken. Both protocols depend on that
// order — conservative receivers interpret a null message as a bound on
// every *later* message from the same sender, and Time Warp annihilation
// assumes an anti-message arrives after its original — so breaking it
// would inject failures the real transport cannot produce. Cross-sender
// order carries no protocol meaning, which is exactly why perturbing it is
// a fair (and interesting) adversary.
package inject

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
)

// Kind classifies a message for the chaos transport.
type Kind uint8

const (
	// Value is simulation payload (a value or anti-message): a member of
	// its sender's FIFO stream whose Time is checked against promises.
	Value Kind = iota
	// Null is a conservative promise; Meta.Time carries the bound.
	Null
	// Aux is a protocol message that belongs to its sender's FIFO stream
	// but has no timestamp semantics (demand-mode promise requests).
	Aux
	// Control is coordinator traffic (permits, GVT rounds, termination).
	// Control messages bypass the chaos transport entirely: they are not
	// part of any per-sender stream, and delaying them would perturb the
	// coordinator protocols themselves rather than the schedules they
	// observe.
	Control
)

// Phase names an LP execution boundary where a stall can be injected.
type Phase uint8

// The stallable phase boundaries.
const (
	PhaseEvaluate Phase = iota
	PhaseBlock
	PhaseRollback

	// numPlanPhases bounds NewPlan's draw: sites declared after it are
	// reachable from hand-written plans only, so adding one leaves every
	// seeded plan as it was.
	numPlanPhases

	// PhaseWake is the deadlock-recovery wake boundary: the LP has drained
	// what woke it but still counts as blocked on the quiescence ledger.
	PhaseWake
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseEvaluate:
		return "evaluate"
	case PhaseBlock:
		return "block"
	case PhaseRollback:
		return "rollback"
	case PhaseWake:
		return "wake"
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// Op is a fault kind.
type Op uint8

// The fault kinds.
const (
	// OpDelay holds the (Src → LP) message stream starting at that
	// stream's batch number Seq for N receiver drains. Holding the whole
	// stream suffix (not just one batch) is what preserves per-sender
	// FIFO.
	OpDelay Op = iota
	// OpSplit delivers batch Seq of the (Src → LP) stream as two halves
	// with a scheduling yield between them, so another sender can slip a
	// batch into the gap.
	OpSplit
	// OpReorder permutes the per-sender groups of the LP's drain number
	// Seq (stable within each sender).
	OpReorder
	// OpStall spins the LP for N scheduling yields at its Seq-th crossing
	// of Phase.
	OpStall
)

// Fault is one planned perturbation.
type Fault struct {
	Op    Op
	LP    int    // receiving LP (delay/split/reorder) or stalling LP
	Src   int    // sending LP (delay/split)
	Seq   uint64 // batch, drain, or phase-crossing ordinal (0-based)
	N     uint64 // hold drains (delay) or yield count (stall)
	Phase Phase  // stall site (stall only)
}

// String renders the fault compactly and deterministically.
func (f Fault) String() string {
	switch f.Op {
	case OpDelay:
		return fmt.Sprintf("delay(lp%d<-lp%d batch %d, %d drains)", f.LP, f.Src, f.Seq, f.N)
	case OpSplit:
		return fmt.Sprintf("split(lp%d<-lp%d batch %d)", f.LP, f.Src, f.Seq)
	case OpReorder:
		return fmt.Sprintf("reorder(lp%d drain %d)", f.LP, f.Seq)
	case OpStall:
		return fmt.Sprintf("stall(lp%d %s #%d, %d yields)", f.LP, f.Phase, f.Seq, f.N)
	}
	return fmt.Sprintf("Fault(op=%d)", uint8(f.Op))
}

// Plan is an ordered fault list. Order matters only for shrinking: the
// minimal failing subset is reported as indices into the plan.
type Plan []Fault

// NewPlan derives a fault plan from a seed. It is a pure function of its
// arguments — same seed, same plan, on every run and platform.
func NewPlan(seed uint64, lps, faults int) Plan {
	if lps < 1 {
		lps = 1
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	plan := make(Plan, 0, faults)
	for i := 0; i < faults; i++ {
		f := Fault{LP: rng.IntN(lps)}
		switch r := rng.Float64(); {
		case r < 0.40:
			f.Op = OpDelay
			f.Src = rng.IntN(lps)
			f.Seq = uint64(rng.IntN(24))
			f.N = 1 + uint64(rng.IntN(8))
		case r < 0.60:
			f.Op = OpSplit
			f.Src = rng.IntN(lps)
			f.Seq = uint64(rng.IntN(32))
		case r < 0.80:
			f.Op = OpReorder
			f.Seq = uint64(rng.IntN(48))
		default:
			f.Op = OpStall
			f.Phase = Phase(rng.IntN(int(numPlanPhases)))
			f.Seq = uint64(rng.IntN(64))
			f.N = 1 + uint64(rng.IntN(256))
		}
		plan = append(plan, f)
	}
	return plan
}

// Meta is what the chaos transport knows about a message: its protocol
// role, its sender, and (for Value/Null) its timestamp. Engines provide a
// msg → Meta projection when wrapping their inboxes.
type Meta struct {
	Kind Kind
	From int
	Time uint64
}

// stallKey indexes stall faults by site.
type stallKey struct {
	lp int
	ph Phase
}

// Hook is one run's chaos state: the plan, the per-site stall schedule,
// and the accumulated protocol violations. A single Hook is shared by
// every LP of a run; all methods are safe for concurrent use, and a nil
// *Hook is inert (engines call Stall unconditionally).
type Hook struct {
	// LookaheadBias inflates every conservative link lookahead by this
	// many ticks when the cmb engine is built with this hook. It is a
	// sabotage knob for the harness's own tests: a positive bias makes the
	// engine promise more than it can keep, which the transport's promise
	// checker must catch.
	LookaheadBias uint64
	// PanicLP, when >= 0, panics that LP's goroutine at its first
	// PhaseEvaluate crossing. The panic fires once per Hook lifetime —
	// Rearm does not reload it — so a supervisor retry of the same hook
	// models a transient fault that does not recur.
	PanicLP int
	// HangLP, when >= 0, parks that LP at its first PhaseEvaluate
	// crossing until Release is called (engines release from their abort
	// paths, so a watchdog abort always unblocks it). Unlike PanicLP the
	// hang is rearmed by Rearm: every retried attempt hangs again,
	// modeling a permanent stall that only an engine fallback survives.
	HangLP int

	seed uint64
	plan Plan

	mu         sync.Mutex
	violations []string
	fired      []string

	stallMu  sync.Mutex
	stallCnt map[stallKey]uint64
	stalls   map[stallKey][]Fault

	faultMu  sync.Mutex
	panicked bool          // PanicLP already fired (never rearmed)
	hung     bool          // HangLP already fired this attempt
	hangCh   chan struct{} // closed by Release; recreated by Rearm
}

// NewHook builds the shared chaos state for one run.
func NewHook(seed uint64, plan Plan) *Hook {
	h := &Hook{
		PanicLP:  -1,
		HangLP:   -1,
		seed:     seed,
		plan:     plan,
		stallCnt: map[stallKey]uint64{},
		stalls:   map[stallKey][]Fault{},
		hangCh:   make(chan struct{}),
	}
	for _, f := range plan {
		if f.Op == OpStall {
			k := stallKey{f.LP, f.Phase}
			h.stalls[k] = append(h.stalls[k], f)
		}
	}
	return h
}

// Seed returns the hook's seed.
func (h *Hook) Seed() uint64 { return h.seed }

// Plan returns the hook's fault plan (not a copy; callers must not
// mutate it).
func (h *Hook) Plan() Plan { return h.plan }

// Stall yields the calling LP goroutine if the plan schedules a stall at
// this crossing of the phase boundary. Safe on a nil receiver, so engines
// call it unconditionally.
func (h *Hook) Stall(lp int, ph Phase) {
	if h == nil {
		return
	}
	if ph == PhaseEvaluate {
		h.maybePanic(lp)
		h.maybeHang(lp)
	}
	k := stallKey{lp, ph}
	h.stallMu.Lock()
	fs := h.stalls[k]
	if len(fs) == 0 {
		h.stallMu.Unlock()
		return
	}
	c := h.stallCnt[k]
	h.stallCnt[k] = c + 1
	var spin uint64
	var hit Fault
	for _, f := range fs {
		if f.Seq == c {
			spin += f.N
			hit = f
		}
	}
	h.stallMu.Unlock()
	if spin == 0 {
		return
	}
	h.noteFired(hit.String())
	for i := uint64(0); i < spin; i++ {
		runtime.Gosched()
	}
}

// maybePanic fires the one-shot PanicLP fault.
func (h *Hook) maybePanic(lp int) {
	if h.PanicLP != lp {
		return
	}
	h.faultMu.Lock()
	fire := !h.panicked
	h.panicked = true
	h.faultMu.Unlock()
	if fire {
		h.noteFired(fmt.Sprintf("panic(lp%d evaluate)", lp))
		panic(fmt.Sprintf("chaos: injected panic at lp %d", lp))
	}
}

// maybeHang parks the HangLP fault's LP until Release.
func (h *Hook) maybeHang(lp int) {
	if h.HangLP != lp {
		return
	}
	h.faultMu.Lock()
	fire := !h.hung
	h.hung = true
	ch := h.hangCh
	h.faultMu.Unlock()
	if fire {
		h.noteFired(fmt.Sprintf("hang(lp%d evaluate)", lp))
		<-ch
	}
}

// Release unblocks a parked HangLP fault. Engines call it from their
// abort-everything path, so a watchdog or failure abort never leaves
// the hung LP goroutine (and the run's WaitGroup) blocked forever. Safe
// on a nil receiver and idempotent per attempt.
func (h *Hook) Release() {
	if h == nil {
		return
	}
	h.faultMu.Lock()
	select {
	case <-h.hangCh:
	default:
		close(h.hangCh)
	}
	h.faultMu.Unlock()
}

// Rearm resets the per-attempt fault state so a supervisor can retry
// with the same hook: the hang fires again (a permanent stall), stall
// schedules restart from crossing zero, but a fired panic stays fired
// (a transient fault). Safe on a nil receiver.
func (h *Hook) Rearm() {
	if h == nil {
		return
	}
	h.faultMu.Lock()
	h.hung = false
	h.hangCh = make(chan struct{})
	h.faultMu.Unlock()
	h.stallMu.Lock()
	h.stallCnt = map[stallKey]uint64{}
	h.stallMu.Unlock()
}

// violate records a protocol violation (bounded; the first entries are
// what matter).
func (h *Hook) violate(s string) {
	h.mu.Lock()
	if len(h.violations) < 64 {
		h.violations = append(h.violations, s)
	}
	h.mu.Unlock()
}

// Violations returns the protocol violations the chaos transports
// detected, in detection order.
func (h *Hook) Violations() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.violations))
	copy(out, h.violations)
	return out
}

// noteFired records that a planned fault actually triggered.
func (h *Hook) noteFired(s string) {
	h.mu.Lock()
	if len(h.fired) < 1024 {
		h.fired = append(h.fired, s)
	}
	h.mu.Unlock()
}

// Fired returns the faults that triggered, sorted for stable display.
// Which faults trigger can depend on runtime scheduling (batch boundaries
// are timing-dependent), so Fired is diagnostic — verdicts must not be
// derived from it.
func (h *Hook) Fired() []string {
	h.mu.Lock()
	out := make([]string, len(h.fired))
	copy(out, h.fired)
	h.mu.Unlock()
	sortStrings(out)
	return out
}

// sortStrings is a tiny insertion sort; fired lists are short and this
// avoids importing sort just for it.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
