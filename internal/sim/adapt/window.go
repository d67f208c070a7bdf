package adapt

import "fmt"

// The window controller's control law. A first multiplicative decrease
// from the unbounded state adopts windowInitial; the adapted window then
// stays within [windowMin, windowMax), and additive increase that reaches
// windowMax releases it back to unbounded. A per-sample rollback ratio
// (events rolled back / events applied) above windowRollbackHi halves the
// window, one below windowRollbackLo widens it by windowStep, and the band
// between the two is the hysteresis deadband where the window holds. The
// throughput guard undoes an increase, even inside the deadband, when
// committed-events/sec drops by more than windowGuardPct in the sample
// after it.
const (
	windowInitial    = 1024
	windowMin        = 16
	windowMax        = 1 << 20
	windowStep       = 128
	windowRollbackHi = 0.25
	windowRollbackLo = 0.10
	windowGuardPct   = 0.30
)

// WindowController is the hysteretic throughput-seeking optimism-window
// controller: AIMD on the rollback ratio, with committed-events/sec as
// a guard objective. It extends the memory-pressure clamp rather than
// fighting it — while a clamp is in force the controller freezes (no
// growth) and adopts the clamp as its own setpoint, so the engine-side
// min-fold (configured window ∧ clamp ∧ adapted window) always
// resolves to the clamp. The zero ambient state is "unbounded"
// (window 0): the controller only engages when rollback pressure
// appears and fully releases when calm persists.
//
// Observe is a pure function of the sample stream: no clocks, no
// randomness. The coordinator calls it from a single goroutine, once
// per GVT round.
type WindowController struct {
	initial, max uint64 // windowInitial and windowMax outside this package's tests

	win      uint64 // current adapted window; 0 = unbounded
	have     bool   // prev is valid
	prev     Sample
	prevRate float64 // committed-events/ms of the previous sample
	haveRate bool
	grew     bool // last action was an additive increase

	changes int
	log     []Decision
}

// NewWindowController builds a controller in the unbounded state.
func NewWindowController() *WindowController {
	return newWindowController(windowInitial, windowMax)
}

// newWindowController is NewWindowController with other engage and
// release bounds, so a short trace can reach the release transition.
func newWindowController(initial, max uint64) *WindowController {
	return &WindowController{initial: initial, max: max}
}

// Window reports the current adapted window (0 = unbounded).
func (w *WindowController) Window() uint64 { return w.win }

// Changes reports how many times the window moved.
func (w *WindowController) Changes() int { return w.changes }

// Decisions returns the accumulated decision log.
func (w *WindowController) Decisions() []Decision { return w.log }

// ResetEpoch re-baselines the delta computation. The adaptive
// supervisor calls it between segments: each engine run restarts its
// counters from zero, so the first sample of a new run must not be
// differenced against the last sample of the previous one. The
// adapted window itself carries over.
func (w *WindowController) ResetEpoch() {
	w.have = false
	w.haveRate = false
	w.grew = false
}

// Observe feeds one cumulative sample and returns the adapted window
// and whether it changed.
func (w *WindowController) Observe(s Sample) (uint64, bool) {
	if !w.have {
		w.have, w.prev = true, s
		return w.win, false
	}
	dApplied := sub(s.EventsApplied, w.prev.EventsApplied)
	dRolled := sub(s.EventsRolledBack, w.prev.EventsRolledBack)
	dWall := s.WallMs - w.prev.WallMs
	w.prev = s
	if dApplied == 0 {
		// An idle round carries no signal; hold everything.
		return w.win, false
	}
	if dRolled > dApplied {
		dRolled = dApplied
	}
	rollback := float64(dRolled) / float64(dApplied)
	rate := float64(dApplied - dRolled)
	if dWall > 0 {
		rate /= dWall
	}
	prevRate, hadRate := w.prevRate, w.haveRate
	w.prevRate, w.haveRate = rate, true

	old := w.win
	var reason string
	switch {
	case s.Clamp != 0:
		// The memory clamp owns the window: freeze growth (growing a
		// target the clamp would instantly re-shrink is the livelock
		// the regression suite guards against) and adopt the clamp as
		// the controller's own setpoint so release starts from where
		// memory pressure left off.
		if w.win == 0 || w.win > s.Clamp {
			w.win = s.Clamp
			reason = fmt.Sprintf("memory clamp %d in force: adopt it", s.Clamp)
		}
		w.grew = false
	case rollback > windowRollbackHi:
		if w.win == 0 {
			w.win = w.initial
		} else {
			w.win /= 2
		}
		if w.win < windowMin {
			w.win = windowMin
		}
		reason = fmt.Sprintf("rollback ratio %.2f > %.2f: multiplicative decrease", rollback, windowRollbackHi)
		w.grew = false
	case w.grew && hadRate && prevRate > 0 && rate < prevRate*(1-windowGuardPct):
		// The last increase cost throughput even though rollbacks stayed
		// in band; undo it.
		w.win /= 2
		if w.win < windowMin {
			w.win = windowMin
		}
		reason = fmt.Sprintf("committed rate fell %.0f%% after increase: back off",
			100*(1-rate/prevRate))
		w.grew = false
	case rollback < windowRollbackLo && w.win != 0:
		w.win += windowStep
		w.grew = true
		if w.win >= w.max {
			w.win = 0
			w.grew = false
			reason = fmt.Sprintf("rollback ratio %.2f < %.2f at max: release to unbounded", rollback, windowRollbackLo)
		} else {
			reason = fmt.Sprintf("rollback ratio %.2f < %.2f: additive increase", rollback, windowRollbackLo)
		}
	default:
		// Hysteresis deadband (or already unbounded and calm): hold.
		w.grew = false
	}
	if w.win == old {
		return w.win, false
	}
	w.changes++
	w.log = append(w.log, Decision{Round: s.Round, Kind: KindWindow, Window: w.win, Reason: reason})
	return w.win, true
}

// ReplayWindow drives a fresh window controller over a recorded trace
// and returns its decision log — the open-loop harness entry point.
func ReplayWindow(tr []Sample) []Decision {
	w := NewWindowController()
	for _, s := range tr {
		w.Observe(s)
	}
	return w.log
}
