package adapt

import (
	"fmt"
	"strings"
)

// The engine-switch supervisor's control law. A segment of a conservative
// engine with more than switchNullHi nulls per applied event is null-bound
// and migrates to switchOptimistic; one of an optimistic engine with more
// than switchRollbackHi events rolled back per applied event is
// rollback-bound and migrates to switchConservative. A switch fires on
// the first breaching segment and is followed by switchCooldown
// boundaries that are not judged while the new engine warms up.
// switchSettleAfter consecutive in-band segments commit the current
// engine, ending probing and with it all segmentation overhead. Segments
// with fewer than switchMinEvents applied events carry too little signal
// to act on.
const (
	switchNullHi       = 4.0
	switchRollbackHi   = 0.35
	switchCooldown     = 1
	switchSettleAfter  = 2
	switchMinEvents    = 64
	switchConservative = "cmb"
	switchOptimistic   = "timewarp"
)

// SwitchController decides engine migrations at segment boundaries
// from per-segment samples (counters are segment totals, not
// cumulative). Like every controller here it is a pure function of
// its sample stream.
type SwitchController struct {
	stays    int // consecutive in-band segments
	cooldown int
	log      []Decision
}

// NewSwitchController builds a controller.
func NewSwitchController() *SwitchController {
	return &SwitchController{}
}

// Decisions returns the accumulated decision log (including holds).
func (c *SwitchController) Decisions() []Decision { return c.log }

// conservativeEngine classifies an engine name by protocol family.
func conservativeEngine(name string) bool {
	return strings.HasPrefix(name, "cmb") || name == "sync"
}

func optimisticEngine(name string) bool {
	return strings.HasPrefix(name, "timewarp") || name == "hybrid"
}

// Observe feeds one per-segment sample. It returns a Decision and
// whether the caller must act on it ("switch" and "commit" act;
// "hold" entries are returned with acted=false but still logged).
func (c *SwitchController) Observe(s Sample) (Decision, bool) {
	hold := func(reason string) (Decision, bool) {
		d := Decision{Round: s.Round, Kind: KindHold, Reason: reason}
		c.log = append(c.log, d)
		return d, false
	}
	if c.cooldown > 0 {
		c.cooldown--
		return hold("cooling down after switch")
	}
	if s.EventsApplied < switchMinEvents {
		return hold(fmt.Sprintf("only %d events in segment: no signal", s.EventsApplied))
	}
	nullR := ratio(s.NullsSent, s.EventsApplied)
	rollR := ratio(s.EventsRolledBack, s.EventsApplied)
	var breach bool
	var target, why string
	switch {
	case conservativeEngine(s.Engine) && nullR > switchNullHi:
		breach = true
		target = switchOptimistic
		why = fmt.Sprintf("null ratio %.1f > %.1f", nullR, switchNullHi)
	case optimisticEngine(s.Engine) && rollR > switchRollbackHi:
		breach = true
		target = switchConservative
		why = fmt.Sprintf("rollback ratio %.2f > %.2f", rollR, switchRollbackHi)
	}
	if !breach {
		c.stays++
		if c.stays >= switchSettleAfter {
			d := Decision{Round: s.Round, Kind: KindCommit,
				Reason: fmt.Sprintf("%s in band for %d segments: commit", s.Engine, c.stays)}
			c.log = append(c.log, d)
			return d, true
		}
		return hold(fmt.Sprintf("%s in band (nulls %.1f/evt, rollback %.2f)", s.Engine, nullR, rollR))
	}
	c.stays = 0
	if target == s.Engine {
		return hold(why + ": already on target engine")
	}
	c.cooldown = switchCooldown
	d := Decision{Round: s.Round, Kind: KindSwitch, From: s.Engine, To: target, Reason: why}
	c.log = append(c.log, d)
	return d, true
}

// ReplaySwitch drives a fresh switch controller over a recorded trace
// and returns its decision log.
func ReplaySwitch(tr []Sample) []Decision {
	c := NewSwitchController()
	for _, s := range tr {
		c.Observe(s)
	}
	return c.log
}
