package circuit

import "repro/internal/logic"

// Plane is the value-plane descriptor: everything an engine body generic
// over the value type V needs to know about V. Every engine is written
// once against a *Plane[V] and instantiated twice — Scalar evaluates one
// vector per gate operation, Wide evaluates 64 packed lanes — so the
// engines never name a plane-specific function themselves.
type Plane[V comparable] struct {
	// DefaultSystem is the logic system of a run that configures none.
	DefaultSystem logic.System
	// CheckSystem rejects a logic system V cannot represent.
	CheckSystem func(logic.System) error
	// Initial is the time-zero value of a net driven by a gate kind.
	Initial func(Kind, logic.System) V
	// InitState allocates the value and clock-sample planes of a fresh run.
	InitState func(*Circuit, logic.System) (val, prevClk []V)
	// EvalGate evaluates gate id against the planes.
	EvalGate func(c *Circuit, id GateID, val, prevClk []V) (out, clkSample V)
}

// System resolves a run's configured logic system on this plane: zero
// selects the plane's default, and a system V cannot hold is an error.
func (p *Plane[V]) System(sys logic.System) (logic.System, error) {
	if sys == 0 {
		sys = p.DefaultSystem
	}
	return sys, p.CheckSystem(sys)
}

// Scalar is the one-vector plane; it runs every logic system.
var Scalar = &Plane[logic.Value]{
	DefaultSystem: logic.NineValued,
	CheckSystem:   func(logic.System) error { return nil },
	Initial:       func(k Kind, sys logic.System) logic.Value { return sys.Project(InitialValue(k)) },
	InitState:     InitState,
	EvalGate:      EvalGate,
}

// Wide is the 64-lane plane. A lane holds {X,0,1,Z} only, so it runs the
// two- and four-valued systems.
var Wide = &Plane[logic.Word]{
	DefaultSystem: logic.FourValued,
	CheckSystem:   logic.CheckWide,
	Initial:       InitialWide,
	InitState:     InitStateWide,
	EvalGate:      EvalGateWide,
}
