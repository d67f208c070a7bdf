package cmb

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/dist/wire"
	"repro/internal/logic"
)

// checkDist validates a distributed configuration. The null-message
// modes distribute cleanly — promises are point-to-point and carry their
// own bounds, so the protocol is oblivious to which side of a socket a
// neighbour lives on — but DeadlockRecovery detects quiescence on a
// mutex-guarded ledger of every LP's blocked state, which has no sound
// per-shard restriction: a remote LP's park and wake would have to be
// observed atomically with the local ones. Distributed runs therefore
// keep to the null modes.
func checkDist(cfg Config) error {
	if cfg.Dist == nil {
		return nil
	}
	if cfg.Mode == DeadlockRecovery {
		return fmt.Errorf("cmb: distributed runs do not support deadlock-recovery mode (the quiescence ledger is one process's memory)")
	}
	return nil
}

// wireEncScalar projects a scalar conservative message onto the wire
// format. Conservative messages carry no identity, so ID stays zero.
func wireEncScalar(m msg[logic.Value]) wire.Msg {
	return wire.Msg{
		Kind:  uint8(m.kind),
		From:  int32(m.from),
		Time:  uint64(m.time),
		Gate:  int32(m.gate),
		Value: uint8(m.value),
	}
}

// wireDecScalar is the inverse projection.
func wireDecScalar(w wire.Msg) msg[logic.Value] {
	return msg[logic.Value]{
		kind:  msgKind(w.Kind),
		from:  int(w.From),
		time:  circuit.Tick(w.Time),
		gate:  circuit.GateID(w.Gate),
		value: logic.Value(w.Value),
	}
}
