package experiments

import (
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/logic"
	"repro/internal/vectors"
)

// nowf returns a monotonic wall-clock reading in seconds.
func nowf() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// eventqImpl maps the small integers used in tables to queue impls.
func eventqImpl(i int) eventq.Impl {
	switch i {
	case 1:
		return eventq.ImplCalendar
	case 2:
		return eventq.ImplWheel
	default:
		return eventq.ImplHeap
	}
}

// skewedWorkload builds stimulus in which the first quarter of the inputs
// toggle with probability 0.9 per vector and the rest with 0.02 — the
// hot-spot activity profile that makes structural load balancing fail.
func skewedWorkload(c *circuit.Circuit, vecs int, period circuit.Tick, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	stim := &vectors.Stimulus{End: circuit.Tick(vecs) * period}
	cur := map[circuit.GateID]logic.Value{}
	for _, in := range c.Inputs {
		v := logic.FromBool(rng.Intn(2) == 1)
		cur[in] = v
		stim.Changes = append(stim.Changes, vectors.Change{Time: 0, Input: in, Value: v})
	}
	hot := len(c.Inputs) / 4
	if hot < 1 {
		hot = 1
	}
	for k := 1; k <= vecs; k++ {
		t := circuit.Tick(k) * period
		for i, in := range c.Inputs {
			p := 0.02
			if i < hot {
				p = 0.9
			}
			if rng.Float64() < p {
				nv := logic.Not(cur[in])
				cur[in] = nv
				stim.Changes = append(stim.Changes, vectors.Change{Time: t, Input: in, Value: nv})
			}
		}
	}
	stim.Sort()
	return &workload{c: c, stim: stim, until: core.Horizon(c, stim)}, nil
}
