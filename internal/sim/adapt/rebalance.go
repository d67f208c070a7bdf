package adapt

import "fmt"

// The load rebalancer's control law. A segment whose busiest LP carries
// more than rebalanceImbalanceHi times the mean evaluation count triggers
// a rebalance, unless the segment's total work is under rebalanceMinEvals.
// After a rebalance rebalanceCooldown boundaries are skipped, and a run
// rebalances at most rebalanceMaxMoves times.
const (
	rebalanceImbalanceHi = 1.5
	rebalanceMinEvals    = 256
	rebalanceCooldown    = 1
	rebalanceMaxMoves    = 2
)

// Rebalancer decides LP migrations at segment boundaries from the
// per-LP utilization scoreboard (Sample.PerLPEvals, segment totals).
// It only decides *that* placement must change; the supervisor turns
// the same utilization vector into measured partitioner weights, so
// the next segment's partition spreads observed load instead of
// static estimates. A pure function of its sample stream.
type Rebalancer struct {
	cooldown int
	moves    int
	log      []Decision
}

// NewRebalancer builds a rebalancer.
func NewRebalancer() *Rebalancer {
	return &Rebalancer{}
}

// Decisions returns the accumulated decision log.
func (r *Rebalancer) Decisions() []Decision { return r.log }

// Observe feeds one per-segment utilization sample; acted is true for
// a "rebalance" decision the caller must apply.
func (r *Rebalancer) Observe(s Sample) (Decision, bool) {
	hold := func(reason string) (Decision, bool) {
		d := Decision{Round: s.Round, Kind: KindHold, Reason: reason}
		r.log = append(r.log, d)
		return d, false
	}
	if r.cooldown > 0 {
		r.cooldown--
		return hold("cooling down after rebalance")
	}
	if r.moves >= rebalanceMaxMoves {
		return hold("rebalance budget exhausted")
	}
	if len(s.PerLPEvals) < 2 {
		return hold("fewer than two LPs: nothing to balance")
	}
	var total, max uint64
	busiest := 0
	for i, v := range s.PerLPEvals {
		total += v
		if v > max {
			max, busiest = v, i
		}
	}
	if total < rebalanceMinEvals {
		return hold(fmt.Sprintf("only %d evaluations in segment: no signal", total))
	}
	mean := float64(total) / float64(len(s.PerLPEvals))
	imb := float64(max) / mean
	if imb <= rebalanceImbalanceHi {
		return hold(fmt.Sprintf("imbalance %.2f within %.2f", imb, rebalanceImbalanceHi))
	}
	r.cooldown = rebalanceCooldown
	r.moves++
	d := Decision{Round: s.Round, Kind: KindRebalance,
		Reason: fmt.Sprintf("lp %d carries %.2fx the mean load: repartition on measured weights", busiest, imb)}
	r.log = append(r.log, d)
	return d, true
}

// ReplayRebalance drives a fresh rebalancer over a recorded trace and
// returns its decision log.
func ReplayRebalance(tr []Sample) []Decision {
	r := NewRebalancer()
	for _, s := range tr {
		r.Observe(s)
	}
	return r.log
}
