// Package stats converts the per-logical-process work counters of package
// metrics into modeled execution times.
//
// The paper's Figure 1 reports wall-clock speedups measured on 1990s
// multiprocessors (BBN GP1000, iPSC, workstation networks). This
// reproduction runs on whatever host it is given — possibly a single core —
// so raw wall-clock cannot show parallel speedup. Instead, every engine
// counts the work each LP performs (evaluations, queue operations,
// cross-LP messages, null messages, rollbacks, state saving, barriers) in
// the unified metrics registry, and a cost model prices those counters
// into a modeled parallel runtime. This is the performance-prediction
// methodology of the synchronous-simulation literature the paper cites
// (Noble et al.): the absolute numbers are model-dependent, but the
// relative shape — which algorithm wins, where the crossovers fall — is
// what the experiments reproduce.
package stats

import (
	"fmt"
	"math"
	"time"

	"repro/internal/metrics"
)

// CostModel prices LP work counters in abstract nanoseconds. The defaults
// are loosely calibrated to a 1990s-class multiprocessor node: evaluation
// and queue costs in the tens of nanoseconds, message costs an order of
// magnitude higher, barriers higher still and growing with the processor
// count.
type CostModel struct {
	// EvalCost is the cost of one gate evaluation.
	EvalCost float64
	// EventCost is the cost of one pending-event-set operation.
	EventCost float64
	// MsgCost is the cost of sending or receiving one cross-LP message.
	MsgCost float64
	// NullCost is the cost of one null message (send or receive).
	NullCost float64
	// RollbackCost is the fixed cost of one rollback episode.
	RollbackCost float64
	// UndoCost is the per-undone-event cost of restoring state.
	UndoCost float64
	// AntiCost is the cost of one anti-message.
	AntiCost float64
	// StateSaveCost is the per-saved-word cost of state saving.
	StateSaveCost float64
	// BarrierBase and BarrierPerLevel price one barrier: Base +
	// PerLevel*ceil(log2 P), the usual tree-barrier scaling; the paper's
	// observation that barrier time "grows with processor population" is
	// this term.
	BarrierBase     float64
	BarrierPerLevel float64
	// GVTCost prices one global-virtual-time computation round, scaled the
	// same way as a barrier.
	GVTCost float64
	// BlockCost prices one blocked-wait episode (see
	// metrics.LPCounters.Blocks).
	BlockCost float64
}

// DefaultCostModel returns the calibration used by the experiments: a
// gate evaluation (including its share of queue handling) in the couple
// hundred nanosecond range of 1990s processors, messages roughly 2x an
// evaluation (shared-memory notification on a multiprocessor bus), and
// barriers several evaluations plus a per-level tree term.
func DefaultCostModel() CostModel {
	return CostModel{
		EvalCost:        250,
		EventCost:       100,
		MsgCost:         500,
		NullCost:        250,
		RollbackCost:    400,
		UndoCost:        100,
		AntiCost:        500,
		StateSaveCost:   25,
		BarrierBase:     1000,
		BarrierPerLevel: 400,
		GVTCost:         1500,
		BlockCost:       1200,
	}
}

// Busy prices the pure computation an LP performed (no barriers/GVT, which
// are global and added by the engine-specific run summaries).
func (m CostModel) Busy(s metrics.LPCounters) float64 {
	return m.EvalCost*float64(s.Evaluations) +
		m.EventCost*float64(s.EventsApplied+s.EventsScheduled) +
		m.MsgCost*float64(s.MessagesSent+s.MessagesRecv) +
		m.NullCost*float64(s.NullsSent+s.NullsRecv) +
		m.RollbackCost*float64(s.Rollbacks) +
		m.UndoCost*float64(s.EventsRolledBack) +
		m.AntiCost*float64(s.AntiMessagesSent+s.AntiMessagesRecv) +
		m.StateSaveCost*float64(s.StateSavedWords) +
		m.BlockCost*float64(s.Blocks)
}

// Barrier prices one barrier among p processors.
func (m CostModel) Barrier(p int) float64 {
	return m.BarrierBase + m.BarrierPerLevel*ceilLog2(p)
}

// GVT prices one GVT round among p processors.
func (m CostModel) GVT(p int) float64 {
	return m.GVTCost * (1 + ceilLog2(p))
}

func ceilLog2(p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p)))
}

// RunStats aggregates one run: a snapshot of the metrics registry in the
// form the cost model prices.
type RunStats struct {
	LPs []metrics.LPCounters
	// Barriers counts global barrier episodes (synchronous engine).
	Barriers uint64
	// GVTRounds counts GVT computations (optimistic engine).
	GVTRounds uint64
	// ModeledCritical is Σ_steps max_LP(step work): the engine-computed
	// critical path of a barrier-synchronized run. Engines that do not
	// track per-step maxima leave it zero and the modeled time falls back
	// to the busiest-LP bound.
	ModeledCritical float64
	// Wall is the measured host wall-clock time (reported, not used for
	// speedup).
	Wall time.Duration
}

// Collect snapshots a metrics sink into RunStats and stamps the wall time
// into the sink's globals. Engines call it once, after their worker
// goroutines have joined.
func Collect(m *metrics.Registry, wall time.Duration) RunStats {
	g := m.Globals()
	g.WallNs = wall.Nanoseconds()
	rs := RunStats{
		Barriers:        g.Barriers,
		GVTRounds:       g.GVTRounds,
		ModeledCritical: g.ModeledCriticalNs,
		Wall:            wall,
	}
	for i := 0; i < m.NumLPs(); i++ {
		rs.LPs = append(rs.LPs, m.LP(i).LPCounters)
	}
	return rs
}

// Total sums the per-LP counters.
func (r *RunStats) Total() metrics.LPCounters {
	var t metrics.LPCounters
	for _, lp := range r.LPs {
		t.Add(lp)
	}
	return t
}

// ModeledTime prices the run on p modeled processors: the larger of the
// engine's critical-path estimate and the busiest LP's work, plus global
// synchronization costs.
func (r *RunStats) ModeledTime(m CostModel) float64 {
	var busiest float64
	for _, lp := range r.LPs {
		if b := m.Busy(lp); b > busiest {
			busiest = b
		}
	}
	t := busiest
	if r.ModeledCritical > t {
		t = r.ModeledCritical
	}
	p := len(r.LPs)
	t += float64(r.Barriers) * m.Barrier(p)
	t += float64(r.GVTRounds) * m.GVT(p)
	return t
}

// SequentialTime prices the same workload executed on one processor with
// no parallel overheads: evaluations and queue operations only. Pass the
// counters of a sequential reference run.
func SequentialTime(m CostModel, evaluations, eventsApplied, eventsScheduled uint64) float64 {
	return m.EvalCost*float64(evaluations) +
		m.EventCost*float64(eventsApplied+eventsScheduled)
}

// Speedup divides the sequential model time by the parallel model time.
func Speedup(seqTime, parTime float64) float64 {
	if parTime <= 0 {
		return 0
	}
	return seqTime / parTime
}

// Summary renders the run's headline numbers for CLI output.
func (r *RunStats) Summary(m CostModel) string {
	t := r.Total()
	return fmt.Sprintf(
		"LPs=%d evals=%d events=%d msgs=%d nulls=%d rollbacks=%d undone=%d antis=%d barriers=%d gvt=%d modeled=%.0fns wall=%v",
		len(r.LPs), t.Evaluations, t.EventsApplied, t.MessagesSent, t.NullsSent,
		t.Rollbacks, t.EventsRolledBack, t.AntiMessagesSent, r.Barriers, r.GVTRounds,
		r.ModeledTime(m), r.Wall)
}
