// Package metrics is the unified instrumentation layer every simulation
// engine reports into: typed work counters, per-LP histograms, run-level
// gauges, and a machine-readable report.
//
// The paper's central evidence (Figure 1, Section V) is built entirely on
// per-LP work accounting — events, null messages, rollbacks, barrier
// waits — so those counters are first-class here rather than ad-hoc
// per-engine structs. The design keeps the hot path allocation-free: an
// engine asks its Sink once, at setup, for one *LPBlock per logical
// process, and every subsequent increment is a plain add on a struct field
// the LP goroutine exclusively owns. No atomics, no maps, no interface
// calls per event. Aggregation (totals, reports, cost-model pricing)
// happens once, after the run.
//
// Ownership rules:
//   - LP(i) is called during single-threaded engine setup only.
//   - Each *LPBlock is written by exactly one goroutine at a time (the
//     goroutine running that LP).
//   - Globals() fields are written by the run's coordinator/main goroutine.
//   - SetGauge and SetLabel are cold-path and must not race with readers;
//     engines call them after their worker goroutines have joined.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
)

// Counter identifies one of the canonical work counters. The enum exists
// for generic iteration (reports, totals); hot paths increment the named
// LPCounters fields directly.
type Counter uint8

// The canonical counters. Their meanings match the paper's work model:
// evaluations and queue operations are useful work, messages/nulls/
// anti-messages/rollbacks/state saving/blocking are the synchronization
// overheads the algorithms trade against each other.
const (
	Evaluations Counter = iota
	EventsApplied
	EventsScheduled
	MessagesSent
	MessagesRecv
	NullsSent
	NullsRecv
	Rollbacks
	EventsRolledBack
	AntiMessagesSent
	AntiMessagesRecv
	StateSaves
	StateSavedWords
	Steps
	Blocks
	NullsFolded
	PoolHits
	PoolMisses

	NumCounters
)

var counterNames = [NumCounters]string{
	"evaluations",
	"events_applied",
	"events_scheduled",
	"messages_sent",
	"messages_recv",
	"nulls_sent",
	"nulls_recv",
	"rollbacks",
	"events_rolled_back",
	"anti_messages_sent",
	"anti_messages_recv",
	"state_saves",
	"state_saved_words",
	"steps",
	"blocks",
	"nulls_folded",
	"pool_hits",
	"pool_misses",
}

// String returns the counter's stable report key.
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", uint8(c))
}

// LPCounters is one logical process's counter block. Fields are exported
// and incremented directly by the owning goroutine — the zero-allocation
// hot path. The enum-indexed accessors serve the cold aggregation path.
type LPCounters struct {
	// Evaluations is the number of gate evaluations (including Time Warp
	// re-executions after rollback).
	Evaluations uint64
	// EventsApplied is the number of net-change events consumed.
	EventsApplied uint64
	// EventsScheduled is the number of future events enqueued.
	EventsScheduled uint64
	// MessagesSent / MessagesRecv count cross-LP value messages. Sent can
	// exceed recv: conservative runs terminate with messages still in
	// flight, and lazy cancellation counts a regenerated duplicate as sent
	// while suppressing its transmission (the receiver's copy stays valid).
	MessagesSent uint64
	MessagesRecv uint64
	// NullsSent / NullsRecv count conservative null messages.
	NullsSent uint64
	NullsRecv uint64
	// Rollbacks is the number of rollback episodes (Time Warp).
	Rollbacks uint64
	// EventsRolledBack counts events undone by rollbacks.
	EventsRolledBack uint64
	// AntiMessagesSent / AntiMessagesRecv count cancellation messages.
	AntiMessagesSent uint64
	AntiMessagesRecv uint64
	// StateSaves counts state-saving operations; StateSavedWords the
	// volume saved (in value-words), which differs sharply between full
	// copy and incremental saving.
	StateSaves      uint64
	StateSavedWords uint64
	// Steps is the number of timestep executions (including re-executions).
	Steps uint64
	// Blocks counts blocked-wait episodes: the LP had events it was not
	// allowed to process (conservative input-waiting rule) or nothing to
	// do, and parked until a message arrived.
	Blocks uint64
	// NullsFolded counts null messages superseded inside a send batch
	// before transmission: the conservative engine still accounts them as
	// sent (protocol work happened), but only the strongest promise per
	// flush reaches the wire, so transmitted nulls = NullsSent − NullsFolded.
	NullsFolded uint64
	// PoolHits / PoolMisses count hot-path record acquisitions served from
	// an engine free-list versus falling through to the allocator. A warm
	// run should be nearly all hits; misses measure pool warm-up and
	// high-water growth.
	PoolHits   uint64
	PoolMisses uint64
}

// Get reads one counter by enum.
func (s *LPCounters) Get(c Counter) uint64 {
	switch c {
	case Evaluations:
		return s.Evaluations
	case EventsApplied:
		return s.EventsApplied
	case EventsScheduled:
		return s.EventsScheduled
	case MessagesSent:
		return s.MessagesSent
	case MessagesRecv:
		return s.MessagesRecv
	case NullsSent:
		return s.NullsSent
	case NullsRecv:
		return s.NullsRecv
	case Rollbacks:
		return s.Rollbacks
	case EventsRolledBack:
		return s.EventsRolledBack
	case AntiMessagesSent:
		return s.AntiMessagesSent
	case AntiMessagesRecv:
		return s.AntiMessagesRecv
	case StateSaves:
		return s.StateSaves
	case StateSavedWords:
		return s.StateSavedWords
	case Steps:
		return s.Steps
	case Blocks:
		return s.Blocks
	case NullsFolded:
		return s.NullsFolded
	case PoolHits:
		return s.PoolHits
	case PoolMisses:
		return s.PoolMisses
	}
	return 0
}

// Add accumulates other into s.
func (s *LPCounters) Add(other LPCounters) {
	s.Evaluations += other.Evaluations
	s.EventsApplied += other.EventsApplied
	s.EventsScheduled += other.EventsScheduled
	s.MessagesSent += other.MessagesSent
	s.MessagesRecv += other.MessagesRecv
	s.NullsSent += other.NullsSent
	s.NullsRecv += other.NullsRecv
	s.Rollbacks += other.Rollbacks
	s.EventsRolledBack += other.EventsRolledBack
	s.AntiMessagesSent += other.AntiMessagesSent
	s.AntiMessagesRecv += other.AntiMessagesRecv
	s.StateSaves += other.StateSaves
	s.StateSavedWords += other.StateSavedWords
	s.Steps += other.Steps
	s.Blocks += other.Blocks
	s.NullsFolded += other.NullsFolded
	s.PoolHits += other.PoolHits
	s.PoolMisses += other.PoolMisses
}

// Each visits every counter in enum order.
func (s *LPCounters) Each(f func(Counter, uint64)) {
	for c := Counter(0); c < NumCounters; c++ {
		f(c, s.Get(c))
	}
}

// Map renders the block with stable report keys.
func (s *LPCounters) Map() map[string]uint64 {
	m := make(map[string]uint64, NumCounters)
	s.Each(func(c Counter, v uint64) { m[c.String()] = v })
	return m
}

// Hist identifies a per-LP histogram.
type Hist uint8

// The per-LP histograms.
const (
	// HistStepEvents is the number of events consumed per executed
	// timestep — the event simultaneity the paper's parallelism arguments
	// depend on.
	HistStepEvents Hist = iota
	// HistRollbackDepth is the number of events undone per rollback
	// episode (Time Warp).
	HistRollbackDepth

	NumHists
)

var histNames = [NumHists]string{
	"step_events",
	"rollback_depth",
}

// String returns the histogram's stable report key.
func (h Hist) String() string {
	if h < NumHists {
		return histNames[h]
	}
	return fmt.Sprintf("hist(%d)", uint8(h))
}

// Histogram counts uint64 observations in power-of-two buckets: bucket 0
// holds zeros, bucket k holds values in [2^(k-1), 2^k). Observation is a
// bit-length, two adds and a compare — cheap enough for per-step hot
// paths, and allocation-free.
type Histogram struct {
	buckets [65]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count, Sum, and Max report the aggregate moments.
func (h *Histogram) Count() uint64 { return h.count }
func (h *Histogram) Sum() uint64   { return h.sum }
func (h *Histogram) Max() uint64   { return h.max }

// Mean reports the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// merge accumulates other into h.
func (h *Histogram) merge(other *Histogram) {
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Buckets returns the non-empty buckets as (inclusive upper bound, count)
// pairs in increasing bound order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		hi := uint64(0)
		if i > 0 {
			hi = 1<<uint(i) - 1
		}
		out = append(out, Bucket{Hi: hi, Count: n})
	}
	return out
}

// Bucket is one histogram bucket: Count observations <= Hi (and above the
// previous bucket's bound).
type Bucket struct {
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// LPBlock is everything one logical process records: the counter block
// plus its histograms. Engines embed the counters, so `blk.Evaluations++`
// is the whole hot path.
type LPBlock struct {
	LPCounters
	hists [NumHists]Histogram
}

// Hist returns the block's histogram for direct observation.
func (b *LPBlock) Hist(h Hist) *Histogram { return &b.hists[h] }

// Globals are the run-level counters owned by the engine's coordinator or
// main goroutine.
type Globals struct {
	// Barriers counts global barrier episodes (synchronous engines).
	Barriers uint64
	// GVTRounds counts global-virtual-time computations (optimistic
	// engines) and quiescence-detection rounds (deadlock recovery).
	GVTRounds uint64
	// ModeledCriticalNs is the engine-computed critical path in model
	// nanoseconds (sum over steps of the busiest LP's step work), for
	// engines that track per-step maxima.
	ModeledCriticalNs float64
	// WallNs is the measured host wall-clock time of the run.
	WallNs int64
}

// Sink is what an engine needs from the instrumentation layer. *Registry
// implements it; tests may substitute their own.
type Sink interface {
	// LP returns logical process i's block, growing the registry as
	// needed. Call during single-threaded setup only.
	LP(i int) *LPBlock
	// NumLPs reports how many blocks have been handed out.
	NumLPs() int
	// Globals returns the run-level counter block.
	Globals() *Globals
	// SetGauge records a named run-level measurement (cold path).
	SetGauge(name string, v float64)
	// PProfEnabled reports whether goroutine pprof labels should be set.
	PProfEnabled() bool
}

// Registry is the per-run metrics store: one LPBlock per logical process,
// the run globals, gauges, and identifying labels.
type Registry struct {
	engine string
	labels map[string]string
	lps    []*LPBlock
	global Globals
	gauges map[string]float64
	pprof  bool
}

// NewRegistry creates a registry for the named engine.
func NewRegistry(engine string) *Registry {
	return &Registry{engine: engine}
}

// Engine reports the engine name the registry was created for.
func (r *Registry) Engine() string { return r.engine }

// LP returns (allocating on first use) logical process i's block.
func (r *Registry) LP(i int) *LPBlock {
	for len(r.lps) <= i {
		r.lps = append(r.lps, &LPBlock{})
	}
	return r.lps[i]
}

// NumLPs reports the number of allocated LP blocks.
func (r *Registry) NumLPs() int { return len(r.lps) }

// Globals returns the run-level counters.
func (r *Registry) Globals() *Globals { return &r.global }

// SetGauge records a named run-level measurement.
func (r *Registry) SetGauge(name string, v float64) {
	if r.gauges == nil {
		r.gauges = map[string]float64{}
	}
	r.gauges[name] = v
}

// SetLabel attaches an identifying key=value to the run report.
func (r *Registry) SetLabel(key, value string) {
	if r.labels == nil {
		r.labels = map[string]string{}
	}
	r.labels[key] = value
}

// EnablePProf turns on goroutine pprof labeling for engines using this
// registry.
func (r *Registry) EnablePProf() { r.pprof = true }

// PProfEnabled implements Sink.
func (r *Registry) PProfEnabled() bool { return r.pprof }

// Absorb folds another registry into r: per-LP counters and histograms
// add block-wise (growing r as needed), globals accumulate, and the
// other registry's gauges and labels overwrite same-named entries.
// Cold path; call between runs, never while either registry's
// goroutines are live. The adaptive supervisor uses it to aggregate
// per-segment registries into one whole-run report.
func (r *Registry) Absorb(o *Registry) {
	for i, b := range o.lps {
		dst := r.LP(i)
		dst.LPCounters.Add(b.LPCounters)
		for h := range b.hists {
			dst.hists[h].merge(&b.hists[h])
		}
	}
	r.global.Barriers += o.global.Barriers
	r.global.GVTRounds += o.global.GVTRounds
	r.global.ModeledCriticalNs += o.global.ModeledCriticalNs
	r.global.WallNs += o.global.WallNs
	for k, v := range o.gauges {
		r.SetGauge(k, v)
	}
	for k, v := range o.labels {
		r.SetLabel(k, v)
	}
}

// SinkTotals sums a sink's per-LP counter blocks — the registry-free
// aggregation path for engines that only hold the Sink interface.
// Cold path; the caller must ensure the LP goroutines' writes are
// visible (joined, or frozen behind a synchronization edge).
func SinkTotals(s Sink) LPCounters {
	var t LPCounters
	for i := 0; i < s.NumLPs(); i++ {
		t.Add(s.LP(i).LPCounters)
	}
	return t
}

// Totals sums the per-LP counter blocks.
func (r *Registry) Totals() LPCounters {
	var t LPCounters
	for _, b := range r.lps {
		t.Add(b.LPCounters)
	}
	return t
}

// ReportSchema identifies the JSON layout of Report; bump on breaking
// changes.
const ReportSchema = "parsim-metrics/v1"

// Report is the stable machine-readable outcome of a run, built from a
// Registry. cmd/parsim emits it with --metrics-out and cmd/experiments
// derives its table rows from it.
type Report struct {
	Schema  string             `json:"schema"`
	Engine  string             `json:"engine"`
	Labels  map[string]string  `json:"labels,omitempty"`
	LPs     []LPReport         `json:"lps"`
	Totals  map[string]uint64  `json:"totals"`
	Globals GlobalsReport      `json:"globals"`
	Gauges  map[string]float64 `json:"gauges,omitempty"`
}

// LPReport is one logical process's share of the report.
type LPReport struct {
	LP         int                   `json:"lp"`
	Counters   map[string]uint64     `json:"counters"`
	Histograms map[string]HistReport `json:"histograms,omitempty"`
}

// HistReport summarizes one histogram.
type HistReport struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// GlobalsReport is the run-level counter section.
type GlobalsReport struct {
	Barriers          uint64  `json:"barriers"`
	GVTRounds         uint64  `json:"gvt_rounds"`
	ModeledCriticalNs float64 `json:"modeled_critical_ns"`
	WallNs            int64   `json:"wall_ns"`
}

// Report snapshots the registry. Call after the run's goroutines have
// joined.
func (r *Registry) Report() *Report {
	rep := &Report{
		Schema: ReportSchema,
		Engine: r.engine,
		Totals: map[string]uint64{},
		Globals: GlobalsReport{
			Barriers:          r.global.Barriers,
			GVTRounds:         r.global.GVTRounds,
			ModeledCriticalNs: r.global.ModeledCriticalNs,
			WallNs:            r.global.WallNs,
		},
	}
	if len(r.labels) > 0 {
		rep.Labels = make(map[string]string, len(r.labels))
		for k, v := range r.labels {
			rep.Labels[k] = v
		}
	}
	if len(r.gauges) > 0 {
		rep.Gauges = make(map[string]float64, len(r.gauges))
		for k, v := range r.gauges {
			rep.Gauges[k] = v
		}
	}
	tot := r.Totals()
	tot.Each(func(c Counter, v uint64) { rep.Totals[c.String()] = v })
	for i, b := range r.lps {
		lr := LPReport{LP: i, Counters: b.LPCounters.Map()}
		for h := Hist(0); h < NumHists; h++ {
			hg := &b.hists[h]
			if hg.Count() == 0 {
				continue
			}
			if lr.Histograms == nil {
				lr.Histograms = map[string]HistReport{}
			}
			lr.Histograms[h.String()] = HistReport{
				Count: hg.Count(), Sum: hg.Sum(), Max: hg.Max(), Buckets: hg.Buckets(),
			}
		}
		rep.LPs = append(rep.LPs, lr)
	}
	return rep
}

// Total reads one counter total by enum from a built report — the typed
// access path for in-process consumers like cmd/experiments.
func (r *Report) Total(c Counter) uint64 { return r.Totals[c.String()] }

// SetGauge adds a gauge to a built report: for values only known after the
// registry snapshot, such as what the supervision layer did across
// attempts or a whole run's throughput.
func (r *Report) SetGauge(name string, v float64) {
	if r.Gauges == nil {
		r.Gauges = map[string]float64{}
	}
	r.Gauges[name] = v
}

// Counters rebuilds the report's totals as a typed counter block, so
// in-process consumers work from the same stable document external
// tooling reads.
func (r *Report) Counters() LPCounters {
	var t LPCounters
	for c := Counter(0); c < NumCounters; c++ {
		t.set(c, r.Totals[c.String()])
	}
	return t
}

// set writes one counter by enum (cold path; mirrors Get).
func (s *LPCounters) set(c Counter, v uint64) {
	switch c {
	case Evaluations:
		s.Evaluations = v
	case EventsApplied:
		s.EventsApplied = v
	case EventsScheduled:
		s.EventsScheduled = v
	case MessagesSent:
		s.MessagesSent = v
	case MessagesRecv:
		s.MessagesRecv = v
	case NullsSent:
		s.NullsSent = v
	case NullsRecv:
		s.NullsRecv = v
	case Rollbacks:
		s.Rollbacks = v
	case EventsRolledBack:
		s.EventsRolledBack = v
	case AntiMessagesSent:
		s.AntiMessagesSent = v
	case AntiMessagesRecv:
		s.AntiMessagesRecv = v
	case StateSaves:
		s.StateSaves = v
	case StateSavedWords:
		s.StateSavedWords = v
	case Steps:
		s.Steps = v
	case Blocks:
		s.Blocks = v
	case NullsFolded:
		s.NullsFolded = v
	case PoolHits:
		s.PoolHits = v
	case PoolMisses:
		s.PoolMisses = v
	}
}

// MergedHist sums one histogram across every LP of a built registry.
func (r *Registry) MergedHist(h Hist) Histogram {
	var out Histogram
	for _, b := range r.lps {
		out.merge(&b.hists[h])
	}
	return out
}

// WriteJSON emits the report as indented JSON.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Summary renders the report's headline counters in a stable one-line
// form for logs and test failure messages.
func (rep *Report) Summary() string {
	keys := make([]string, 0, len(rep.Totals))
	for k, v := range rep.Totals {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := fmt.Sprintf("engine=%s lps=%d", rep.Engine, len(rep.LPs))
	for _, k := range keys {
		out += fmt.Sprintf(" %s=%d", k, rep.Totals[k])
	}
	return out
}
