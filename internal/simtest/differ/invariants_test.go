package differ

import (
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	"repro/internal/simtest"
)

// The metrics-invariant suite: conservation laws that must hold for every
// engine's counters regardless of schedule, partition, or protocol. These
// catch instrumentation drift (an engine forgetting to count one side of
// a message exchange) that waveform equality cannot see.

// invariantWorkloads returns a small corpus slice diverse enough to
// exercise messages, nulls, rollbacks, and barriers.
func invariantWorkloads(t *testing.T) []simtest.Corpus {
	t.Helper()
	corpus, err := simtest.StandardCorpus(61)
	if err != nil {
		t.Fatal(err)
	}
	// One combinational fine-delay, one hot DAG, one clocked sequential.
	picks := map[string]bool{"ripple8-fine": true, "dag300-unit": true, "seq250-unit": true}
	var out []simtest.Corpus
	for _, cs := range corpus {
		if picks[cs.Name] {
			out = append(out, cs)
		}
	}
	if len(out) != len(picks) {
		t.Fatalf("corpus picks missing: got %d of %d", len(out), len(picks))
	}
	return out
}

func TestMetricsInvariants(t *testing.T) {
	for _, cs := range invariantWorkloads(t) {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			t.Parallel()
			until := seq.Horizon(cs.C, cs.Stim)
			ref, err := core.Simulate(cs.C, cs.Stim, until, core.Options{
				Engine: core.EngineSeq, System: logic.TwoValued,
			})
			if err != nil {
				t.Fatal(err)
			}
			seqEvals := ref.SeqWork.Evaluations
			if seqEvals == 0 {
				t.Fatal("sequential reference did no work")
			}

			for _, eng := range core.Engines() {
				if eng == core.EngineSeq {
					continue
				}
				reg := metrics.NewRegistry(eng.String())
				rep, err := core.Simulate(cs.C, cs.Stim, until, core.Options{
					Engine: eng, LPs: 4, Partition: partition.MethodFM, PartitionSeed: 11,
					System: logic.TwoValued, Metrics: reg,
				})
				if err != nil {
					t.Fatalf("%v: %v", eng, err)
				}
				if rep.Metrics == nil {
					t.Fatalf("%v: Report.Metrics not populated", eng)
				}
				tot := rep.Metrics.Counters()

				// Conservation: the laws every differential trial checks,
				// plus one only a fault-free run obeys: conservative runs
				// terminate with at most a few nulls still in flight.
				if f := conservation(eng, tot); f != "" {
					t.Errorf("%v: %s (%s)", eng, f, rep.Metrics.Summary())
				} else if undelivered := tot.NullsSent - tot.NullsFolded - tot.NullsRecv; undelivered > 4*4 {
					t.Errorf("%v: %d nulls undelivered at termination (sent %d, folded %d, recv %d)",
						eng, undelivered, tot.NullsSent, tot.NullsFolded, tot.NullsRecv)
				}

				// Work accounting: conservative and synchronous engines do
				// exactly the sequential evaluation work; optimistic engines
				// may only add (rollback re-execution), never lose, work.
				switch eng {
				case core.EngineSync, core.EngineCMB, core.EngineCMBDemand, core.EngineCMBDetect:
					if tot.Evaluations != seqEvals {
						t.Errorf("%v: evaluations %d != sequential %d",
							eng, tot.Evaluations, seqEvals)
					}
				case core.EngineTimeWarp, core.EngineTimeWarpLazy, core.EngineHybrid:
					if tot.Evaluations < seqEvals {
						t.Errorf("%v: evaluations %d < sequential %d (lost work)",
							eng, tot.Evaluations, seqEvals)
					}
				case core.EngineOblivious:
					if tot.Evaluations == 0 {
						t.Errorf("%v: no evaluations recorded", eng)
					}
				}

				// Rollback accounting only exists on optimistic engines.
				optimistic := eng == core.EngineTimeWarp || eng == core.EngineTimeWarpLazy || eng == core.EngineHybrid
				if !optimistic && (tot.Rollbacks != 0 || tot.AntiMessagesSent != 0) {
					t.Errorf("%v: non-optimistic engine reported rollbacks=%d antis=%d",
						eng, tot.Rollbacks, tot.AntiMessagesSent)
				}

				// The synchronous engine advances all LPs in lockstep: every
				// LP executes the same number of timesteps, and each
				// timestep costs exactly two barriers (apply, evaluate).
				if eng == core.EngineSync {
					steps := rep.Metrics.LPs[0].Counters[metrics.Steps.String()]
					for _, lp := range rep.Metrics.LPs {
						if s := lp.Counters[metrics.Steps.String()]; s != steps {
							t.Errorf("sync: LP %d ran %d steps, LP 0 ran %d (lockstep broken)",
								lp.LP, s, steps)
						}
					}
					if b := rep.Metrics.Globals.Barriers; b != 2*steps {
						t.Errorf("sync: %d barriers for %d timesteps (want 2 per step)", b, steps)
					}
				}

				// The step-events histogram observes exactly the applied
				// events, so its sum must match the counter.
				if eng != core.EngineOblivious {
					var sum uint64
					for lp := 0; lp < reg.NumLPs(); lp++ {
						sum += reg.LP(lp).Hist(metrics.HistStepEvents).Sum()
					}
					if sum != tot.EventsApplied {
						t.Errorf("%v: step-events histogram sum %d != events applied %d",
							eng, sum, tot.EventsApplied)
					}
				}

				// Report self-consistency: totals must equal the per-LP sums
				// of the same document.
				var lpSum uint64
				for _, lp := range rep.Metrics.LPs {
					lpSum += lp.Counters[metrics.Evaluations.String()]
				}
				if lpSum != tot.Evaluations {
					t.Errorf("%v: per-LP evaluations sum %d != total %d",
						eng, lpSum, tot.Evaluations)
				}
				if rep.Metrics.Schema != metrics.ReportSchema {
					t.Errorf("%v: schema %q", eng, rep.Metrics.Schema)
				}
				if rep.Metrics.Globals.WallNs <= 0 {
					t.Errorf("%v: wall time not stamped", eng)
				}
			}
		})
	}
}

// TestMetricsGlobals checks the run-level counters engines own: barrier
// counts for the synchronous engine, GVT rounds for the optimistic one.
func TestMetricsGlobals(t *testing.T) {
	corpus := invariantWorkloads(t)
	cs := corpus[1] // hot DAG
	until := seq.Horizon(cs.C, cs.Stim)

	reg := metrics.NewRegistry("sync")
	if _, err := core.Simulate(cs.C, cs.Stim, until, core.Options{
		Engine: core.EngineSync, LPs: 4, Partition: partition.MethodFM,
		System: logic.TwoValued, Metrics: reg,
	}); err != nil {
		t.Fatal(err)
	}
	if reg.Globals().Barriers == 0 {
		t.Error("sync: no barriers counted")
	}

	reg = metrics.NewRegistry("timewarp")
	if _, err := core.Simulate(cs.C, cs.Stim, until, core.Options{
		Engine: core.EngineTimeWarp, LPs: 4, Partition: partition.MethodFM,
		System: logic.TwoValued, Metrics: reg,
	}); err != nil {
		t.Fatal(err)
	}
	if reg.Globals().GVTRounds == 0 {
		t.Error("timewarp: no GVT rounds counted")
	}
}
