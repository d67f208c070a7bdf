package chaos

import (
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/adapt"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/trace"
)

// TestAdaptiveRecoverySoak is the adaptive-control soak for the
// chaos-nightly CI job: supervised adaptive runs (engine switching,
// rebalancing, and window control all live) with one-shot panics and
// permanent LP stalls injected into whichever engine the controllers
// happen to be running. Every recovery — retry, fallback, or an
// adaptation-triggered engine migration — must land on the golden
// waveform. Gated on CHAOS_SOAK=1 so ordinary `go test ./...` never
// pays for it.
func TestAdaptiveRecoverySoak(t *testing.T) {
	if os.Getenv("CHAOS_SOAK") != "1" {
		t.Skip("set CHAOS_SOAK=1 to run the adaptive-recovery soak")
	}
	const lps = 4
	var recoveries, fallbacks, switches, segments uint64
	for _, wl := range soakCorpus(t) {
		wlName, until := wl.Name, core.Horizon(wl.C, wl.Stim)
		base, err := core.Simulate(wl.C, wl.Stim, until, core.Options{
			Engine: core.EngineSeq, System: logic.NineValued,
		})
		if err != nil {
			t.Fatal(err)
		}
		every := uint64(until) / 4
		if every == 0 {
			every = 1
		}
		for _, engine := range []core.Engine{core.EngineCMB, core.EngineTimeWarp, core.EngineHybrid} {
			for seed := uint64(1); seed <= 6; seed++ {
				for _, mode := range []string{"panic", "hang"} {
					hook := inject.NewHook(seed, nil)
					lp := int(seed) % lps
					if mode == "panic" {
						hook.PanicLP = lp
					} else {
						hook.HangLP = lp
					}
					rep, err := core.Simulate(wl.C, wl.Stim, until, core.Options{
						Engine: engine, LPs: lps, Partition: partition.MethodFM,
						PartitionSeed: int64(seed), System: logic.NineValued,
						Chaos: hook,
						Adapt: &adapt.Spec{Every: every},
						Supervise: &core.SuperviseOptions{
							Watchdog: 500 * time.Millisecond,
							Retries:  1,
							Backoff:  5 * time.Millisecond,
							Fallback: true,
						},
					})
					if err != nil {
						t.Errorf("%s/%v/seed=%d/%s: adaptive supervised run failed: %v",
							wlName, engine, seed, mode, err)
						continue
					}
					if d := trace.Diff(base.Waveform, rep.Waveform, 3); d != "" {
						t.Errorf("%s/%v/seed=%d/%s: waveform diverged after recovery:\n%s",
							wlName, engine, seed, mode, d)
					}
					if rep.Supervision != nil {
						recoveries += rep.Supervision.Recoveries
						fallbacks += rep.Supervision.Fallbacks
					}
					if rep.Adapt != nil {
						switches += uint64(rep.Adapt.EngineSwitches)
						segments += uint64(rep.Adapt.Segments)
					}
				}
			}
		}
	}
	t.Logf("adaptive soak: %d segments, %d engine switches, %d retry recoveries, %d fallbacks",
		segments, switches, recoveries, fallbacks)
	if recoveries == 0 {
		t.Error("soak injected panics but recorded zero supervised recoveries")
	}
	if fallbacks == 0 {
		t.Error("soak injected permanent stalls but recorded zero fallbacks")
	}
	if segments == 0 {
		t.Error("adaptive soak never segmented a run")
	}
}
