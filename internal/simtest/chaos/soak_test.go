package chaos

import (
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/simtest"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/trace"
)

// soakCorpus is the soaks' workload set from the standard corpus: a
// fine-delay adder (null-message heavy), a fine-delay random DAG
// (irregular cross-LP traffic) and a clocked counter (low activity,
// blocking-dominated).
func soakCorpus(t *testing.T) []simtest.Corpus {
	t.Helper()
	corpus, err := simtest.StandardCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	var out []simtest.Corpus
	for _, cs := range corpus {
		switch cs.Name {
		case "ripple8-fine", "dag200-fine", "counter6-fine":
			out = append(out, cs)
		}
	}
	if len(out) != 3 {
		t.Fatalf("soak corpus: found %d of 3 workloads", len(out))
	}
	return out
}

// TestSupervisedRecoverySoak is the supervised-recovery soak for the
// chaos-nightly CI job: it sweeps seeds injecting one-shot panics and
// permanent LP stalls into the asynchronous engines running under the
// supervision layer, and requires every run to complete with the golden
// waveform — panics absorbed by retries, stalls absorbed by
// watchdog-triggered fallback, zero hangs. Gated on CHAOS_SOAK=1 so
// ordinary `go test ./...` never pays for it.
func TestSupervisedRecoverySoak(t *testing.T) {
	if os.Getenv("CHAOS_SOAK") != "1" {
		t.Skip("set CHAOS_SOAK=1 to run the supervised-recovery soak")
	}
	const lps = 4
	var recoveries, fallbacks uint64
	for _, wl := range soakCorpus(t) {
		wlName, until := wl.Name, core.Horizon(wl.C, wl.Stim)
		base, err := core.Simulate(wl.C, wl.Stim, until, core.Options{
			Engine: core.EngineSeq, System: logic.NineValued,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []core.Engine{core.EngineCMB, core.EngineTimeWarp} {
			for seed := uint64(1); seed <= 8; seed++ {
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
						Supervise: &core.SuperviseOptions{
							Watchdog: 500 * time.Millisecond,
							Retries:  1,
							Backoff:  5 * time.Millisecond,
							Fallback: true,
						},
					})
					if err != nil {
						t.Errorf("%s/%v/seed=%d/%s: supervised run failed: %v",
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
				}
			}
		}
	}
	t.Logf("soak: %d retry recoveries, %d fallbacks", recoveries, fallbacks)
	if recoveries == 0 {
		t.Error("soak injected panics but recorded zero supervised recoveries")
	}
	if fallbacks == 0 {
		t.Error("soak injected permanent stalls but recorded zero fallbacks")
	}
}
