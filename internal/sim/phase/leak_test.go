package phase_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/oblivious"
	"repro/internal/sim/seq"
	"repro/internal/sim/sync"
	"repro/internal/sim/timewarp"
	"repro/internal/vectors"
)

// TestEnginesCloseTheirPools runs every engine built on the pool, to
// completion and through a MaxEvents abort, and checks that no helper
// outlives its run.
func TestEnginesCloseTheirPools(t *testing.T) {
	c, err := gen.ArrayMultiplier(6, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 20, Period: 30, Activity: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	until := seq.Horizon(c, stim)
	p, err := partition.New(partition.MethodContiguous, c, 2, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name    string
		wantErr bool
		run     func() error
	}{
		{"sync", false, func() error {
			_, err := sync.Run(c, stim, until, sync.Config{Partition: p, System: logic.TwoValued})
			return err
		}},
		{"sync-max-events", true, func() error {
			_, err := sync.Run(c, stim, until, sync.Config{Partition: p, System: logic.TwoValued, MaxEvents: 50})
			return err
		}},
		{"oblivious", false, func() error {
			_, err := oblivious.Run(c, stim, oblivious.Config{System: logic.TwoValued, Workers: 4})
			return err
		}},
		{"timewarp-clusters", false, func() error {
			_, err := timewarp.Run(c, stim, until, timewarp.Config{Partition: p, IntraWorkers: 3, System: logic.TwoValued})
			return err
		}},
		{"timewarp-clusters-max-events", true, func() error {
			_, err := timewarp.Run(c, stim, until, timewarp.Config{Partition: p, IntraWorkers: 3, System: logic.TwoValued, MaxEvents: 50})
			return err
		}},
	}
	for _, r := range runs {
		base := runtime.NumGoroutine()
		if err := r.run(); (err != nil) != r.wantErr {
			t.Fatalf("%s: err = %v, want error %v", r.name, err, r.wantErr)
		}
		// A helper that has returned from Close's wait may still be
		// unwinding; give the count a moment to settle.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines after the run, %d before", r.name, n, base)
		}
	}
}
