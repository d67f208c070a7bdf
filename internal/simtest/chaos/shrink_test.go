package chaos

import (
	"testing"

	"repro/internal/simtest/chaos/inject"
)

// TestShrinkMinimizes exercises ddmin against a synthetic predicate: the
// plan fails iff the subset retains both of two specific faults.
func TestShrinkMinimizes(t *testing.T) {
	plan := inject.NewPlan(1, 4, 16)
	culpritA, culpritB := plan[3].String(), plan[11].String()
	run := func(sub inject.Plan) string {
		var a, b bool
		for _, f := range sub {
			switch f.String() {
			case culpritA:
				a = true
			case culpritB:
				b = true
			}
		}
		if a && b {
			return "boom"
		}
		return ""
	}
	keep, f := Shrink(plan, "boom", run, 200)
	if f != "boom" {
		t.Fatalf("shrink lost the failure: %q", f)
	}
	want := map[int]bool{3: true, 11: true}
	if len(keep) != 2 || !want[keep[0]] || !want[keep[1]] {
		t.Errorf("shrunk to %v, want exactly [3 11]", keep)
	}
}

// TestShrinkEmptyProbe: an engine that fails with no faults at all shrinks
// straight to the empty subset.
func TestShrinkEmptyProbe(t *testing.T) {
	plan := inject.NewPlan(2, 4, 16)
	run := func(sub inject.Plan) string { return "always broken" }
	keep, f := Shrink(plan, "always broken", run, 200)
	if len(keep) != 0 || keep == nil {
		t.Errorf("keep = %v, want empty non-nil slice", keep)
	}
	if f != "always broken" {
		t.Errorf("failure = %q", f)
	}
}
