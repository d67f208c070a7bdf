package main

import (
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the harness must name the same workloads and the
// same metrics, with the same units and directions, in both directions.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}

	have := map[string]bool{}
	for _, w := range workloads {
		have[w.name] = true
	}
	seen := map[string]bool{}
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q does not match %v", w.Name, nameRE)
		}
		if seen[w.Name] {
			t.Errorf("workload %q listed twice", w.Name)
		}
		seen[w.Name] = true
		if !have[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is not in the harness", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for name := range have {
		if !seen[name] {
			t.Errorf("harness workload %q is not in BENCHMARK.json", name)
		}
	}

	checkMetrics(t, "end_to_end", spec.EndToEnd, endToEnd, seen)
	checkMetrics(t, "per_layer", spec.PerLayer, perLayer, seen)

	var setup *specMetric
	for i, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("end_to_end needs setup_s in s, lower is better; have %+v", setup)
	}
	for _, m := range spec.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

func checkMetrics(t *testing.T, section string, inSpec []specMetric, inHarness []metric, seen map[string]bool) {
	t.Helper()
	harness := map[string]metric{}
	for _, m := range inHarness {
		if _, dup := harness[m.name]; dup {
			t.Errorf("%s: harness lists %q twice", section, m.name)
		}
		harness[m.name] = m
	}
	listed := map[string]bool{}
	for _, m := range inSpec {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: metric name %q does not match %v", section, m.Name, nameRE)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: %s: unit %q does not match %v", section, m.Name, m.Unit, unitRE)
		}
		if seen[m.Name] {
			t.Errorf("%s: name %q is used twice in BENCHMARK.json", section, m.Name)
		}
		seen[m.Name], listed[m.Name] = true, true
		h, ok := harness[m.Name]
		if !ok {
			t.Errorf("%s: BENCHMARK.json metric %q is not in the harness", section, m.Name)
			continue
		}
		better := "lower"
		if h.higher {
			better = "higher"
		}
		if m.Unit != h.unit || m.Better != better {
			t.Errorf("%s: %s is %s/%s in BENCHMARK.json, %s/%s in the harness", section, m.Name, m.Unit, m.Better, h.unit, better)
		}
	}
	for name := range harness {
		if !listed[name] {
			t.Errorf("%s: harness metric %q is not in BENCHMARK.json", section, name)
		}
	}
}
