package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke drives every workload end to end at -smoke size: build, inputs,
// golden, binary invocation, set-up, traced pass, ladder, report.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	docPath, tracePath := filepath.Join(dir, "doc.json"), filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	start := time.Now()
	err := run([]string{"-smoke", "-root", "..", "-workdir", dir, "-o", docPath, "-trace-out", tracePath}, &stdout, &stderr)
	t.Logf("smoke run took %v", time.Since(start))
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}

	var doc document
	data, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, want %d", len(doc.Workloads), len(workloads))
	}
	if doc.Env.GoVersion == "" || doc.Env.NProc < 2 || doc.Env.GOMAXPROCS != pinnedProcs || doc.Env.Commit == "" {
		t.Errorf("incomplete environment fingerprint: %+v", doc.Env)
	}
	for i, rep := range doc.Workloads {
		if rep.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, rep.Name, workloads[i].name)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: failed/attempted = %d/%d", rep.Name, rep.Failed, rep.Attempted)
		}
		for _, d := range endToEnd {
			if s := rep.Metrics[d.name]; s.N == 0 || s.Median <= 0 || s.Unit != d.unit {
				t.Errorf("%s: %s = %+v", rep.Name, d.name, s)
			}
		}
		total := rep.Metrics["traced_total_s"].Median
		if un := rep.Metrics["unattributed_s"].Median; total <= 0 || un < 0 || un > total {
			t.Errorf("%s: unattributed %v of traced total %v", rep.Name, un, total)
		}
		if s := rep.Metrics["inproc_vs_binary"]; s.N == 0 || s.Median <= 0 {
			t.Errorf("%s: inproc_vs_binary = %+v", rep.Name, s)
		}
		if !strings.Contains(stdout.String(), rep.Name) {
			t.Errorf("%s missing from the table", rep.Name)
		}
	}
	for _, d := range perLayer {
		_, inLadder := doc.Ladder[d.name]
		_, inWorkload := doc.Workloads[0].Metrics[d.name]
		if inLadder == inWorkload {
			t.Errorf("%s: in ladder %v, in workloads %v; want exactly one", d.name, inLadder, inWorkload)
		}
	}
	for name, s := range doc.Ladder {
		if s.N == 0 || (s.Median <= 0 && name != "kernel_step_allocs") {
			t.Errorf("ladder %s = %+v", name, s)
		}
	}

	var trace struct {
		TraceEvents []struct {
			Name string
			Args struct{ Workload string }
		}
	}
	data, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	roots := map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Name == "run" {
			roots[e.Args.Workload] = true
		}
	}
	if len(roots) != len(workloads) {
		t.Errorf("trace has root spans for %d workloads, want %d", len(roots), len(workloads))
	}
}

// TestResultLine checks the one-workload form BENCHMARK.json's command is
// run in: the last line of standard output is one JSON object with the
// end-to-end metrics when tracing is off and the per-layer metrics when on.
func TestResultLine(t *testing.T) {
	for _, c := range []struct {
		trace string
		defs  []metric
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "dist.cmb.ckpt", "--seed", "3", "--seconds", "1", "--trace", c.trace,
			"-smoke", "-root", "..", "-workdir", t.TempDir()}
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("trace %s: %v\n%s", c.trace, err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %s: last line %q: %v", c.trace, lines[len(lines)-1], err)
		}
		if len(line) != 4 {
			t.Errorf("trace %s: result has %d keys, want correct, attempted, failed, metrics", c.trace, len(line))
		}
		var correct bool
		var attempted, failed int
		var metrics map[string]struct {
			Value *float64
			Unit  string
		}
		for key, into := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
			if err := json.Unmarshal(line[key], into); err != nil {
				t.Fatalf("trace %s: key %s: %v", c.trace, key, err)
			}
		}
		if !correct || attempted < 1 || failed != 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", c.trace, correct, attempted, failed)
		}
		if len(metrics) != len(c.defs) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(metrics), len(c.defs))
		}
		for _, d := range c.defs {
			if m, ok := metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s = %+v", c.trace, d.name, m)
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-workload", "nope", "-smoke", "-root", "..", "-workdir", t.TempDir()}, &stdout, &stderr)
	if err == nil || stdout.Len() != 0 {
		t.Errorf("err=%v stdout=%q, want an error and no result", err, stdout.String())
	}
}
