package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// binPath is the parsim binary TestMain builds once for every e2e test.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "parsim-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "parsim")
	out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building parsim: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the built parsim binary and returns (stdout, stderr, exit
// code). A zero code means success; -1 means the process failed to start.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running parsim: %v", err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// TestMaxEventsAbortExitsNonZero is the regression test for the MaxEvents
// abort path: the process must exit with the event-limit code (5) and
// print the engine error, not report a half-finished simulation as
// success.
func TestMaxEventsAbortExitsNonZero(t *testing.T) {
	for _, engine := range []string{"cmb", "timewarp"} {
		t.Run(engine, func(t *testing.T) {
			stdout, stderr, code := run(t,
				"-circuit", "ripple8", "-engine", engine, "-lps", "2", "-max-events", "10", "-q")
			if code != exitEventLimit {
				t.Fatalf("exit code %d, want %d; stdout:\n%s\nstderr:\n%s", code, exitEventLimit, stdout, stderr)
			}
			if !strings.Contains(stderr, "event limit") {
				t.Errorf("stderr missing the engine error:\n%s", stderr)
			}
		})
	}
}

// TestExitCodePanic: an injected LP panic without supervision must be
// recovered into a structured error and classified as exit code 4.
func TestExitCodePanic(t *testing.T) {
	for _, engine := range []string{"cmb", "timewarp"} {
		t.Run(engine, func(t *testing.T) {
			stdout, stderr, code := run(t,
				"-circuit", "ripple8", "-engine", engine, "-lps", "2",
				"-fault-panic-lp", "1", "-q")
			if code != exitPanic {
				t.Fatalf("exit code %d, want %d; stdout:\n%s\nstderr:\n%s", code, exitPanic, stdout, stderr)
			}
			if !strings.Contains(stderr, "panic") {
				t.Errorf("stderr missing panic classification:\n%s", stderr)
			}
		})
	}
}

// TestExitCodeHang: a permanently stalled LP with the watchdog armed but
// fallback disabled must abort with the hang code (3) and a
// machine-readable report.
func TestExitCodeHang(t *testing.T) {
	stdout, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "cmb", "-lps", "2",
		"-fault-hang-lp", "1", "-watchdog", "250ms", "-retries", "0", "-fallback=false", "-q")
	if code != exitHang {
		t.Fatalf("exit code %d, want %d; stdout:\n%s\nstderr:\n%s", code, exitHang, stdout, stderr)
	}
	if !strings.Contains(stderr, "hang report") || !strings.Contains(stderr, "mailbox_depth") {
		t.Errorf("stderr missing the hang report:\n%s", stderr)
	}
}

// TestExitCodeCausality: sabotaged lookahead promises make the
// conservative engine deliver stragglers; the violation must be detected
// and classified as exit code 2.
func TestExitCodeCausality(t *testing.T) {
	_, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "cmb", "-lps", "4",
		"-fault-lookahead-bias", "20", "-q")
	if code != exitCausality {
		t.Fatalf("exit code %d, want %d; stderr:\n%s", code, exitCausality, stderr)
	}
	if !strings.Contains(stderr, "causality") {
		t.Errorf("stderr missing causality classification:\n%s", stderr)
	}
}

// TestSupervisedHangRecovers: same permanent stall, but with fallback
// enabled the run must complete via degradation and exit zero.
func TestSupervisedHangRecovers(t *testing.T) {
	stdout, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "cmb", "-lps", "2",
		"-fault-hang-lp", "1", "-watchdog", "250ms", "-retries", "0")
	if code != 0 {
		t.Fatalf("supervised run failed (%d):\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "fallbacks=1") {
		t.Errorf("stdout missing the fallback count:\n%s", stdout)
	}
}

// TestSupervisedPanicRetrySucceeds: a one-shot panic under supervision is
// absorbed by a retry of the same engine.
func TestSupervisedPanicRetrySucceeds(t *testing.T) {
	stdout, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "timewarp", "-lps", "2",
		"-fault-panic-lp", "1", "-supervise", "-retries", "1")
	if code != 0 {
		t.Fatalf("supervised run failed (%d):\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "recoveries=1") || !strings.Contains(stdout, "final-engine=timewarp") {
		t.Errorf("stdout missing the recovery summary:\n%s", stdout)
	}
}

// readFile is a fatal-on-error file slurp for waveform comparisons.
func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCheckpointRestoreVCD covers the full persistence loop end to end:
// a checkpointed run leaves snapshots on disk, and resuming from a mid-run
// snapshot reproduces the uninterrupted waveform byte for byte — including
// across an engine switch on restore.
func TestCheckpointRestoreVCD(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join(dir, "golden.vcd")
	if _, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "seq", "-vcd", golden, "-q"); code != 0 {
		t.Fatalf("golden run failed:\n%s", stderr)
	}

	ckptDir := filepath.Join(dir, "ckpts")
	checked := filepath.Join(dir, "checked.vcd")
	if _, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "seq",
		"-checkpoint-every", "400", "-checkpoint-dir", ckptDir,
		"-vcd", checked, "-q"); code != 0 {
		t.Fatalf("checkpointed run failed:\n%s", stderr)
	}
	if readFile(t, checked) != readFile(t, golden) {
		t.Fatal("checkpoint writing perturbed the waveform")
	}
	snaps, err := filepath.Glob(filepath.Join(ckptDir, "ckpt-*.json"))
	if err != nil || len(snaps) < 2 {
		t.Fatalf("expected >= 2 checkpoints, got %v (err=%v)", snaps, err)
	}
	sort.Strings(snaps)
	mid := snaps[len(snaps)/2]

	for _, engine := range []string{"seq", "cmb", "timewarp"} {
		restored := filepath.Join(dir, "restored-"+engine+".vcd")
		if _, stderr, code := run(t,
			"-circuit", "ripple8", "-engine", engine, "-lps", "2",
			"-restore", mid, "-vcd", restored, "-q"); code != 0 {
			t.Fatalf("%s restore failed:\n%s", engine, stderr)
		}
		if readFile(t, restored) != readFile(t, golden) {
			t.Errorf("%s: restored waveform differs from the uninterrupted run", engine)
		}
	}
}

// TestKillRestoreVCD models an interrupted run: the event limit kills the
// process partway (exit 5) with checkpoints already on disk, and restoring
// from the last one completes the simulation with the exact uninterrupted
// waveform.
func TestKillRestoreVCD(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join(dir, "golden.vcd")
	if _, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "seq", "-vcd", golden, "-q"); code != 0 {
		t.Fatalf("golden run failed:\n%s", stderr)
	}

	ckptDir := filepath.Join(dir, "ckpts")
	_, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "seq",
		"-checkpoint-every", "300", "-checkpoint-dir", ckptDir,
		"-max-events", "2000", "-q")
	if code != exitEventLimit {
		t.Fatalf("interrupted run exited %d, want %d:\n%s", code, exitEventLimit, stderr)
	}
	snaps, err := filepath.Glob(filepath.Join(ckptDir, "ckpt-*.json"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("kill left no checkpoints behind (err=%v)", err)
	}
	sort.Strings(snaps)
	last := snaps[len(snaps)-1]

	restored := filepath.Join(dir, "restored.vcd")
	if _, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "seq",
		"-restore", last, "-vcd", restored, "-q"); code != 0 {
		t.Fatalf("restore after kill failed:\n%s", stderr)
	}
	if readFile(t, restored) != readFile(t, golden) {
		t.Error("post-kill restore does not reproduce the uninterrupted waveform")
	}
}

// TestRunSucceeds is the happy-path e2e check: a small run on every engine
// exits zero and prints the summary line with a measured wall time.
func TestRunSucceeds(t *testing.T) {
	for _, engine := range []string{"seq", "oblivious", "sync", "cmb", "timewarp", "hybrid"} {
		cmd := exec.Command(binPath,
			"-circuit", "ripple8", "-engine", engine, "-lps", "2", "-vectors", "5", "-q")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", engine, err, out)
		}
		if !strings.Contains(string(out), "engine="+engine) {
			t.Errorf("%s: summary line missing:\n%s", engine, out)
		}
		if !strings.Contains(string(out), "wall=") || strings.Contains(string(out), "wall=0s") {
			t.Errorf("%s: summary line reports no wall time:\n%s", engine, out)
		}
	}
}

// TestCmbDetectMatchesSeqVCD repeats the invocation that hung outright
// under the polling deadlock-recovery coordinator (a lost permit parked
// all seven LPs for good): every run must finish inside its deadline
// with the sequential engine's VCD, byte for byte.
func TestCmbDetectMatchesSeqVCD(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join(dir, "seq.vcd")
	if _, stderr, code := run(t, "-circuit", "seq2000", "-engine", "seq", "-vcd", golden, "-q"); code != 0 {
		t.Fatalf("golden run failed:\n%s", stderr)
	}
	want := readFile(t, golden)
	vcd := filepath.Join(dir, "detect.vcd")
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		out, err := exec.CommandContext(ctx, binPath,
			"-circuit", "seq2000", "-engine", "cmb-detect", "-lps", "7", "-vcd", vcd, "-q").CombinedOutput()
		cancel()
		if err != nil {
			t.Fatalf("run %d: %v (killed means it outlived its 20 s deadline)\n%s", i, err, out)
		}
		if readFile(t, vcd) != want {
			t.Fatalf("run %d: cmb-detect VCD differs from the seq VCD", i)
		}
	}
}

// TestMaxEventsGenerousLimitPasses: a limit above the actual event count
// must not trip.
func TestMaxEventsGenerousLimitPasses(t *testing.T) {
	cmd := exec.Command(binPath,
		"-circuit", "ripple8", "-engine", "cmb", "-lps", "2", "-vectors", "5",
		"-max-events", "5000000", "-q")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("generous limit aborted: %v\n%s", err, out)
	}
}

// TestOptFlagRuns: -opt shrinks the generated DAG, prints the optimizer
// summary, and the run completes on both a scalar and a parallel engine.
// The gauge block lands in the metrics JSON on the parallel path.
func TestOptFlagRuns(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "metrics.json")
	stdout, stderr, code := run(t,
		"-circuit", "dag300", "-engine", "cmb", "-lps", "4",
		"-opt", "-metrics-out", mpath, "-vectors", "8")
	if code != 0 {
		t.Fatalf("-opt run failed (%d):\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "optimizer:") {
		t.Errorf("stdout missing the optimizer summary:\n%s", stdout)
	}
	m := readFile(t, mpath)
	for _, key := range []string{"gates_removed", "gates_hashed", "levels_before", "levels_after"} {
		if !strings.Contains(m, key) {
			t.Errorf("metrics JSON missing optimizer gauge %q", key)
		}
	}
}

// TestOptPassesImpliesOpt: naming passes runs the optimizer without -opt,
// and an unknown pass name is a usage error.
func TestOptPassesImpliesOpt(t *testing.T) {
	stdout, stderr, code := run(t,
		"-circuit", "dag300", "-engine", "seq", "-opt-passes", "constprop,dce", "-vectors", "5")
	if code != 0 {
		t.Fatalf("-opt-passes run failed (%d):\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "optimizer:") {
		t.Errorf("stdout missing the optimizer summary:\n%s", stdout)
	}
	_, stderr, code = run(t,
		"-circuit", "dag300", "-opt-passes", "nosuchpass", "-q")
	if code == 0 {
		t.Fatal("unknown pass name accepted")
	}
	if !strings.Contains(stderr, "nosuchpass") {
		t.Errorf("stderr does not name the bad pass:\n%s", stderr)
	}
}

// TestConeSplitRuns: -cone-split packs whole cones onto LPs; the hybrid
// run completes and reports the cone_count gauge.
func TestConeSplitRuns(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "metrics.json")
	_, stderr, code := run(t,
		"-circuit", "dag300", "-engine", "hybrid", "-lps", "4",
		"-opt", "-cone-split", "-metrics-out", mpath, "-vectors", "8", "-q")
	if code != 0 {
		t.Fatalf("-cone-split run failed (%d):\n%s", code, stderr)
	}
	if !strings.Contains(readFile(t, mpath), "cone_count") {
		t.Error("metrics JSON missing the cone_count gauge")
	}
}

// TestWideConeSplit: -wide -cone-split reaches the cone-split partitioner
// (the flag used to be dropped on the wide path) and, like every
// partition, leaves the waveform alone.
func TestWideConeSplit(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "metrics.json")
	plain, cones := filepath.Join(dir, "plain.vcd"), filepath.Join(dir, "cones.vcd")
	base := []string{"-circuit", "seq400", "-engine", "cmb", "-lps", "2", "-wide", "-vectors", "8", "-q"}
	if _, stderr, code := run(t, append(base, "-vcd", plain)...); code != 0 {
		t.Fatalf("-wide run failed (%d):\n%s", code, stderr)
	}
	if _, stderr, code := run(t, append(base, "-cone-split", "-metrics-out", mpath, "-vcd", cones)...); code != 0 {
		t.Fatalf("-wide -cone-split run failed (%d):\n%s", code, stderr)
	}
	var m struct {
		Labels map[string]string
		Gauges map[string]float64
	}
	if err := json.Unmarshal([]byte(readFile(t, mpath)), &m); err != nil {
		t.Fatal(err)
	}
	if m.Labels["partition"] != "cone-split" {
		t.Errorf("partition label %q, want cone-split", m.Labels["partition"])
	}
	if _, ok := m.Gauges["cone_count"]; !ok {
		t.Error("metrics JSON missing the cone_count gauge")
	}
	if readFile(t, cones) != readFile(t, plain) {
		t.Error("-cone-split changed the lane-0 waveform")
	}
}

// TestWideSupervisedPanicRetrySucceeds: the supervision layer and the
// chaos hooks attach at the generic engine body, so a wide run absorbs a
// one-shot LP panic by retrying and still produces the unfaulted waveform.
func TestWideSupervisedPanicRetrySucceeds(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "metrics.json")
	clean, faulted := filepath.Join(dir, "clean.vcd"), filepath.Join(dir, "faulted.vcd")
	base := []string{"-circuit", "ripple8", "-engine", "cmb", "-lps", "2", "-wide", "-q"}
	if _, stderr, code := run(t, append(base, "-vcd", clean)...); code != 0 {
		t.Fatalf("unfaulted run failed (%d):\n%s", code, stderr)
	}
	if _, stderr, code := run(t, append(base, "-supervise", "-retries", "1", "-fault-panic-lp", "1",
		"-metrics-out", mpath, "-vcd", faulted)...); code != 0 {
		t.Fatalf("supervised wide run failed (%d):\n%s", code, stderr)
	}
	var m struct{ Gauges map[string]float64 }
	if err := json.Unmarshal([]byte(readFile(t, mpath)), &m); err != nil {
		t.Fatal(err)
	}
	if m.Gauges["supervise_recoveries"] < 1 {
		t.Errorf("supervise_recoveries = %v, want >= 1", m.Gauges["supervise_recoveries"])
	}
	if readFile(t, faulted) != readFile(t, clean) {
		t.Error("recovered wide run's lane-0 waveform differs from the unfaulted run")
	}
}

// TestOptPreservesOutputsVCD: optimized and unoptimized runs of the same
// sequential fixture must agree on every primary-output waveform. The VCD
// is filtered to output nets because internal nodes legitimately disappear.
func TestOptPreservesOutputsVCD(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.vcd")
	opt := filepath.Join(dir, "opt.vcd")
	for path, extra := range map[string][]string{plain: nil, opt: {"-opt"}} {
		args := append([]string{
			"-circuit", "lfsr16", "-engine", "seq", "-vectors", "10", "-vcd", path, "-q"}, extra...)
		if _, stderr, code := run(t, args...); code != 0 {
			t.Fatalf("run for %s failed:\n%s", path, stderr)
		}
	}
	want, got := outputChanges(t, plain), outputChanges(t, opt)
	if len(want) == 0 {
		t.Fatal("no output activity in the baseline VCD")
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("optimized output waveform drifted:\n plain %v\n opt   %v", want, got)
	}
}

// TestAdaptFlagMatrix pins the -adapt flag surface: what it rejects,
// what it composes with, and how failures inside an adaptive run are
// classified.
func TestAdaptFlagMatrix(t *testing.T) {
	t.Run("rejects-wide", func(t *testing.T) {
		// The -wide exclusions that remain all need a wide checkpoint or
		// wire format; each must exit 1 and name the conflict.
		dir := t.TempDir()
		if _, stderr, code := run(t, "-circuit", "ripple8", "-engine", "seq",
			"-checkpoint-every", "400", "-checkpoint-dir", dir, "-q"); code != 0 {
			t.Fatalf("checkpointed run failed:\n%s", stderr)
		}
		snaps, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.json"))
		if len(snaps) == 0 {
			t.Fatal("no checkpoint to restore from")
		}
		for _, extra := range [][]string{
			{"-adapt"},
			{"-restore", snaps[0]},
			{"-checkpoint-every", "400", "-checkpoint-dir", dir},
			{"-dist", "2"},
		} {
			_, stderr, code := run(t, append([]string{
				"-circuit", "ripple8", "-engine", "cmb", "-wide", "-system", "2", "-q"}, extra...)...)
			if code != 1 {
				t.Errorf("%s -wide: exit code %d, want 1", extra[0], code)
			}
			if !strings.Contains(stderr, "-wide") {
				t.Errorf("%s: stderr does not explain the -wide conflict:\n%s", extra[0], stderr)
			}
		}
	})
	t.Run("rejects-serial-engine", func(t *testing.T) {
		_, stderr, code := run(t,
			"-circuit", "ripple8", "-engine", "seq", "-adapt", "-q")
		if code == 0 {
			t.Fatal("-adapt with -engine seq accepted")
		}
		if !strings.Contains(stderr, "parallel engine") {
			t.Errorf("stderr does not name the constraint:\n%s", stderr)
		}
	})
	t.Run("rejects-bad-spec", func(t *testing.T) {
		_, stderr, code := run(t,
			"-circuit", "ripple8", "-engine", "cmb", "-adapt-spec", "{not json", "-q")
		if code == 0 {
			t.Fatal("malformed inline spec accepted")
		}
		if !strings.Contains(stderr, "parse spec") {
			t.Errorf("stderr does not classify the parse failure:\n%s", stderr)
		}
		_, stderr, code = run(t,
			"-circuit", "ripple8", "-engine", "cmb", "-adapt-spec", "no-such-file.json", "-q")
		if code == 0 {
			t.Fatal("missing spec file accepted")
		}
		if !strings.Contains(stderr, "read spec") {
			t.Errorf("stderr does not classify the read failure:\n%s", stderr)
		}
	})
	t.Run("event-limit-exit-code", func(t *testing.T) {
		_, stderr, code := run(t,
			"-circuit", "ripple8", "-engine", "cmb", "-lps", "2", "-adapt", "-max-events", "10", "-q")
		if code != exitEventLimit {
			t.Fatalf("exit code %d, want %d:\n%s", code, exitEventLimit, stderr)
		}
	})
	t.Run("composes-with-supervise-and-checkpoints", func(t *testing.T) {
		dir := t.TempDir()
		stdout, stderr, code := run(t,
			"-circuit", "ripple8", "-engine", "timewarp", "-lps", "2",
			"-adapt", "-supervise", "-retries", "1",
			"-checkpoint-every", "400", "-checkpoint-dir", filepath.Join(dir, "ckpts"))
		if code != 0 {
			t.Fatalf("composed run failed (%d):\n%s", code, stderr)
		}
		if !strings.Contains(stdout, "adapt: segments=") {
			t.Errorf("stdout missing the adapt summary:\n%s", stdout)
		}
		if !strings.Contains(stdout, "supervision: final-engine=") {
			t.Errorf("stdout missing the supervision summary:\n%s", stdout)
		}
		snaps, _ := filepath.Glob(filepath.Join(dir, "ckpts", "ckpt-*.json"))
		if len(snaps) == 0 {
			t.Error("adaptive run wrote no checkpoints despite -checkpoint-every")
		}
	})
	t.Run("spec-implies-adapt", func(t *testing.T) {
		stdout, stderr, code := run(t,
			"-circuit", "ripple8", "-engine", "cmb", "-lps", "2",
			"-adapt-spec", `{"every":500}`)
		if code != 0 {
			t.Fatalf("-adapt-spec without -adapt failed (%d):\n%s", code, stderr)
		}
		if !strings.Contains(stdout, "adapt: segments=") {
			t.Errorf("stdout missing the adapt summary:\n%s", stdout)
		}
	})
}

// TestAdaptScriptedSwitchVCD forces a mid-run engine migration
// (cmb -> timewarp via checkpoint/restart at the first boundary) and
// requires the adaptive VCD to be byte-identical to a static run — the
// end-to-end proof that adaptation never perturbs results.
func TestAdaptScriptedSwitchVCD(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join(dir, "golden.vcd")
	if _, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "seq", "-vcd", golden, "-q"); code != 0 {
		t.Fatalf("golden run failed:\n%s", stderr)
	}
	adapted := filepath.Join(dir, "adapted.vcd")
	spec := `{"every":500,"no_switch":true,"no_rebalance":true,` +
		`"script":[{"round":0,"kind":"switch","to":"timewarp"}]}`
	stdout, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "cmb", "-lps", "2",
		"-adapt-spec", spec, "-vcd", adapted)
	if code != 0 {
		t.Fatalf("adaptive run failed (%d):\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "switch cmb -> timewarp") {
		t.Errorf("stdout missing the decision log line:\n%s", stdout)
	}
	if !strings.Contains(stdout, "final-engine=timewarp") {
		t.Errorf("stdout missing the final engine:\n%s", stdout)
	}
	if readFile(t, adapted) != readFile(t, golden) {
		t.Error("adaptive waveform differs from the static run")
	}
}

// outputChanges extracts the value-change history of nets named out* / q* /
// sum* / cout* from a VCD file, keyed by net name.
func outputChanges(t *testing.T, path string) map[string][]string {
	t.Helper()
	body := readFile(t, path)
	id2name := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == "$var" {
			id2name[f[3]] = f[4]
		}
	}
	isOut := func(name string) bool {
		for _, p := range []string{"out", "q", "sum", "cout"} {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	changes := map[string][]string{}
	now := ""
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "#"):
			now = line
		case len(line) >= 2 && !strings.HasPrefix(line, "$"):
			val, id := line[:1], line[1:]
			if name, ok := id2name[id]; ok && isOut(name) {
				changes[name] = append(changes[name], now+"="+val)
			}
		}
	}
	return changes
}
