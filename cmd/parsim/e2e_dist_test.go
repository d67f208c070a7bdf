package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// distGolden produces the sequential reference VCD for the distributed
// e2e runs (same workload flags as the dist runs below).
func distGolden(t *testing.T, dir string) string {
	t.Helper()
	golden := filepath.Join(dir, "golden.vcd")
	if _, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "seq", "-vectors", "20", "-vcd", golden, "-q"); code != 0 {
		t.Fatalf("golden run failed:\n%s", stderr)
	}
	return golden
}

// TestDistMatchesSeqVCD: a sharded run over real loopback sockets
// (in-process workers) must emit a VCD byte-identical to the sequential
// reference.
func TestDistMatchesSeqVCD(t *testing.T) {
	dir := t.TempDir()
	golden := distGolden(t, dir)
	for _, engine := range []string{"cmb", "timewarp"} {
		t.Run(engine, func(t *testing.T) {
			out := filepath.Join(dir, engine+"-dist.vcd")
			stdout, stderr, code := run(t,
				"-circuit", "ripple8", "-engine", engine, "-lps", "4", "-vectors", "20",
				"-dist", "2", "-dist-workdir", t.TempDir(), "-vcd", out, "-q")
			if code != 0 {
				t.Fatalf("dist run failed (%d):\n%s", code, stderr)
			}
			if !strings.Contains(stdout, "engine="+engine+"-dist") ||
				!strings.Contains(stdout, "mode=dist") {
				t.Errorf("summary line missing:\n%s", stdout)
			}
			if readFile(t, out) != readFile(t, golden) {
				t.Error("distributed waveform differs from the sequential reference")
			}
		})
	}
}

// TestDistExecKillRecoversVCD is the full-stack recovery e2e: real
// parsimd-worker OS processes, a seeded chaos plan whose kills SIGKILL
// workers mid-run, checkpointed fleet restarts — and a final VCD that
// is still byte-identical to the uninterrupted sequential run.
func TestDistExecKillRecoversVCD(t *testing.T) {
	dir := t.TempDir()
	worker := filepath.Join(dir, "parsimd-worker")
	if out, err := exec.Command("go", "build", "-o", worker, "../parsimd-worker").CombinedOutput(); err != nil {
		t.Fatalf("building parsimd-worker: %v\n%s", err, out)
	}
	golden := distGolden(t, dir)

	out := filepath.Join(dir, "dist.vcd")
	stdout, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "cmb", "-lps", "4", "-vectors", "20",
		"-dist", "2", "-dist-exec", worker, "-dist-workdir", t.TempDir(),
		"-checkpoint-every", "200", "-dist-restarts", "3",
		"-dist-chaos-seed", "7", "-dist-chaos-faults", "12", "-dist-chaos-kill",
		"-vcd", out, "-q")
	if code != 0 {
		t.Fatalf("chaos run failed (%d):\n%s", code, stderr)
	}
	m := regexp.MustCompile(`recoveries=(\d+)`).FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("summary missing the recovery count:\n%s", stdout)
	}
	if n, _ := strconv.Atoi(m[1]); n < 1 {
		t.Errorf("chaos kills forced no recovery:\n%s", stdout)
	}
	if readFile(t, out) != readFile(t, golden) {
		t.Error("post-recovery waveform differs from the sequential reference")
	}
}

// TestDistMeshMatchesSeqVCDAndStarvesHub: with -dist-mesh the waveform
// must still match the sequential reference byte for byte, while the
// metrics report proves the topology change — every inter-shard event
// batch took a direct worker link (hub data-plane bytes exactly zero,
// one relay hop instead of two).
func TestDistMeshMatchesSeqVCDAndStarvesHub(t *testing.T) {
	dir := t.TempDir()
	golden := distGolden(t, dir)
	for _, engine := range []string{"cmb", "timewarp"} {
		t.Run(engine, func(t *testing.T) {
			out := filepath.Join(dir, engine+"-mesh.vcd")
			mpath := filepath.Join(dir, engine+"-mesh-metrics.json")
			stdout, stderr, code := run(t,
				"-circuit", "ripple8", "-engine", engine, "-lps", "6", "-vectors", "20",
				"-dist", "3", "-dist-mesh", "-dist-workdir", t.TempDir(),
				"-vcd", out, "-metrics-out", mpath, "-q")
			if code != 0 {
				t.Fatalf("mesh run failed (%d):\n%s", code, stderr)
			}
			if !strings.Contains(stdout, "mode=dist") {
				t.Errorf("summary line missing:\n%s", stdout)
			}
			if readFile(t, out) != readFile(t, golden) {
				t.Error("mesh waveform differs from the sequential reference")
			}
			var rep struct {
				Gauges map[string]float64 `json:"gauges"`
			}
			if err := json.Unmarshal([]byte(readFile(t, mpath)), &rep); err != nil {
				t.Fatalf("metrics report does not parse: %v", err)
			}
			if hub := rep.Gauges["hub_bytes"]; hub != 0 {
				t.Errorf("hub relayed %v data-plane bytes on a mesh run, want 0", hub)
			}
			if mesh := rep.Gauges["mesh_bytes"]; mesh <= 0 {
				t.Errorf("mesh_bytes = %v, want > 0", mesh)
			}
			if hops := rep.Gauges["relay_hops"]; hops != 1 {
				t.Errorf("relay_hops = %v, want 1", hops)
			}
		})
	}
}

// TestDistMeshExecKillRecoversVCD is the mesh-topology twin of the
// full-stack recovery e2e, with incremental checkpoints on: real worker
// processes over direct peer links, a seeded plan whose kill SIGKILLs a
// worker mid-run, delta-chained shard snapshots — and a recovered VCD
// byte-identical to the uninterrupted sequential run. The fast
// heartbeat pace matters twice: control frames are all the hub sees of
// a mesh shard, so they both advance the chaos frame counter and feed
// the GVT piggyback. The run is ten times the other e2e workloads: the
// plan's first kill waits for the fifteenth hub frame, and a shard that
// finishes before it has sent that many would never be killed.
func TestDistMeshExecKillRecoversVCD(t *testing.T) {
	dir := t.TempDir()
	worker := filepath.Join(dir, "parsimd-worker")
	if out, err := exec.Command("go", "build", "-o", worker, "../parsimd-worker").CombinedOutput(); err != nil {
		t.Fatalf("building parsimd-worker: %v\n%s", err, out)
	}
	golden := filepath.Join(dir, "golden.vcd")
	if _, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "seq", "-vectors", "200", "-vcd", golden, "-q"); code != 0 {
		t.Fatalf("golden run failed:\n%s", stderr)
	}
	workDir := filepath.Join(dir, "work")

	out := filepath.Join(dir, "mesh-dist.vcd")
	stdout, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "cmb", "-lps", "4", "-vectors", "200",
		"-dist", "2", "-dist-mesh", "-dist-exec", worker, "-dist-workdir", workDir,
		"-ckpt-delta", "-checkpoint-every", "200", "-dist-restarts", "3",
		"-dist-heartbeat-every", "1ms",
		"-dist-chaos-seed", "23", "-dist-chaos-faults", "12", "-dist-chaos-kill",
		"-vcd", out, "-q")
	if code != 0 {
		t.Fatalf("mesh chaos run failed (%d):\n%s", code, stderr)
	}
	m := regexp.MustCompile(`recoveries=(\d+)`).FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("summary missing the recovery count:\n%s", stdout)
	}
	if n, _ := strconv.Atoi(m[1]); n < 1 {
		t.Errorf("chaos kill forced no recovery:\n%s", stdout)
	}
	if readFile(t, out) != readFile(t, golden) {
		t.Error("post-recovery mesh waveform differs from the sequential reference")
	}
	deltas, err := filepath.Glob(filepath.Join(workDir, "shard-*-delta-*.json"))
	if err != nil || len(deltas) == 0 {
		t.Errorf("no delta checkpoint records on disk (err=%v)", err)
	}
}

// TestExitCodeShardLoss extends the exit-code matrix: a kill plan with
// no restart budget and fallback disabled must abort with the
// shard-loss code (6) and a structured error naming the lost shard.
func TestExitCodeShardLoss(t *testing.T) {
	stdout, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "cmb", "-lps", "4", "-vectors", "30",
		"-dist", "2", "-dist-workdir", t.TempDir(), "-dist-restarts", "0",
		"-dist-chaos-seed", "7", "-dist-chaos-faults", "12", "-dist-chaos-kill",
		"-fallback=false", "-q")
	if code != exitShardLoss {
		t.Fatalf("exit code %d, want %d; stdout:\n%s\nstderr:\n%s", code, exitShardLoss, stdout, stderr)
	}
	if !strings.Contains(stderr, "shard") {
		t.Errorf("stderr missing the shard-loss classification:\n%s", stderr)
	}
}

// TestDistShardLossFallsBack: the same unsurvivable plan with fallback
// left on must degrade to a single-process engine and exit zero with
// the reference waveform.
func TestDistShardLossFallsBack(t *testing.T) {
	dir := t.TempDir()
	golden := distGolden(t, dir)
	out := filepath.Join(dir, "degraded.vcd")
	stdout, stderr, code := run(t,
		"-circuit", "ripple8", "-engine", "cmb", "-lps", "4", "-vectors", "20",
		"-dist", "2", "-dist-workdir", t.TempDir(), "-dist-restarts", "0",
		"-dist-chaos-seed", "7", "-dist-chaos-faults", "12", "-dist-chaos-kill",
		"-vcd", out, "-q")
	if code != 0 {
		t.Fatalf("fallback run failed (%d):\n%s", code, stderr)
	}
	if strings.Contains(stdout, "mode=dist") {
		t.Errorf("run should have degraded off the distributed path:\n%s", stdout)
	}
	if readFile(t, out) != readFile(t, golden) {
		t.Error("degraded waveform differs from the sequential reference")
	}
}

// TestDistFlagConflicts: what a fleet cannot honour is refused, with an
// error naming the offending flag — never accepted and ignored.
func TestDistFlagConflicts(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"wide", []string{"-dist", "2", "-engine", "cmb", "-wide", "-system", "2"}, "-wide"},
		{"adapt", []string{"-dist", "2", "-engine", "cmb", "-adapt"}, "-adapt"},
		{"adapt-spec", []string{"-dist", "2", "-engine", "cmb", "-adapt-spec", "{}"}, "-adapt"},
		{"fault", []string{"-dist", "2", "-engine", "cmb", "-fault-panic-lp", "1"}, "-fault-"},
		{"trace-out", []string{"-dist", "2", "-engine", "cmb", "-trace-out", "t.json"}, "-trace-out"},
		{"supervise", []string{"-dist", "2", "-engine", "cmb", "-supervise"}, "-supervise"},
		{"retries", []string{"-dist", "2", "-engine", "cmb", "-retries", "3"}, "-retries"},
		{"checkpoint-dir", []string{"-dist", "2", "-engine", "cmb", "-checkpoint-dir", "d"}, "-checkpoint-dir"},
		{"history-limit", []string{"-dist", "2", "-engine", "timewarp", "-history-limit", "64"}, "history-limit"},
		{"engine", []string{"-dist", "2", "-engine", "hybrid"}, "hybrid"},
		{"mesh-without-dist", []string{"-dist-mesh"}, "-dist-mesh"},
		{"delta-without-dist", []string{"-ckpt-delta"}, "-ckpt-delta"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := run(t, append([]string{"-circuit", "ripple8", "-q"}, tc.args...)...)
			if code == 0 {
				t.Fatalf("conflicting flags accepted: %v\n%s", tc.args, stdout)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr does not name %q:\n%s", tc.want, stderr)
			}
		})
	}
}

// TestDistHonoursFlags is the other half of that contract: every flag a
// fleet accepts takes effect. The transforms reshape the workload the hub
// prepares and ships, so each row's VCD must equal the sequential run's
// under the same transforms, byte for byte, over the hub relay and the
// mesh, with in-process workers and with parsimd-worker processes; the
// engine knobs reach the workers through the job header (pinned field by
// field in internal/dist) and must leave the waveform alone.
func TestDistHonoursFlags(t *testing.T) {
	dir := t.TempDir()
	worker := filepath.Join(dir, "parsimd-worker")
	if out, err := exec.Command("go", "build", "-o", worker, "../parsimd-worker").CombinedOutput(); err != nil {
		t.Fatalf("building parsimd-worker: %v\n%s", err, out)
	}
	workload := []string{"-circuit", "seq300", "-fine-delays", "3", "-vectors", "12", "-q"}
	seqVCD := func(name string, transforms ...string) string {
		path := filepath.Join(dir, name+".vcd")
		args := append(append([]string{"-engine", "seq", "-vcd", path}, workload...), transforms...)
		if _, stderr, code := run(t, args...); code != 0 {
			t.Fatalf("sequential reference %v failed:\n%s", transforms, stderr)
		}
		return readFile(t, path)
	}
	plain, optimized := seqVCD("plain"), seqVCD("opt", "-opt")

	// A restore point for the -restore rows, from a kill-free checkpointed run.
	ckpts := filepath.Join(dir, "ckpts")
	if _, stderr, code := run(t, append([]string{"-engine", "seq",
		"-checkpoint-every", "150", "-checkpoint-dir", ckpts}, workload...)...); code != 0 {
		t.Fatalf("checkpointed run failed:\n%s", stderr)
	}
	snaps, _ := filepath.Glob(filepath.Join(ckpts, "ckpt-*.json"))
	if len(snaps) < 2 {
		t.Fatalf("expected >= 2 checkpoints, got %v", snaps)
	}
	sort.Strings(snaps)
	restore := snaps[len(snaps)/2]
	// An optimized netlist has its own fingerprint, hence its own snapshots.
	optCkpts := filepath.Join(dir, "opt-ckpts")
	if _, stderr, code := run(t, append([]string{"-engine", "seq", "-opt",
		"-checkpoint-every", "150", "-checkpoint-dir", optCkpts}, workload...)...); code != 0 {
		t.Fatalf("checkpointed -opt run failed:\n%s", stderr)
	}
	optSnaps, _ := filepath.Glob(filepath.Join(optCkpts, "ckpt-*.json"))
	sort.Strings(optSnaps)
	optRestore := optSnaps[len(optSnaps)/2]

	profile := filepath.Join(dir, "cpu.prof")
	topologies := []struct {
		name string
		args []string
	}{
		{"hub", nil},
		{"mesh", []string{"-dist-mesh"}},
		{"hub-exec", []string{"-dist-exec", worker}},
		{"mesh-exec", []string{"-dist-mesh", "-dist-exec", worker}},
	}
	for _, tc := range []struct {
		name   string
		engine string
		args   []string
		want   string
		topos  int // how many of the topologies the row runs on
	}{
		{"opt", "cmb", []string{"-opt"}, optimized, 4},
		{"opt-passes", "cmb", []string{"-opt-passes", "constprop,hash,bufclean,dce"}, optimized, 1},
		{"cone-split", "cmb-demand", []string{"-cone-split"}, plain, 4},
		{"presim", "timewarp", []string{"-presim"}, plain, 4},
		{"restore", "timewarp-lazy", []string{"-restore", restore}, plain, 4},
		// Checkpointing itself, so the boot state flows through the shard shadow too.
		{"restore-ckpt", "cmb", []string{"-restore", restore, "-checkpoint-every", "150", "-ckpt-delta"}, plain, 2},
		{"all", "cmb", []string{"-opt", "-cone-split", "-presim", "-restore", optRestore}, optimized, 4},
		{"all-timewarp", "timewarp", []string{"-opt", "-cone-split", "-presim", "-restore", optRestore}, optimized, 4},
		{"queue", "timewarp", []string{"-queue", "calendar"}, plain, 1},
		{"window", "timewarp", []string{"-window", "7"}, plain, 1},
		{"lazy", "timewarp", []string{"-lazy"}, plain, 1},
		{"full-copy", "timewarp", []string{"-full-copy"}, plain, 1},
		{"watchdog", "cmb", []string{"-watchdog", "30s"}, plain, 1},
		{"partition", "cmb", []string{"-partition", "kl", "-seed", "1"}, plain, 1},
		{"cpuprofile", "cmb", []string{"-cpuprofile", profile}, plain, 1},
	} {
		for _, topo := range topologies[:tc.topos] {
			t.Run(tc.name+"/"+topo.name, func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "dist.vcd")
				args := append(append([]string{"-engine", tc.engine, "-lps", "4", "-dist", "2", "-vcd", out}, workload...), tc.args...)
				stdout, stderr, code := run(t, append(args, topo.args...)...)
				if code != 0 {
					t.Fatalf("exit %d:\n%s", code, stderr)
				}
				if !strings.Contains(stdout, "mode=dist") {
					t.Errorf("run left the distributed path:\n%s", stdout)
				}
				if readFile(t, out) != tc.want {
					t.Error("waveform differs from -engine seq under the same transforms")
				}
			})
		}
	}
	if fi, err := os.Stat(profile); err != nil || fi.Size() == 0 {
		t.Errorf("-cpuprofile under -dist wrote no profile (err=%v)", err)
	}
}

// TestDistExecWorkerNeedsNoFiles: the netlist reaches a worker process in
// its job frame, not through the filesystem. The hub reads -bench by a
// relative path; each parsimd-worker starts in an empty directory, where
// that path names nothing.
func TestDistExecWorkerNeedsNoFiles(t *testing.T) {
	dir := t.TempDir()
	worker := filepath.Join(dir, "parsimd-worker")
	if out, err := exec.Command("go", "build", "-o", worker, "../parsimd-worker").CombinedOutput(); err != nil {
		t.Fatalf("building parsimd-worker: %v\n%s", err, out)
	}
	circgen := filepath.Join(dir, "circgen")
	if out, err := exec.Command("go", "build", "-o", circgen, "../circgen").CombinedOutput(); err != nil {
		t.Fatalf("building circgen: %v\n%s", err, out)
	}
	hubDir, empty := filepath.Join(dir, "hub"), filepath.Join(dir, "empty")
	for _, d := range []string{hubDir, empty} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if out, err := exec.Command(circgen, "-circuit", "dag200", "-fine-delays", "3",
		"-o", filepath.Join(hubDir, "design.bench")).CombinedOutput(); err != nil {
		t.Fatalf("circgen: %v\n%s", err, out)
	}
	launcher := filepath.Join(dir, "worker-in-empty-dir.sh")
	script := fmt.Sprintf("#!/bin/sh\ncd %q && exec %q \"$@\"\n", empty, worker)
	if err := os.WriteFile(launcher, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}

	parsim := func(args ...string) {
		t.Helper()
		cmd := exec.Command(binPath, append([]string{"-bench", "design.bench", "-vectors", "10", "-q"}, args...)...)
		cmd.Dir = hubDir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("parsim %v: %v\n%s", args, err, out)
		}
	}
	parsim("-engine", "seq", "-vcd", "golden.vcd")
	parsim("-engine", "cmb", "-lps", "4", "-dist", "2", "-dist-exec", launcher,
		"-dist-workdir", filepath.Join(dir, "work"), "-dist-restarts", "0", "-fallback=false", "-vcd", "dist.vcd")
	if readFile(t, filepath.Join(hubDir, "dist.vcd")) != readFile(t, filepath.Join(hubDir, "golden.vcd")) {
		t.Error("fleet waveform differs from the sequential reference")
	}
}
