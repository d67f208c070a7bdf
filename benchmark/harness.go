package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

const (
	// pinnedProcs is GOMAXPROCS for every child and for this process, so
	// the load is the same on any machine with at least two cores.
	pinnedProcs = 2
	// invocationTimeout fails an invocation that hangs.
	invocationTimeout = 90 * time.Second
	// minSamples is the fewest timed invocations, set-up repetitions or
	// traced passes a full-size run reports a median of.
	minSamples = 5
	// setupBudget caps the seconds spent repeating set-up beyond
	// minSamples, and maxSetupReps the repetitions.
	setupBudget  = 1.5
	maxSetupReps = 5 * minSamples
	// referenceInvocations is how many binary runs a traced run makes to
	// compare the in-process total against.
	referenceInvocations = 3
)

// harness runs workloads against one build of cmd/parsim.
type harness struct {
	root    string // the checkout: holds cmd/parsim and BENCHMARK.json
	dir     string // this run's scratch directory
	parsim  string // the built binary
	smoke   bool   // tiny inputs, one sample of everything
	seed    int64
	seconds float64 // how long one measuring loop lasts
	rec     *recorder
	log     io.Writer
}

// newHarness creates the scratch directory under workBase and builds
// ./cmd/parsim into it.
func newHarness(root, workBase string, smoke bool, seed int64, seconds float64, log io.Writer) (*harness, error) {
	if err := os.MkdirAll(workBase, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workBase, "run-")
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, dir: dir, parsim: filepath.Join(dir, "parsim"),
		smoke: smoke, seed: seed, seconds: seconds, rec: newRecorder(), log: log}
	bin, err := filepath.Abs(h.parsim)
	if err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", bin, "./cmd/parsim")
	build.Dir = root
	build.Stderr = log
	if err := build.Run(); err != nil {
		h.close()
		return nil, fmt.Errorf("go build ./cmd/parsim in %s: %w", root, err)
	}
	return h, nil
}

func (h *harness) close() { os.RemoveAll(h.dir) }

func (h *harness) logf(format string, args ...any) { fmt.Fprintf(h.log, format+"\n", args...) }

// reps is n at full size and 1 under -smoke, where one sample of
// everything is enough to show that the path works.
func (h *harness) reps(n int) int {
	if h.smoke {
		return 1
	}
	return n
}

// measuring reports whether a loop that has made n rounds since start
// should make another: always up to minSamples, then until the budget of
// seconds is spent. Under -smoke the budget is zero.
func (h *harness) measuring(n int, start time.Time, seconds float64) bool {
	return n < h.reps(minSamples) || time.Since(start).Seconds() < seconds
}

// inputs are one workload's generated files and its correctness oracle.
type inputs struct {
	bench   string // the netlist, the only circuit input parsim receives
	vcd     string // where every run of the workload writes its waveform
	distDir string // -dist-workdir: shard checkpoints land here
	golden  string // SHA-256 of the sequential engine's VCD
}

// generate writes the workload's netlist and computes its golden VCD
// hash with an untimed `parsim -engine seq` run on the same circuit,
// stimulus and value system.
func (h *harness) generate(w workload) (inputs, error) {
	in := inputs{
		bench:   filepath.Join(h.dir, w.name+".bench"),
		vcd:     filepath.Join(h.dir, w.name+".vcd"),
		distDir: filepath.Join(h.dir, w.name+".dist"),
	}
	if err := w.writeCircuit(in.bench); err != nil {
		return in, err
	}
	if _, err := h.runParsim(w.goldenArgs(in.bench, in.vcd, h.seed), in); err != nil {
		return in, fmt.Errorf("golden: %w", err)
	}
	var err error
	in.golden, err = hashFile(in.vcd)
	return in, err
}

// invocation is what one run of the binary cost.
type invocation struct {
	wall   float64 // seconds from exec to exit, VCD write included
	rssMiB float64 // the child's peak resident set
}

// clean removes the VCD and the shard checkpoints an earlier run left, so
// that they cannot stand in for the next one's.
func (in inputs) clean() error {
	if err := os.Remove(in.vcd); err != nil && !os.IsNotExist(err) {
		return err
	}
	return os.RemoveAll(in.distDir)
}

// runParsim executes the binary once. It fails on a non-zero exit or a
// timeout; the caller checks the VCD.
func (h *harness) runParsim(args []string, in inputs) (invocation, error) {
	if err := in.clean(); err != nil {
		return invocation{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), invocationTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, h.parsim, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", pinnedProcs))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if ctx.Err() != nil {
		return invocation{}, fmt.Errorf("timed out after %v", invocationTimeout)
	}
	if err != nil {
		return invocation{}, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return invocation{}, fmt.Errorf("no resource usage for the child on this platform")
	}
	return invocation{wall: wall.Seconds(), rssMiB: float64(ru.Maxrss) / 1024}, nil // Linux reports KiB
}

// invoke is one timed invocation: run the binary, then hold its VCD
// against the golden.
func (h *harness) invoke(w workload, in inputs) (invocation, error) {
	inv, err := h.runParsim(w.args(in.bench, in.vcd, in.distDir, h.seed), in)
	if err != nil {
		return inv, err
	}
	return inv, checkVCD(in)
}

func checkVCD(in inputs) error {
	got, err := hashFile(in.vcd)
	if err != nil {
		return err
	}
	if got != in.golden {
		return fmt.Errorf("VCD sha256 %.12s differs from the sequential golden %.12s", got, in.golden)
	}
	return nil
}

func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sum := sha256.New()
	if _, err := io.Copy(sum, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(sum.Sum(nil)), nil
}

// resetPeakRSS lowers this process's resident-set high-water mark to its
// current size. Linux folds the parent's mark into a child started with
// vfork semantics, as os/exec starts it, so without this a child's Maxrss
// is never below the most memory this process ever held.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// result collects a workload's samples by metric name.
type result struct {
	samples           map[string][]float64
	attempted, failed int
}

func (r *result) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// fail counts one failed operation and prints it with the workload name.
func (h *harness) fail(r *result, w workload, what string, err error) {
	r.failed++
	h.logf("FAIL %s: %s: %v", w.name, what, err)
}

// endToEnd measures the end-to-end metrics with tracing off: first the
// real binary as a subprocess, for wall time, memory and throughput, then
// the set-up phases in process. The two do not alternate: in-process work
// between invocations left this process collecting and returning memory
// while the next child ran, and the children came out 10 % slower. No
// invocation is discarded as a warm-up: the golden run has just executed
// the same binary on the same netlist. Every invocation and every set-up
// repetition counts as attempted.
func (h *harness) endToEnd(w workload, in inputs) *result {
	r := &result{samples: map[string][]float64{}}
	// Generating the netlist left garbage behind; hand it back now so that
	// this process is idle while the children run, and small when it forks.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		h.logf("%s: peak_rss_mb may read this process's peak, not the child's: %v", w.name, err)
	}
	start := time.Now()
	for n := 0; h.measuring(n, start, h.seconds); n++ {
		r.attempted++
		inv, err := h.invoke(w, in)
		if err != nil {
			h.fail(r, w, "invocation", err)
			continue
		}
		r.add("wall_s", inv.wall)
		r.add("peak_rss_mb", inv.rssMiB)
		r.add("vectors_per_s", float64(w.inputVectors())/inv.wall)
	}

	start = time.Now()
	for n := 0; n < maxSetupReps && h.measuring(n, start, min(h.seconds, setupBudget)); n++ {
		r.attempted++
		runtime.GC() // each repetition starts from a collected heap, as a fresh process does
		t := time.Now()
		if _, err := w.prepare(nil, in.bench, h.seed); err != nil {
			h.fail(r, w, "set-up", err)
			break
		}
		r.add("setup_s", time.Since(t).Seconds())
	}
	return r
}

// traced makes the per-layer measurements: in-process passes of the
// pipeline with a span around each layer, each checked against the
// golden. binaryWall is the binary's median wall time if it is already
// known; otherwise a few untraced invocations measure it first.
func (h *harness) traced(w workload, in inputs, binaryWall float64) *result {
	r := &result{samples: map[string][]float64{}}
	start := time.Now()
	if binaryWall == 0 {
		var walls []float64
		for i := 0; i < h.reps(referenceInvocations); i++ {
			r.attempted++
			inv, err := h.invoke(w, in)
			if err != nil {
				h.fail(r, w, "reference invocation", err)
				continue
			}
			walls = append(walls, inv.wall)
		}
		binaryWall = median(walls)
	}

	for n := 0; h.measuring(n, start, h.seconds); n++ {
		r.attempted++
		runtime.GC()
		err := in.clean()
		var m map[string]float64
		if err == nil {
			m, err = w.tracedPass(h.rec, in.bench, in.vcd, in.distDir, h.seed)
		}
		if err == nil {
			err = checkVCD(in)
		}
		if err != nil {
			h.fail(r, w, "traced pass", err)
			continue
		}
		for name, v := range m {
			r.add(name, v)
		}
		if binaryWall > 0 {
			r.add("inproc_vs_binary", m["traced_total_s"]/binaryWall)
		}
	}

	if (w.engine == "cmb" || w.engine == "timewarp") && !w.dist {
		r.attempted++
		seqSim, err := h.sequentialSim(w, in)
		if err != nil {
			h.fail(r, w, "sequential baseline", err)
		} else {
			r.samples["parallel_cost"] = scale(r.samples["sim_s"], 1/seqSim)
		}
	}
	return r
}

// sequentialSim is seq.Run's median time on the workload's own prepared
// input, the denominator of parallel_cost.
func (h *harness) sequentialSim(w workload, in inputs) (float64, error) {
	p, err := w.prepare(nil, in.bench, h.seed)
	if err != nil {
		return 0, err
	}
	base := w
	base.engine, base.coneSplit = "seq", false
	var times []float64
	for n := 0; n < h.reps(referenceInvocations); n++ {
		runtime.GC()
		t := time.Now()
		if _, err := base.simulate(p, in.bench, in.distDir, h.seed); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return median(times), nil
}
