// Command benchmark is this repository's performance benchmark: it drives
// the real parsim binary end to end on eight workloads and, in a separate
// traced pass, attributes the time to layers. BENCHMARK.json at the root
// of the repository fixes its metrics, workloads and regression bounds;
// README.md beside this file explains the choices.
//
// With -workload it measures one workload for -seconds seconds and prints
// one JSON result line (the form BENCHMARK.json's command is run in).
// Without it, it runs every workload, tracing off and then on, and prints
// a table and a JSON document.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errFailed reports that some operation failed or some VCD differed; the
// details were printed as they happened.
var errFailed = errors.New("failed operations, see above")

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root     = fs.String("root", ".", "the checkout to benchmark: holds cmd/parsim and BENCHMARK.json")
		workBase = fs.String("workdir", "", "scratch directory for builds and inputs (default <root>/.bench_build/work)")
		name     = fs.String("workload", "", "measure this one workload and print one JSON result line")
		seed     = fs.Int64("seed", 1, "stimulus and partition seed")
		seconds  = fs.Float64("seconds", 0, "how long each measuring loop lasts (default BENCHMARK.json's run_seconds)")
		traceOn  = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		smoke    = fs.Bool("smoke", false, "tiny inputs and one sample of everything: shows that every path works, measures nothing")
		agree    = fs.Bool("agree", false, "measure the end-to-end metrics of every workload twice and fail if the two disagree beyond their bounds")
		outPath  = fs.String("o", "", "write the JSON document here and not to standard output")
		traceOut = fs.String("trace-out", "", "write the traced passes' spans as Chrome trace_event JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if runtime.NumCPU() < pinnedProcs {
		return fmt.Errorf("refusing to run on %d CPU: every workload pins GOMAXPROCS=%d and the parallel ones run %d LPs",
			runtime.NumCPU(), pinnedProcs, pinnedProcs)
	}
	runtime.GOMAXPROCS(pinnedProcs)
	var one workload
	if *name != "" {
		var ok bool
		if one, ok = workloadByName(*name); !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
	}

	spec, err := readSpec(*root)
	if err != nil {
		return err
	}
	switch {
	case *smoke:
		*seconds = 0
	case *seconds == 0:
		*seconds = float64(spec.RunSeconds)
	}
	if *workBase == "" {
		*workBase = filepath.Join(*root, ".bench_build", "work")
	}
	h, err := newHarness(*root, *workBase, *smoke, *seed, *seconds, stderr)
	if err != nil {
		return err
	}
	defer h.close()

	switch {
	case *name != "":
		err = h.runOne(one, *traceOn == 1, stdout)
	case *agree:
		err = h.runAgree(spec, stdout)
	default:
		err = h.runAll(stdout, *outPath)
	}
	if *traceOut != "" {
		if werr := h.writeTrace(*traceOut); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

func (h *harness) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := h.rec.writeChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ladder runs the rungs, one sample each under -smoke.
func (h *harness) ladder() (*ladderResult, error) {
	return runLadder(h.reps(ladderSamples), filepath.Join(h.dir, "wire.sock"))
}

// runOne measures one workload and prints the result line: with tracing
// off every end-to-end metric, with tracing on every per-layer metric.
func (h *harness) runOne(w workload, traceOn bool, stdout io.Writer) error {
	w = w.sized(h.smoke)
	in, err := h.generate(w)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	var r *result
	defs := endToEnd
	if traceOn {
		defs = perLayer
		r = h.traced(w, in, 0)
		lad, err := h.ladder()
		if err != nil {
			return err
		}
		for k, v := range lad.samples {
			r.samples[k] = v
		}
	} else {
		r = h.endToEnd(w, in)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, d := range defs {
		s := summarize(d.unit, r.samples[d.name])
		line.Metrics[d.name] = value{s.Median, s.Unit}
		h.logf("%-14s %-26s %14.6g %-9s [%.6g, %.6g] n=%d", w.name, d.name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
	}
	return json.NewEncoder(stdout).Encode(line)
}

// document is the machine-readable result of a full run.
type document struct {
	Env       environment        `json:"env"`
	Smoke     bool               `json:"smoke"`
	Workloads []workloadReport   `json:"workloads"`
	Ladder    map[string]summary `json:"ladder"`
	// LadderAllocs is allocations per operation of each timed rung.
	LadderAllocs map[string]float64 `json:"ladder_allocs_per_op"`
}

type workloadReport struct {
	Name      string             `json:"name"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
}

// environment is the fingerprint numbers are only comparable within.
type environment struct {
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

func (h *harness) environment() environment {
	commit := "unknown" // a checkout without .git
	if out, err := exec.Command("git", "-C", h.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: pinnedProcs, Commit: commit}
}

// isLadder reports whether a per-layer metric comes from the ladder and
// so belongs to no workload.
func isLadder(lad *ladderResult, name string) bool {
	_, ok := lad.samples[name]
	return ok
}

// runAll is the one command: every workload with tracing off, then
// traced, then the ladder; a table for people and a JSON document for
// machines. It fails if any operation failed.
func (h *harness) runAll(stdout io.Writer, outPath string) error {
	doc := document{Env: h.environment(), Smoke: h.smoke, Ladder: map[string]summary{}}
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', 0)
	row := func(scope, name string, s summary) {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t[%.6g, %.6g]\t%d\n", scope, name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
	}
	fmt.Fprintf(tw, "workload\tmetric\tmedian\tunit\tquartiles\tn\n")

	lad, err := h.ladder()
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range workloads {
		w = w.sized(h.smoke)
		h.logf("%s: generating inputs and golden", w.name)
		in, err := h.generate(w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		h.logf("%s: timed invocations, tracing off", w.name)
		e2e := h.endToEnd(w, in)
		h.logf("%s: traced passes", w.name)
		layers := h.traced(w, in, median(e2e.samples["wall_s"]))

		rep := workloadReport{Name: w.name, Seed: h.seed, Metrics: map[string]summary{},
			Attempted: e2e.attempted + layers.attempted, Failed: e2e.failed + layers.failed}
		for _, d := range endToEnd {
			rep.Metrics[d.name] = summarize(d.unit, e2e.samples[d.name])
			row(w.name, d.name, rep.Metrics[d.name])
		}
		for _, d := range perLayer {
			if !isLadder(lad, d.name) {
				rep.Metrics[d.name] = summarize(d.unit, layers.samples[d.name])
				row(w.name, d.name, rep.Metrics[d.name])
			}
		}
		fmt.Fprintf(tw, "%s\tfailed/attempted\t%d/%d\t\t\t\n", w.name, rep.Failed, rep.Attempted)
		failed += rep.Failed
		doc.Workloads = append(doc.Workloads, rep)
	}
	for _, d := range perLayer {
		if isLadder(lad, d.name) {
			doc.Ladder[d.name] = summarize(d.unit, lad.samples[d.name])
			row("ladder", d.name, doc.Ladder[d.name])
		}
	}
	doc.LadderAllocs = lad.allocs
	if err := tw.Flush(); err != nil {
		return err
	}

	out := stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if failed > 0 {
		return errFailed
	}
	return nil
}

// runAgree measures every workload's end-to-end metrics twice, back to
// back, and holds the two sets of medians against the bounds in
// BENCHMARK.json: a benchmark whose own repeat lies outside a bound
// cannot judge a change against it.
func (h *harness) runAgree(spec *benchmarkSpec, stdout io.Writer) error {
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tfirst\tsecond\tsecond/first\tbound\t\n")
	disagree, failed := 0, 0
	for _, w := range workloads {
		w = w.sized(h.smoke)
		in, err := h.generate(w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		h.logf("%s: first set", w.name)
		first := h.endToEnd(w, in)
		h.logf("%s: second set", w.name)
		second := h.endToEnd(w, in)
		failed += first.failed + second.failed
		for _, d := range endToEnd {
			a, b := median(first.samples[d.name]), median(second.samples[d.name])
			verdict := ""
			if a <= 0 || b <= 0 || max(a, b)/min(a, b)-1 > bounds[d.name] {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f\t%.2f\t%s\n", w.name, d.name, a, b, b/a, bounds[d.name], verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failed > 0 {
		return errFailed
	}
	if disagree > 0 {
		return fmt.Errorf("%d metric pairs disagree beyond their bounds", disagree)
	}
	return nil
}
