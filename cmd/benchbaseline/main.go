// Command benchbaseline runs the repository's hot-path benchmark suite
// (internal/benchsuite) via testing.Benchmark and writes the results as
// BENCH_parsim.json — the committed wall-clock and allocation baseline
// that performance PRs diff against.
//
// Usage:
//
//	go run ./cmd/benchbaseline [-benchtime 20x] [-filter all|micro|wide|opt|conesplit|adapt|dist|engines|partition] [-o BENCH_parsim.json] [-force]
//
// The emitted JSON is deterministic in shape and ordering (one entry per
// suite benchmark, suite order); the measured numbers naturally vary with
// the machine, so diffs against the committed file are judged as ratios,
// not byte equality. Regenerate on a quiet machine with:
//
//	go run ./cmd/benchbaseline -o BENCH_parsim.json
//
// Every result row records the CPU count and GOMAXPROCS it ran under, and
// the document carries the full environment fingerprint (Go version, OS,
// architecture, CPU count, GOMAXPROCS). Overwriting an existing baseline
// whose fingerprint differs is refused — a baseline recorded on one machine
// silently replaced by numbers from another is how a wall-clock baseline
// stops meaning anything — pass -force to override deliberately.
//
// With a -filter other than all, only that slice's rows of an existing
// baseline are replaced (or appended, in suite order after the rest); the
// other rows and the document header stay, each row's own num_cpu and
// gomaxprocs saying where it was measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/benchsuite"
)

// entry is one benchmark's measured baseline.
type entry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// NumCPU and Gomaxprocs are the host CPU count and the parallelism the
	// result was measured under. They are recorded per result, not only
	// per document, so rows re-baselined on their own (-filter) or patched
	// by hand still carry their provenance. NumCPU is absent from rows
	// older than the field: the document header's applies to them.
	NumCPU     int                `json:"num_cpu,omitempty"`
	Gomaxprocs int                `json:"gomaxprocs"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// baseline is the BENCH_parsim.json document.
type baseline struct {
	Command    string  `json:"command"`
	Go         string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	Gomaxprocs int     `json:"gomaxprocs"`
	BenchTime  string  `json:"benchtime"`
	Results    []entry `json:"results"`
}

// fingerprint is the comparable environment identity of a baseline.
func (b *baseline) fingerprint() string {
	return fmt.Sprintf("go=%s goos=%s goarch=%s num_cpu=%d gomaxprocs=%d",
		b.Go, b.GOOS, b.GOARCH, b.NumCPU, b.Gomaxprocs)
}

func main() {
	benchtime := flag.String("benchtime", "20x", "per-benchmark budget (testing -benchtime syntax)")
	filter := flag.String("filter", "all", "which suite slice to run: all, micro, wide, opt, conesplit, adapt, dist, engines, or partition")
	out := flag.String("o", "BENCH_parsim.json", "output path ('-' for stdout)")
	force := flag.Bool("force", false, "overwrite an existing baseline even if its environment fingerprint differs")
	flag.Parse()

	// testing.Benchmark honours the package-level -test.benchtime flag, so
	// the flag set must be initialised and the value injected by name.
	testing.Init()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintf(os.Stderr, "benchbaseline: bad -benchtime %q: %v\n", *benchtime, err)
		os.Exit(2)
	}
	flag.Parse() // re-parse so the testing flags take effect

	var suite []benchsuite.Benchmark
	switch *filter {
	case "all":
		suite = benchsuite.All()
	case "micro":
		suite = benchsuite.Micro()
	case "wide":
		suite = benchsuite.Wide()
	case "opt":
		suite = benchsuite.Opt()
	case "conesplit":
		suite = benchsuite.ConeSplit()
	case "adapt":
		suite = benchsuite.Adapt()
	case "dist":
		suite = benchsuite.Dist()
	case "engines":
		suite = benchsuite.Engines()
	case "partition":
		suite = benchsuite.Partition()
	default:
		fmt.Fprintf(os.Stderr, "benchbaseline: unknown -filter %q (want all, micro, wide, opt, conesplit, adapt, dist, engines, or partition)\n", *filter)
		os.Exit(2)
	}

	doc := baseline{
		Command:    "go run ./cmd/benchbaseline",
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		BenchTime:  *benchtime,
	}

	// Fingerprint guard: refuse to replace a baseline measured in a
	// different environment unless forced.
	var prev baseline
	if *out != "-" {
		if raw, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(raw, &prev); err != nil {
				fmt.Fprintf(os.Stderr, "benchbaseline: existing %s is not a baseline document: %v\n(pass -force to overwrite anyway)\n", *out, err)
				if !*force {
					os.Exit(1)
				}
			} else if prev.fingerprint() != doc.fingerprint() {
				fmt.Fprintf(os.Stderr, "benchbaseline: environment fingerprint mismatch with existing %s:\n  recorded: %s\n  current:  %s\n", *out, prev.fingerprint(), doc.fingerprint())
				if !*force {
					fmt.Fprintf(os.Stderr, "refusing to overwrite — numbers from different environments are not comparable (pass -force to override)\n")
					os.Exit(1)
				}
				fmt.Fprintf(os.Stderr, "-force given: overwriting\n")
			}
		}
	}

	for _, bm := range suite {
		fmt.Fprintf(os.Stderr, "running %-32s ", bm.Name)
		r := testing.Benchmark(bm.Fn)
		e := entry{
			Name:        bm.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			NumCPU:      runtime.NumCPU(),
			Gomaxprocs:  runtime.GOMAXPROCS(0),
		}
		if len(r.Extra) > 0 {
			e.Extra = make(map[string]float64, len(r.Extra))
			keys := make([]string, 0, len(r.Extra))
			for k := range r.Extra {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				e.Extra[k] = r.Extra[k]
			}
		}
		doc.Results = append(doc.Results, e)
		fmt.Fprintf(os.Stderr, "%12.0f ns/op %8d B/op %6d allocs/op\n",
			e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}

	if *filter != "all" && len(prev.Results) > 0 {
		doc = merge(prev, doc.Results)
	}

	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchbaseline: encode: %v\n", err)
		os.Exit(1)
	}
	if *out == "-" {
		fmt.Print(sb.String())
		return
	}
	if err := os.WriteFile(*out, []byte(sb.String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchbaseline: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", *out, len(doc.Results))
}

// merge returns prev with each fresh row replacing the row of the same
// name, and fresh rows prev lacks appended.
func merge(prev baseline, fresh []entry) baseline {
	at := make(map[string]int, len(prev.Results))
	for i, e := range prev.Results {
		at[e.Name] = i
	}
	for _, e := range fresh {
		if i, ok := at[e.Name]; ok {
			prev.Results[i] = e
		} else {
			prev.Results = append(prev.Results, e)
		}
	}
	return prev
}
