package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metric names one number the benchmark reports. BENCHMARK.json lists
// the same names with the same units; a test keeps the two in step.
type metric struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd are the metrics a user of parsim would see, measured on the
// real binary with tracing off.
var endToEnd = []metric{
	{name: "wall_s", unit: "s"},
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MiB"},
	{name: "vectors_per_s", unit: "vectors/s", higher: true},
}

// perLayer are the metrics of single layers: span self times and
// counters from the traced in-process pass, then the ladder. A metric
// that does not apply to a workload (opt_s without -opt, the byte counts
// without -dist, evals under -dist, which reports events only) reads 0.
var perLayer = []metric{
	{name: "load_s", unit: "s"},
	{name: "load_gates_per_s", unit: "gates/s", higher: true},
	{name: "opt_s", unit: "s"},
	{name: "opt_gates_removed", unit: "count", higher: true},
	{name: "opt_levels_after", unit: "count"},
	{name: "stim_s", unit: "s"},
	{name: "partition_s", unit: "s"},
	{name: "partition_cut_links", unit: "count"},
	{name: "partition_imbalance", unit: "ratio"},
	{name: "sim_s", unit: "s"},
	{name: "ns_per_event", unit: "ns/event"},
	{name: "vcd_s", unit: "s"},
	{name: "evals", unit: "count"},
	{name: "events_applied", unit: "count"},
	{name: "messages_sent", unit: "count"},
	{name: "null_ratio", unit: "ratio"},
	{name: "rollback_waste", unit: "ratio"},
	{name: "parallel_cost", unit: "ratio"},
	{name: "dist_mesh_bytes", unit: "bytes"},
	{name: "dist_hub_bytes", unit: "bytes"},
	{name: "ckpt_full_bytes", unit: "bytes"},
	{name: "ckpt_delta_bytes", unit: "bytes"},
	{name: "traced_total_s", unit: "s"},
	{name: "unattributed_s", unit: "s"},
	{name: "inproc_vs_binary", unit: "ratio"},
	// The ladder.
	{name: "logic_op_ns", unit: "ns"},
	{name: "logic_wide_op_ns", unit: "ns"},
	{name: "kernel_step_ns_per_eval", unit: "ns/eval"},
	{name: "kernel_step_allocs", unit: "allocs/op"},
	{name: "eventq_hold_ns.heap", unit: "ns"},
	{name: "eventq_hold_ns.calendar", unit: "ns"},
	{name: "eventq_hold_ns.wheel", unit: "ns"},
	{name: "mpsc_msg_ns", unit: "ns"},
	{name: "wire_frame_ns", unit: "ns"},
	{name: "ckpt_write_read_ns", unit: "ns"},
	{name: "ckpt_delta_apply_ns", unit: "ns"},
	{name: "ckpt_fixture_full_bytes", unit: "bytes"},
	{name: "ckpt_fixture_delta_bytes", unit: "bytes"},
}

// benchmarkSpec is BENCHMARK.json, the contract every later performance
// claim in this repository is measured against.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(root string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}
