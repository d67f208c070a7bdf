// Package dist runs one simulation as a set of worker processes, each
// owning a contiguous shard of the LPs, joined by the reliable socket
// transport in internal/dist/wire and coordinated by an in-process hub.
//
// The hub is a star: every worker holds exactly one connection to the
// coordinator, which relays framed event batches between shards, drives
// the distributed Mattern-style GVT conversation for the optimistic
// engines, and watches per-connection heartbeats. Fault tolerance is
// checkpoint-restart over the whole fleet: each worker's sequential
// shadow writes shard-restricted snapshots at fixed modeled-time
// boundaries, and when a shard is lost (crash, hang, or partition that
// outlives the retry budget) the hub kills every worker, merges the
// latest boundary that is complete and uncorrupted across all shards,
// and relaunches the fleet booted from the merged cut. When the restart
// budget is exhausted the run degrades to a single-process supervised
// run (sync, then seq) or fails with a structured shard-loss error.
//
// The workload is prepared once, by the hub, through internal/pipeline —
// the same load → optimize → stimulus → partition path every other front
// end uses — and shipped to every worker inside its job frame: the flat
// netlist, the stimulus, the horizon, the partition and the shard map,
// sealed with the circuit fingerprint. Workers decode and verify it; they
// never re-derive it, so every shard simulates one object and anything
// that transforms the netlist (-opt, -cone-split, -presim) distributes by
// construction.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/logic"
	"repro/internal/pipeline"
	"repro/internal/sim/timewarp"
)

// Job is the header of a worker's FJob frame: the engine configuration
// and this worker's place in the fleet. The encoded prepared run follows
// it in the same frame (see encodeJob). It is JSON so a captured frame
// can be read by hand.
type Job struct {
	// Engine is the worker engine: cmb, cmb-demand, timewarp, or
	// timewarp-lazy. The deadlock-recovery and hybrid variants need
	// global in-process coordination and do not distribute.
	Engine string `json:"engine"`
	// System is the logic value system (2, 4, or 9).
	System uint8 `json:"system"`
	// Queue, Window, Cancellation, StateSaving and HistoryLimit are the
	// core.Options fields of the same names.
	Queue        eventq.Impl           `json:"queue,omitempty"`
	Window       uint64                `json:"window,omitempty"`
	Cancellation timewarp.Cancellation `json:"cancellation,omitempty"`
	StateSaving  timewarp.StateSaving  `json:"state_saving,omitempty"`
	HistoryLimit uint64                `json:"history_limit,omitempty"`
	// MaxEvents aborts runaway shards (0 = unlimited).
	MaxEvents uint64 `json:"max_events,omitempty"`
	// HangTimeoutMs arms the worker's progress watchdog (0 = off).
	HangTimeoutMs int64 `json:"hang_timeout_ms,omitempty"`
	// HeartbeatMs paces the worker's liveness beacon.
	HeartbeatMs int64 `json:"heartbeat_ms"`

	// Shards is the fleet size; Shard is this worker's index; Attempt
	// is the hub's restart counter (echoed in the hello so the hub can
	// reject zombies from torn-down attempts).
	Shards  int `json:"shards"`
	Shard   int `json:"shard"`
	Attempt int `json:"attempt"`

	// CheckpointEvery/CheckpointDir arm the worker's sequential-shadow
	// shard checkpointer (0/"" = off).
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
	CheckpointDir   string `json:"checkpoint_dir,omitempty"`
	// Boot is the path of the snapshot this attempt resumes from: the
	// caller's restore point or a merged recovery cut ("" = fresh start
	// at t=0).
	Boot string `json:"boot,omitempty"`

	// Mesh routes inter-shard event batches over direct worker-to-worker
	// links; the hub keeps only the control plane. MeshDir holds the mesh
	// listener sockets for the unix network.
	Mesh    bool   `json:"mesh,omitempty"`
	MeshDir string `json:"mesh_dir,omitempty"`
	// CkptDelta makes shard checkpoints incremental: a full snapshot at
	// the first boundary of each attempt, fingerprint-chained delta
	// records after.
	CkptDelta bool `json:"ckpt_delta,omitempty"`
}

// Heartbeat converts the wire field back to a duration (floored so a
// zero job cannot spin the beacon loop).
func (j *Job) Heartbeat() time.Duration {
	if j.HeartbeatMs <= 0 {
		return 25 * time.Millisecond
	}
	return time.Duration(j.HeartbeatMs) * time.Millisecond
}

// engineOptions is the engine configuration a worker hands to core: every
// engine field of the header, and the watchdog when one is armed.
func (j *Job) engineOptions() (core.Options, error) {
	engine, err := parseEngine(j.Engine)
	if err != nil {
		return core.Options{}, err
	}
	o := core.Options{
		Engine: engine, Queue: j.Queue, Window: circuit.Tick(j.Window),
		Cancellation: j.Cancellation, StateSaving: j.StateSaving,
		HistoryLimit: j.HistoryLimit, MaxEvents: j.MaxEvents,
	}
	switch j.System {
	case 2, 4, 9:
		o.System = logic.System(j.System)
	case 0:
		o.System = logic.NineValued
	default:
		return o, fmt.Errorf("dist: invalid logic system %d", j.System)
	}
	if j.HangTimeoutMs > 0 {
		o.Supervise = &core.SuperviseOptions{Watchdog: time.Duration(j.HangTimeoutMs) * time.Millisecond}
	}
	return o, nil
}

// parseEngine resolves an engine name and requires that it distributes.
func parseEngine(name string) (core.Engine, error) {
	e, err := core.ParseEngine(name)
	if err != nil || !e.Distributes() {
		return 0, fmt.Errorf("dist: engine %q does not distribute (cmb, cmb-demand, timewarp, timewarp-lazy)", name)
	}
	return e, nil
}

// encodeJob frames one worker's job: a length-prefixed JSON header, then
// the encoded run (shared by every shard of the attempt).
func encodeJob(j *Job, run []byte) ([]byte, error) {
	hdr, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	p := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+len(hdr)+len(run)), uint32(len(hdr)))
	return append(append(p, hdr...), run...), nil
}

// decodeJob parses an FJob payload and checks the header against the run
// it carries: a distributable engine, this worker inside the fleet, and a
// partition whose every LP is placed on one of the fleet's shards.
func decodeJob(p []byte) (*Job, *pipeline.Prepared, error) {
	if len(p) < 4 || uint64(binary.LittleEndian.Uint32(p)) > uint64(len(p)-4) {
		return nil, nil, fmt.Errorf("dist: job frame of %d bytes has no header", len(p))
	}
	n := 4 + int(binary.LittleEndian.Uint32(p))
	var j Job
	if err := json.Unmarshal(p[4:n], &j); err != nil {
		return nil, nil, fmt.Errorf("dist: job header: %w", err)
	}
	if _, err := parseEngine(j.Engine); err != nil {
		return nil, nil, err
	}
	if j.Shards < 1 || j.Shard < 0 || j.Shard >= j.Shards {
		return nil, nil, fmt.Errorf("dist: job places shard %d in a fleet of %d", j.Shard, j.Shards)
	}
	run, err := pipeline.Decode(p[n:])
	if err != nil {
		return nil, nil, fmt.Errorf("dist: job workload: %w", err)
	}
	if run.Part == nil || run.ShardOf == nil {
		return nil, nil, fmt.Errorf("dist: job workload carries no partition or shard map")
	}
	for lp, s := range run.ShardOf {
		if s >= j.Shards {
			return nil, nil, fmt.Errorf("dist: job maps LP %d to shard %d of %d", lp, s, j.Shards)
		}
	}
	return &j, run, nil
}

// shardResult is the JSON payload of a worker's FResult frame: final
// values and waveform samples for the gates this shard owns, plus the
// shard's bookkeeping. Values is full-length with non-owned entries
// zero; the hub reads only the owned gates.
type shardResult struct {
	Shard    int           `json:"shard"`
	Values   []logic.Value `json:"values"`
	Waveform []wfSample    `json:"waveform"`
	EndTime  uint64        `json:"end_time"`
	Events   uint64        `json:"events"`
	// MeshBytes is FBatch payload volume this shard sent over direct
	// mesh links (0 on the hub-relay path); the hub folds these into the
	// mesh_bytes gauge opposite its own hub_bytes relay count.
	MeshBytes uint64 `json:"mesh_bytes,omitempty"`
	// Checkpoint volume accounting: bytes and record counts written as
	// full snapshots versus delta records, behind the delta_ratio gauge.
	CkptFullBytes  uint64 `json:"ckpt_full_bytes,omitempty"`
	CkptDeltaBytes uint64 `json:"ckpt_delta_bytes,omitempty"`
	CkptFulls      uint64 `json:"ckpt_fulls,omitempty"`
	CkptDeltas     uint64 `json:"ckpt_deltas,omitempty"`
}

// wfSample is a JSON-stable waveform sample.
type wfSample struct {
	Time  uint64         `json:"t"`
	Gate  circuit.GateID `json:"g"`
	Value logic.Value    `json:"v"`
}

// wireError is the JSON payload of a worker's FError frame: a SimError
// flattened for the wire (the cause survives as text), or — Rejected — the
// engine's refusal of the job's configuration.
type wireError struct {
	Engine      string `json:"engine"`
	LP          int    `json:"lp"`
	Phase       string `json:"phase"`
	ModeledTime uint64 `json:"t"`
	Kind        uint8  `json:"kind"`
	Cause       string `json:"cause"`
	Rejected    bool   `json:"rejected,omitempty"`
}
